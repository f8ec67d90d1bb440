// Parallel batch evaluation over a UB corpus.
//
// The paper's whole evaluation (Figs 7-12, Table I) is "sweep every corpus
// case under one configuration and aggregate" — repeated dozens of times
// across configurations. BatchRunner shards those cases across a
// support::ThreadPool: one repair engine per worker over a shared const
// KnowledgeBase, per-case deterministic seeding untouched (every engine
// derives its RNG streams from config.seed + case id), and both the
// CaseResult sequence and the aggregate SimClock merged in case-index
// order. Because every case is independent of scheduling, a run with N
// workers is bit-identical to a serial run — parallelism is purely a
// wall-clock optimization.
//
// Cross-case *feedback accumulation* (the self-learning campaigns of
// fig07/repair_campaign and Table I's knowledge+feedback column) is
// order-dependent by design; run_sequential covers that shape with the
// same report format. A read-only warm feedback snapshot can instead be
// applied per-case (copied), which keeps scheduling out of the results.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include <string>

#include "core/engine_registry.hpp"
#include "core/feedback.hpp"
#include "dataset/corpus.hpp"
#include "support/sim_clock.hpp"

namespace rustbrain::core {

using RepairFn = std::function<CaseResult(const dataset::UbCase&)>;

/// Invoked once per worker before the sweep starts; the returned functor is
/// only ever called from that worker's thread.
using EngineFactory = std::function<RepairFn(std::size_t worker)>;

struct BatchOptions {
    std::size_t workers = 0;  // 0 => support::ThreadPool::hardware_threads()
};

struct BatchReport {
    std::vector<CaseResult> results;  // same order as the input cases
    support::SimClock clock;          // per-case charges, merged in case order
    double wall_ms = 0.0;             // real elapsed time of the batch
    std::size_t workers_used = 1;

    [[nodiscard]] int pass_total() const;
    [[nodiscard]] int exec_total() const;
    [[nodiscard]] double virtual_ms_total() const;
};

class BatchRunner {
  public:
    /// Generic engine (baselines, ablated configurations, ...).
    explicit BatchRunner(EngineFactory factory, BatchOptions options = {});

    /// Registry-driven sweep: build `engine_id` from EngineRegistry::builtin()
    /// with `engine_options`, one engine per worker. `context.feedback` and
    /// `context.trace` are both ignored: a shared mutable feedback store
    /// would make results scheduling-dependent, and a single TraceSink
    /// written from every worker would race. To sweep from learned feedback
    /// pass `warm_feedback`: every case then starts from a private copy of
    /// that snapshot, so the feedback effect depends only on (snapshot,
    /// case) — never on worker count or scheduling. To trace, build one
    /// engine from the registry and run it directly (or via
    /// run_sequential).
    BatchRunner(const std::string& engine_id, EngineOptions engine_options,
                EngineBuildContext context, BatchOptions options = {},
                const FeedbackStore* warm_feedback = nullptr);

    [[nodiscard]] BatchReport run(
        const std::vector<const dataset::UbCase*>& cases) const;
    [[nodiscard]] BatchReport run(const dataset::Corpus& corpus) const;

    /// Ordered single-engine sweep: case i sees whatever state case i-1 left
    /// in `engine` (e.g. a shared FeedbackStore). Same report shape as run().
    static BatchReport run_sequential(
        const std::vector<const dataset::UbCase*>& cases, const RepairFn& engine);

  private:
    EngineFactory factory_;
    BatchOptions options_;
};

}  // namespace rustbrain::core
