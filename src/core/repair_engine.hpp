// RepairEngine — the uniform interface every repair strategy implements.
//
// The paper's evaluation is "run N repair strategies over one corpus and
// compare"; this is the seam that makes a strategy a value. RustBrain and
// the three baselines (StandaloneLlmRepair, FixedPipelineRepair,
// ExpertModelRepair) all implement repair()/name()/config_summary(), are
// constructible by string id through core::EngineRegistry, talk to the
// model exclusively through an injected llm::LlmBackend, and report their
// statistics through core::TraceSink events.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/trace.hpp"
#include "dataset/case.hpp"
#include "support/sim_clock.hpp"

namespace rustbrain::core {

struct CaseResult {
    std::string case_id;
    bool pass = false;   // repaired code passes MiriLite
    bool exec = false;   // ... and matches the reference semantics
    double time_ms = 0.0;  // virtual repair time
    /// Per-category virtual-time charges (the case's SimClock breakdown);
    /// BatchRunner folds these into an aggregate clock in case-index order.
    std::map<std::string, double> time_breakdown;
    int solutions_generated = 0;
    int steps_executed = 0;
    int rollbacks = 0;
    std::uint64_t llm_calls = 0;
    bool kb_consulted = false;
    bool kb_skipped_by_feedback = false;
    /// ThinkingPolicy decision tallies (core/thinking_policy.hpp): every
    /// switch decision, plus the escalation / early-stop / skipped-attempt
    /// subsets. Under the default `paper` policy each UB case records
    /// exactly one escalation and nothing else.
    int thinking_switches = 0;
    int escalations = 0;
    int early_stops = 0;
    int attempts_skipped = 0;
    /// Static pre-screening tallies (screen/screen.hpp). Observability
    /// only: these are the one set of CaseResult fields that legitimately
    /// differ screen-on vs screen-off, so bit-identity comparisons must
    /// (and do) exclude them.
    int screens = 0;
    int screen_proven_safe = 0;
    int screen_likely_ub = 0;
    int screen_unknown = 0;
    std::vector<std::size_t> error_trajectory;
    std::string winning_rule;
    std::string final_source;
};

/// The closing step of every engine return path: copies the screen
/// tallies out of `stats`, then the virtual time and its per-category
/// breakdown out of `clock`.
inline void close_result(CaseResult& result, const TraceStats& stats,
                         const support::SimClock& clock) {
    result.screens = stats.screens();
    result.screen_proven_safe = stats.screen_proven_safe();
    result.screen_likely_ub = stats.screen_likely_ub();
    result.screen_unknown = stats.screen_unknown();
    result.time_ms = clock.now_ms();
    result.time_breakdown = clock.breakdown();
}

class RepairEngine {
  public:
    virtual ~RepairEngine() = default;

    /// Repair one corpus case end to end. Deterministic: the result is a
    /// pure function of (engine configuration, case) — never of prior
    /// repairs, scheduling, or wall-clock (engines with a FeedbackStore
    /// additionally depend on the store's state at call time).
    virtual CaseResult repair(const dataset::UbCase& ub_case) = 0;

    /// The engine's registry id ("rustbrain", "standalone", ...).
    [[nodiscard]] virtual std::string name() const = 0;

    /// One-line description of the live configuration, e.g.
    /// "model=gpt-4 temperature=0.5 knowledge=on seed=42".
    [[nodiscard]] virtual std::string config_summary() const = 0;

    /// Attach an observer for per-case trace events (may be null). The
    /// engine always keeps its own TraceStats; the sink sees the same
    /// event stream. Attaching a sink never changes results.
    void set_trace_sink(TraceSink* sink) { trace_sink_ = sink; }
    [[nodiscard]] TraceSink* trace_sink() const { return trace_sink_; }

  protected:
    TraceSink* trace_sink_ = nullptr;
};

}  // namespace rustbrain::core
