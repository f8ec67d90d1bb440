// RepairService — repair-as-a-service over long-lived shared state.
//
// Everything else in the repo is a one-shot sweep: build engines, run a
// corpus, print, exit. The service is the long-lived shape the ROADMAP
// aims at — requests (source + engine/policy/options) arrive one at a
// time, are queued on the existing support::ThreadPool's shared FIFO
// queue (oldest request first), and share one verify::Oracle, one
// llm::PromptCache, and one warm core::FeedbackStore across their whole
// lifetime. Repeated traffic is the payoff regime: the second request for
// a hot program answers its verifications and prompts from cache, and
// feedback recorded by one request sharpens fast thinking for the next
// (requests opt in via use_feedback).
//
// Determinism contract (DESIGN.md §8): with use_feedback off, every
// response's CaseResult is a pure function of (engine id, options, case) —
// engines are built per request from the registry exactly like
// BatchRunner's workers build theirs, the shared caches are bit-identity
// preserving, and run_batch merges responses in submission order. A
// run_batch over a request list is therefore byte-identical to a serial
// BatchRunner sweep over the same cases (asserted in tests and CI).
// Queue/service latencies are wall-clock observability and excluded from
// that comparison.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/engine_registry.hpp"
#include "core/feedback.hpp"
#include "core/repair_engine.hpp"
#include "core/trace.hpp"
#include "dataset/case.hpp"
#include "kb/knowledge_base.hpp"
#include "llm/caching_backend.hpp"
#include "support/stats.hpp"
#include "support/thread_pool.hpp"
#include "verify/oracle.hpp"

namespace rustbrain::serve {

/// One unit of service work: a case plus the strategy to repair it with.
struct RepairRequest {
    /// Client-chosen correlation id, echoed verbatim in the response.
    std::string ticket;
    /// Registry engine id; empty => the service's default_engine.
    std::string engine;
    /// "key=value,..." engine option spec (core::EngineOptions::parse).
    std::string options;
    /// Thinking-policy spec ("paper", "feedback-guided,threshold=2", ...);
    /// empty => whatever `options` says. Merged via core::set_policy_option.
    std::string policy;
    /// Opt into the service's shared FeedbackStore: the repair starts from
    /// a private snapshot of the warm store and its new records are merged
    /// back afterwards. Off by default — feedback makes the result depend
    /// on request history, which deterministic mode must not.
    bool use_feedback = false;
    dataset::UbCase ub_case;
};

struct RepairResponse {
    std::string ticket;
    bool ok = false;
    /// Set when !ok — e.g. the registry's invalid_argument text listing
    /// available engines/options/policies, or the overload notice when
    /// `shed` is set.
    std::string error;
    /// Admission control refused the request before it was queued: the
    /// service (or the connection cap) was over its configured thresholds.
    /// Always paired with ok == false and a retry_after_ms hint; the
    /// request was never run, so retrying it later is always safe.
    bool shed = false;
    /// Advice when shed: roughly how long until the queue should have
    /// drained below the breached threshold.
    double retry_after_ms = 0.0;
    core::CaseResult result;  // default-constructed when !ok
    std::uint64_t worker = 0;  // pool worker that ran the repair
    double queue_ms = 0.0;    // wall time from submit to dequeue
    double service_ms = 0.0;  // wall time from submit to completion
};

struct ServiceOptions {
    std::size_t workers = 0;  // 0 => support::ThreadPool::hardware_threads()
    /// Engine used by requests with an empty engine id.
    std::string default_engine = "rustbrain";
    /// Applied to requests with an empty policy spec (empty => none).
    std::string default_policy;
    /// Shared knowledge base (may be null: engines run knowledge-free).
    const kb::KnowledgeBase* knowledge_base = nullptr;
    /// Oracle shared by every request; null => the service builds its own
    /// (own LRU VerifyCache, RUSTBRAIN_* env honoured).
    std::shared_ptr<const verify::Oracle> oracle;
    /// Optional observer for ServiceQueue / ServiceComplete events.
    /// Emission is serialized by the service, so any sink is safe; the
    /// per-repair engine event streams stay internal (they would interleave
    /// across workers).
    core::TraceSink* trace = nullptr;
    /// Admission control (0 disables both): a new request is shed — an
    /// immediate ok=false response with `shed` set and retry advice —
    /// instead of queued when the number of queued+running requests has
    /// reached max_inflight, or when a queue exists (in-flight > workers)
    /// and the most recent dequeue waited longer than max_queue_ms.
    /// Deterministic mode assumes both are 0: shedding is load-dependent
    /// by definition (admitted requests stay bit-identical regardless).
    std::size_t max_inflight = 0;
    double max_queue_ms = 0.0;
};

/// Aggregate counters across the service lifetime. Latency totals are
/// wall-clock; cache stats come from the shared stores, so they measure
/// reuse *across* requests, not within one.
struct ServiceStats {
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;  // ok == false responses that actually ran
    /// Requests refused by admission control (counted in submitted, never
    /// in completed — they were not run).
    std::uint64_t shed = 0;
    double queue_ms_total = 0.0;
    double queue_ms_max = 0.0;
    /// Queue-latency percentiles from a bounded deterministic reservoir
    /// (support::Reservoir) of per-request queue_ms samples.
    double queue_ms_p50 = 0.0;
    double queue_ms_p95 = 0.0;
    double queue_ms_p99 = 0.0;
    double service_ms_total = 0.0;
    /// Requests that opted into feedback, and how many journal records
    /// they contributed back to the warm store.
    std::uint64_t feedback_requests = 0;
    std::uint64_t feedback_records_absorbed = 0;
    /// Screen verdict mix summed over completed CaseResults.
    std::uint64_t screens = 0;
    std::uint64_t screen_proven_safe = 0;
    std::uint64_t screen_likely_ub = 0;
    std::uint64_t screen_unknown = 0;
    llm::PromptCacheStats prompt_cache;
    verify::VerifyCacheStats verify_cache;
};

class RepairService {
  public:
    explicit RepairService(ServiceOptions options = {});
    ~RepairService();
    RepairService(const RepairService&) = delete;
    RepairService& operator=(const RepairService&) = delete;

    /// Enqueue one request; the future resolves when a worker finishes it.
    /// Never throws on a bad request — strategy errors come back as
    /// ok == false responses so one typo cannot poison the queue. When
    /// admission control is configured and breached, the future resolves
    /// immediately with a shed response (the request is never queued).
    std::future<RepairResponse> submit(RepairRequest request);

    /// Callback shape for the reactor: `done` runs on the worker that
    /// finished the repair (or synchronously on the caller when the
    /// request is shed). The callback must not block — the reactor's
    /// completion handoff is a queue push plus an eventfd wake.
    void submit_async(RepairRequest request,
                      std::function<void(RepairResponse)> done);

    /// submit + wait: the synchronous shape for in-process callers (the
    /// reactor uses submit_async).
    RepairResponse repair(RepairRequest request);

    /// Deterministic mode: submit every request, then merge the responses
    /// in submission order (exactly BatchRunner's ordered merge). With
    /// use_feedback off on every request, the rendered CaseResults are
    /// byte-identical to a serial BatchRunner sweep over the same list at
    /// any worker count.
    std::vector<RepairResponse> run_batch(std::vector<RepairRequest> requests);

    [[nodiscard]] ServiceStats stats() const;
    [[nodiscard]] std::size_t workers() const { return pool_.size(); }
    [[nodiscard]] const verify::Oracle& oracle() const { return *oracle_; }
    [[nodiscard]] const std::shared_ptr<llm::PromptCache>& prompt_cache()
        const {
        return prompt_cache_;
    }
    /// Snapshot of the warm feedback store (copied under the lock).
    [[nodiscard]] core::FeedbackStore feedback_snapshot() const;

  private:
    RepairResponse handle(const RepairRequest& request, std::size_t worker,
                          double queue_ms,
                          std::chrono::steady_clock::time_point submitted_at);
    void emit(const core::TraceEvent& event);
    /// Admission check + submitted accounting (under stats_mutex_).
    /// Returns false when the request must be shed, with `shed_response`
    /// filled in (ticket is the caller's job).
    bool admit(RepairResponse& shed_response);

    ServiceOptions options_;
    support::ThreadPool pool_;
    std::shared_ptr<const verify::Oracle> oracle_;
    std::shared_ptr<llm::PromptCache> prompt_cache_;

    mutable std::mutex feedback_mutex_;
    core::FeedbackStore feedback_;

    mutable std::mutex stats_mutex_;
    ServiceStats totals_;
    /// Queue-latency samples for the percentile report (bounded,
    /// deterministic given the arrival sequence). Guarded by stats_mutex_.
    support::Reservoir queue_samples_;
    /// The most recent dequeue's queue_ms — the freshest congestion signal
    /// the max_queue_ms admission check reads. Guarded by stats_mutex_.
    double last_queue_ms_ = 0.0;

    std::mutex trace_mutex_;
};

}  // namespace rustbrain::serve
