// TraceSink — structured per-case repair telemetry.
//
// Fast/slow thinking, the agents and the baselines emit typed events
// (stage enter/exit, LLM calls, verification runs, KB consultations,
// rollbacks) instead of bumping ad-hoc counters. Engines tally the events
// with a TraceStats sink, which is the single source for every statistic
// in CaseResult; callers can attach their own sink (via
// RepairEngine::set_trace_sink or EngineBuildContext::trace) to observe a
// repair live or record it for inspection. Emission never consumes
// randomness or virtual time, so tracing cannot perturb results.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace rustbrain::core {

enum class TraceEventKind {
    StageEnter,          // label = stage name
    StageExit,           // label = stage name
    LlmCall,             // label = prompt task, value = latency charged (us)
    Verify,              // any MiriLite run; value = error count
    StepExecuted,        // one slow-thinking/baseline repair step; label = rule
    StepVerified,        // post-step verification; value = error count
    KbConsult,           // knowledge base consulted; value = exemplar count
    KbSkip,              // consultation skipped (feedback confidence)
    Rollback,            // a rollback was performed
    SolutionsGenerated,  // value = candidate solution count
    ThinkingSwitch,      // a ThinkingPolicy decision; label = decision
                         // ("fast-only", "escalate", "skip", "stop",
                         // "continue", "steps"), value = attempt index or
                         // granted steps
    ServiceQueue,        // serve::RepairService dequeued a request;
                         // label = engine id, value = queue wait (us)
    ServiceComplete,     // serve::RepairService finished a request;
                         // label = case id, value = total service time (us)
};

const char* trace_event_kind_name(TraceEventKind kind);

struct TraceEvent {
    TraceEventKind kind = TraceEventKind::StageEnter;
    std::string label;
    std::uint64_t value = 0;
    double clock_ms = 0.0;  // virtual timestamp at emission
};

class TraceSink {
  public:
    virtual ~TraceSink() = default;
    virtual void on_event(const TraceEvent& event) = 0;
};

/// Tallies events into the counters CaseResult reports. One per repair.
class TraceStats final : public TraceSink {
  public:
    void on_event(const TraceEvent& event) override;

    [[nodiscard]] std::uint64_t llm_calls() const { return llm_calls_; }
    [[nodiscard]] int steps_executed() const { return steps_executed_; }
    [[nodiscard]] int rollbacks() const { return rollbacks_; }
    [[nodiscard]] bool kb_consulted() const { return kb_consulted_; }
    [[nodiscard]] bool kb_skipped() const { return kb_skipped_; }
    /// Most recent SolutionsGenerated value (a KB-sharpened regeneration
    /// supersedes the first pass, matching the reported count).
    [[nodiscard]] int solutions_generated() const { return solutions_; }
    /// Error counts of every StepVerified event, in emission order.
    [[nodiscard]] const std::vector<std::size_t>& error_trajectory() const {
        return trajectory_;
    }
    /// ThinkingSwitch tallies: every policy decision, plus the escalation /
    /// early-stop / skipped-attempt subsets (by event label).
    [[nodiscard]] int thinking_switches() const { return thinking_switches_; }
    [[nodiscard]] int escalations() const { return escalations_; }
    [[nodiscard]] int early_stops() const { return early_stops_; }
    [[nodiscard]] int attempts_skipped() const { return attempts_skipped_; }

  private:
    std::uint64_t llm_calls_ = 0;
    int steps_executed_ = 0;
    int rollbacks_ = 0;
    bool kb_consulted_ = false;
    bool kb_skipped_ = false;
    int solutions_ = 0;
    int thinking_switches_ = 0;
    int escalations_ = 0;
    int early_stops_ = 0;
    int attempts_skipped_ = 0;
    std::vector<std::size_t> trajectory_;
};

/// Stores every event verbatim (tests, inspection tools).
class TraceRecorder final : public TraceSink {
  public:
    void on_event(const TraceEvent& event) override { events_.push_back(event); }
    [[nodiscard]] const std::vector<TraceEvent>& events() const { return events_; }
    [[nodiscard]] std::size_t count(TraceEventKind kind) const;

  private:
    std::vector<TraceEvent> events_;
};

/// Forwards to up to two sinks (either may be null): the engine's internal
/// TraceStats plus whatever the caller attached.
class TraceTee final : public TraceSink {
  public:
    TraceTee(TraceSink* first, TraceSink* second)
        : first_(first), second_(second) {}
    void on_event(const TraceEvent& event) override {
        if (first_ != nullptr) first_->on_event(event);
        if (second_ != nullptr) second_->on_event(event);
    }

  private:
    TraceSink* first_;
    TraceSink* second_;
};

}  // namespace rustbrain::core
