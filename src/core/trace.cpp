#include "core/trace.hpp"

namespace rustbrain::core {

const char* trace_event_kind_name(TraceEventKind kind) {
    switch (kind) {
        case TraceEventKind::StageEnter: return "stage_enter";
        case TraceEventKind::StageExit: return "stage_exit";
        case TraceEventKind::LlmCall: return "llm_call";
        case TraceEventKind::Verify: return "verify";
        case TraceEventKind::StepExecuted: return "step_executed";
        case TraceEventKind::StepVerified: return "step_verified";
        case TraceEventKind::KbConsult: return "kb_consult";
        case TraceEventKind::KbSkip: return "kb_skip";
        case TraceEventKind::Rollback: return "rollback";
        case TraceEventKind::SolutionsGenerated: return "solutions_generated";
        case TraceEventKind::ThinkingSwitch: return "thinking_switch";
        case TraceEventKind::ServiceQueue: return "service_queue";
        case TraceEventKind::ServiceComplete: return "service_complete";
    }
    return "?";
}

void TraceStats::on_event(const TraceEvent& event) {
    switch (event.kind) {
        case TraceEventKind::LlmCall:
            ++llm_calls_;
            break;
        case TraceEventKind::StepExecuted:
            ++steps_executed_;
            break;
        case TraceEventKind::StepVerified:
            trajectory_.push_back(static_cast<std::size_t>(event.value));
            break;
        case TraceEventKind::KbConsult:
            kb_consulted_ = true;
            break;
        case TraceEventKind::KbSkip:
            kb_skipped_ = true;
            break;
        case TraceEventKind::Rollback:
            ++rollbacks_;
            break;
        case TraceEventKind::SolutionsGenerated:
            solutions_ = static_cast<int>(event.value);
            break;
        case TraceEventKind::ThinkingSwitch:
            ++thinking_switches_;
            if (event.label == "escalate") ++escalations_;
            if (event.label == "stop") ++early_stops_;
            if (event.label == "skip") ++attempts_skipped_;
            break;
        case TraceEventKind::StageEnter:
        case TraceEventKind::StageExit:
        case TraceEventKind::Verify:
        case TraceEventKind::ServiceQueue:
        case TraceEventKind::ServiceComplete:
            break;
    }
}

std::size_t TraceRecorder::count(TraceEventKind kind) const {
    std::size_t total = 0;
    for (const TraceEvent& event : events_) {
        if (event.kind == kind) ++total;
    }
    return total;
}

}  // namespace rustbrain::core
