#include "agents/agent_context.hpp"

namespace rustbrain::agents {

llm::ChatResponse AgentContext::call_llm(const llm::PromptSpec& spec) {
    llm::ChatRequest request;
    request.temperature = temperature;
    request.sequence = sequence++;
    request.messages.push_back({llm::Role::User, spec.render()});
    llm::ChatResponse response = llm.complete(request);
    clock.charge("llm", response.latency_ms);
    emit(core::TraceEventKind::LlmCall, spec.task,
         static_cast<std::uint64_t>(response.latency_ms * 1000.0));
    return response;
}

miri::MiriReport AgentContext::verify(const std::string& source) {
    static const std::vector<std::vector<std::int64_t>> kNoInputs;
    const verify::Oracle& verifier = verify::resolve(oracle);
    verify::VerifyOutcome outcome;
    const miri::MiriReport report = verifier.test_source(
        source, inputs != nullptr ? *inputs : kNoInputs, &outcome);
    // Modelled interpretation cost: fixed setup plus per-step execution
    // time. total_steps is part of the memoized report, so the charge is
    // identical whether the report was interpreted or served from cache.
    clock.charge("miri", 120.0 + static_cast<double>(report.total_steps) * 0.01);
    emit(core::TraceEventKind::Verify, outcome.report_cached ? "cached" : "",
         static_cast<std::uint64_t>(report.error_count()));
    return report;
}

void AgentContext::emit(core::TraceEventKind kind, const std::string& label,
                        std::uint64_t value) {
    if (trace == nullptr) return;
    core::TraceEvent event;
    event.kind = kind;
    event.label = label;
    event.value = value;
    event.clock_ms = clock.now_ms();
    trace->on_event(event);
}

}  // namespace rustbrain::agents
