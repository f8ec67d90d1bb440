#include "baselines/standalone_llm.hpp"

#include <stdexcept>

#include "agents/agent_context.hpp"
#include "dataset/semantic.hpp"
#include "llm/simllm.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

namespace rustbrain::baselines {

StandaloneLlmRepair::StandaloneLlmRepair(
    StandaloneConfig config, llm::BackendFactory backend_factory,
    std::shared_ptr<const verify::Oracle> oracle)
    : config_(std::move(config)),
      backend_factory_(std::move(backend_factory)),
      oracle_(std::move(oracle)),
      policy_(core::parse_policy_spec(config_.policy)) {
    if (llm::find_profile(config_.model) == nullptr) {
        throw std::invalid_argument("unknown model profile: " + config_.model);
    }
    if (!backend_factory_) backend_factory_ = llm::sim_backend_factory();
}

std::string StandaloneLlmRepair::config_summary() const {
    return "model=" + config_.model +
           " temperature=" + support::format_double(config_.temperature, 2) +
           " attempts=" + std::to_string(config_.attempts) +
           " policy=" + policy_->descriptor() +
           " seed=" + std::to_string(config_.seed);
}

core::CaseResult StandaloneLlmRepair::repair(const dataset::UbCase& ub_case) {
    core::CaseResult result;
    result.case_id = ub_case.id;

    const auto backend =
        backend_factory_(*llm::find_profile(config_.model),
                         support::derive_seed(config_.seed, "solo:" + ub_case.id));
    support::SimClock clock;
    core::TraceStats stats;
    core::TraceTee tee(&stats, trace_sink_);
    const verify::Oracle& oracle = verify::resolve(oracle_.get());
    agents::AgentContext context{*backend, clock};
    context.trace = &tee;
    context.temperature = config_.temperature;
    context.inputs = &ub_case.inputs;
    context.oracle = &oracle;

    const miri::MiriReport initial = context.verify(ub_case.buggy_source);
    if (initial.passed()) {
        result.pass = true;
        result.exec = true;
        core::close_result(result, stats, clock);
        return result;
    }
    const miri::Finding& finding = initial.findings.front();
    const std::size_t initial_errors = initial.error_count();

    // The decision seam the engines share: the policy sees the attempt
    // loop as a one-solution-per-attempt ranking.
    core::PolicySignals signals;
    signals.solution_count = static_cast<std::size_t>(
        config_.attempts < 0 ? 0 : config_.attempts);
    signals.initial_error_count = initial_errors;
    signals.error_trajectory = &stats.error_trajectory();
    context.signals = &signals;

    const core::ThinkingMode mode = policy_->choose_mode(signals);
    context.emit(core::TraceEventKind::ThinkingSwitch,
                 mode == core::ThinkingMode::FastOnly ? "fast-only" : "escalate");
    const int attempts = mode == core::ThinkingMode::FastOnly
                             ? (config_.attempts > 0 ? 1 : 0)
                             : config_.attempts;
    signals.attempts_planned = static_cast<std::size_t>(attempts < 0 ? 0 : attempts);

    std::string current = ub_case.buggy_source;
    for (int attempt = 0; attempt < attempts; ++attempt) {
        signals.attempt_index = static_cast<std::size_t>(attempt);
        signals.elapsed_ms = clock.now_ms();
        if (mode == core::ThinkingMode::Escalate) {
            const core::AttemptAction action = policy_->gate_attempt(signals);
            if (action == core::AttemptAction::Skip) {
                context.emit(core::TraceEventKind::ThinkingSwitch, "skip",
                             static_cast<std::uint64_t>(attempt));
                continue;
            }
            if (action == core::AttemptAction::Stop) {
                context.emit(core::TraceEventKind::ThinkingSwitch, "stop",
                             static_cast<std::uint64_t>(attempt));
                break;
            }
        }
        // The bare model picks its own strategy (one candidate, no features,
        // no hints) and applies it in the same breath.
        llm::PromptSpec generate;
        generate.task = "generate_solutions";
        generate.fields["error_category"] =
            miri::ub_category_label(finding.category);
        generate.fields["error_message"] = finding.message;
        generate.fields["count"] = "1";
        generate.fields["difficulty"] = std::to_string(ub_case.difficulty);
        generate.code = current;
        const auto idea = context.call_llm(generate);
        const auto rules = llm::parse_solution_lines(idea.content);
        if (rules.empty()) break;

        llm::PromptSpec apply;
        apply.task = "apply_rule";
        apply.fields["rule"] = rules.front();
        apply.fields["error_category"] =
            miri::ub_category_label(finding.category);
        apply.fields["error_message"] = finding.message;
        apply.code = current;
        const auto patched = context.call_llm(apply);
        const std::string candidate = llm::parse_code_block(patched.content);

        context.emit(core::TraceEventKind::StepExecuted, rules.front());
        const miri::MiriReport report = context.verify(candidate);
        context.emit(core::TraceEventKind::StepVerified, rules.front(),
                     report.error_count());
        if (report.error_count() > initial_errors) signals.regression_seen = true;
        if (report.passed()) {
            result.pass = true;
            result.exec =
                dataset::judge_semantics(candidate, ub_case, oracle)
                    .acceptable();
            result.winning_rule = rules.front();
            result.final_source = candidate;
            break;
        }
        // No rollback: the (possibly worse) code is what the next attempt
        // starts from, exactly the failure mode RustBrain's rollback fixes.
        current = candidate;
    }
    result.steps_executed = stats.steps_executed();
    result.error_trajectory = stats.error_trajectory();
    result.llm_calls = stats.llm_calls();
    result.thinking_switches = stats.thinking_switches();
    result.escalations = stats.escalations();
    result.early_stops = stats.early_stops();
    result.attempts_skipped = stats.attempts_skipped();
    core::close_result(result, stats, clock);
    return result;
}

}  // namespace rustbrain::baselines
