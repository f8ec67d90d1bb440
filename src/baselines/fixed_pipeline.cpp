#include "baselines/fixed_pipeline.hpp"

#include <stdexcept>

#include "agents/agent_context.hpp"
#include "dataset/semantic.hpp"
#include "llm/rules.hpp"
#include "llm/simllm.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

namespace rustbrain::baselines {

FixedPipelineRepair::FixedPipelineRepair(
    FixedPipelineConfig config, llm::BackendFactory backend_factory,
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

std::string FixedPipelineRepair::config_summary() const {
    return "model=" + config_.model +
           " temperature=" + support::format_double(config_.temperature, 2) +
           " max_iterations=" + std::to_string(config_.max_iterations) +
           " policy=" + policy_->descriptor() +
           " seed=" + std::to_string(config_.seed);
}

core::CaseResult FixedPipelineRepair::repair(const dataset::UbCase& ub_case) {
    core::CaseResult result;
    result.case_id = ub_case.id;

    const auto backend = backend_factory_(
        *llm::find_profile(config_.model),
        support::derive_seed(config_.seed, "fixed:" + ub_case.id));
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

    // The pattern store: a fixed ordered step list per error category. The
    // pipeline always walks it in the same order — the rigidity the paper
    // criticizes ("numerous generic steps ... unnecessary complexity").
    // RustAssistant's store was built for rustc error codes, not UB shapes,
    // so its ordering is generic: modelled here by walking the category's
    // rules in reverse registration order (assertion-style generic patches
    // first, shape-specific semantic fixes last).
    std::vector<std::string> fixed_steps;
    for (const llm::RepairRule* rule :
         llm::rules_for_category(finding.category)) {
        fixed_steps.insert(fixed_steps.begin(), rule->id);
    }
    if (fixed_steps.empty()) {
        core::close_result(result, stats, clock);
        return result;
    }

    // The decision seam the engines share: the policy sees the fixed step
    // walk as the attempt loop.
    core::PolicySignals signals;
    signals.solution_count = fixed_steps.size();
    signals.initial_error_count = initial_errors;
    signals.error_trajectory = &stats.error_trajectory();
    context.signals = &signals;

    const core::ThinkingMode mode = policy_->choose_mode(signals);
    context.emit(core::TraceEventKind::ThinkingSwitch,
                 mode == core::ThinkingMode::FastOnly ? "fast-only" : "escalate");
    const int max_iterations = mode == core::ThinkingMode::FastOnly
                                   ? (config_.max_iterations > 0 ? 1 : 0)
                                   : config_.max_iterations;
    signals.attempts_planned = static_cast<std::size_t>(
        max_iterations < 0 ? 0 : max_iterations);

    std::string current = ub_case.buggy_source;
    int iterations = 0;
    for (std::size_t step = 0;
         step < fixed_steps.size() && iterations < max_iterations;
         ++step, ++iterations) {
        signals.attempt_index = static_cast<std::size_t>(iterations);
        signals.elapsed_ms = clock.now_ms();
        if (mode == core::ThinkingMode::Escalate) {
            const core::AttemptAction action = policy_->gate_attempt(signals);
            if (action == core::AttemptAction::Skip) {
                context.emit(core::TraceEventKind::ThinkingSwitch, "skip",
                             static_cast<std::uint64_t>(step));
                continue;
            }
            if (action == core::AttemptAction::Stop) {
                context.emit(core::TraceEventKind::ThinkingSwitch, "stop",
                             static_cast<std::uint64_t>(step));
                break;
            }
        }
        llm::PromptSpec apply;
        apply.task = "apply_rule";
        apply.fields["rule"] = fixed_steps[step];
        apply.fields["error_category"] =
            miri::ub_category_label(finding.category);
        apply.fields["error_message"] = finding.message;
        apply.code = current;
        const auto patched = context.call_llm(apply);
        const std::string candidate = llm::parse_code_block(patched.content);

        context.emit(core::TraceEventKind::StepExecuted, fixed_steps[step]);
        const miri::MiriReport report = context.verify(candidate);
        context.emit(core::TraceEventKind::StepVerified, fixed_steps[step],
                     report.error_count());

        if (report.passed()) {
            result.pass = true;
            result.exec =
                dataset::judge_semantics(candidate, ub_case, oracle)
                    .acceptable();
            result.winning_rule = fixed_steps[step];
            result.final_source = candidate;
            break;
        }
        if (report.error_count() > initial_errors) {
            signals.regression_seen = true;
            // Full rollback to the initial state (Fig 5a): every partial
            // correction is discarded and the restart is charged in full.
            clock.charge("rollback", 400.0);
            context.emit(core::TraceEventKind::Rollback, fixed_steps[step],
                         initial_errors);
            current = ub_case.buggy_source;
        } else {
            current = candidate;
        }
    }
    result.steps_executed = stats.steps_executed();
    result.rollbacks = stats.rollbacks();
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
