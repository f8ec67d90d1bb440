#include "core/slow_thinking.hpp"

#include "agents/fix_agents.hpp"
#include "agents/rollback_agent.hpp"

namespace rustbrain::core {

SlowThinkingResult SlowThinking::run(const std::string& buggy_source,
                                     const FastThinkingResult& fast,
                                     const SemanticOracle& oracle,
                                     FeedbackStore* feedback,
                                     agents::AgentContext& context,
                                     ThinkingMode mode) const {
    SlowThinkingResult result;
    context.emit(TraceEventKind::StageEnter, "slow_thinking");
    // Fallback candidate: passes Miri but failed the semantic benchmark.
    std::optional<std::pair<std::string, std::string>> pass_only;  // source, rule

    const ThinkingPolicy& policy =
        options_.policy != nullptr ? *options_.policy : paper_thinking_policy();
    // The engine owns the signal block; direct stage calls (tests) get a
    // local one seeded from the fast result.
    PolicySignals local_signals;
    PolicySignals& signals =
        context.signals != nullptr ? *context.signals : local_signals;
    if (context.signals == nullptr) {
        signals.solution_count = fast.solutions.size();
        signals.initial_error_count = fast.initial_error_count;
        signals.feature_key = fast.feature_key;
    }
    signals.error_trajectory = &result.error_trajectory;
    signals.attempt_triplets = &result.attempt_triplets;

    // Attempts follow the ranking: FastOnly trusts the intuition (top
    // solution only), Escalate tries every solution in order.
    const std::size_t planned =
        mode == ThinkingMode::FastOnly && !fast.solutions.empty()
            ? 1
            : fast.solutions.size();
    signals.attempts_planned = planned;

    for (std::size_t k = 0; k < planned; ++k) {
        signals.attempt_index = k;
        signals.elapsed_ms = context.clock.now_ms();
        int max_steps = options_.max_steps_per_solution;
        if (mode == ThinkingMode::FastOnly) {
            // The intuition arm still honors the policy's refinement grant
            // (fast-only pins it to one application; feedback-guided keeps
            // the full grant so its shortcut matches the deliberate loop's
            // first attempt).
            max_steps = policy.refinement_steps(signals, max_steps);
        } else {
            const AttemptAction action = policy.gate_attempt(signals);
            if (action == AttemptAction::Skip) {
                context.emit(TraceEventKind::ThinkingSwitch, "skip", k);
                continue;
            }
            if (action == AttemptAction::Stop) {
                context.emit(TraceEventKind::ThinkingSwitch, "stop", k);
                break;
            }
            const int granted =
                policy.refinement_steps(signals, options_.max_steps_per_solution);
            if (granted != options_.max_steps_per_solution) {
                context.emit(TraceEventKind::ThinkingSwitch, "steps",
                             static_cast<std::uint64_t>(granted < 0 ? 0 : granted));
            }
            max_steps = granted;
        }

        const Solution& solution = fast.solutions[k];
        const double attempt_start_ms = context.clock.now_ms();
        agents::RollbackAgent rollback;
        rollback.observe(buggy_source, fast.initial_error_count);

        std::string current = buggy_source;
        bool solution_passed = false;
        bool solution_acceptable = false;

        // S1: decomposition — the solution's rules form the step sequence;
        // the policy's refinement grant bounds the extra iterations.
        std::vector<std::string> steps = solution.rule_ids;
        while (static_cast<int>(steps.size()) < max_steps &&
               !solution.rule_ids.empty()) {
            steps.push_back(solution.rule_ids.front());  // retry the strategy
        }
        // Truncation below the solution's own rule count only ever comes
        // from a policy that deviated from the configured grant; when the
        // grant IS the configured maximum (the paper behavior), the step
        // list is pad-only, whatever the configured value.
        if (max_steps != options_.max_steps_per_solution &&
            static_cast<int>(steps.size()) > max_steps) {
            steps.resize(static_cast<std::size_t>(max_steps < 0 ? 0 : max_steps));
        }

        for (const std::string& rule_id : steps) {
            // S2: the matching agent executes the step...
            const agents::FixAgent& agent = agents::agent_for_rule(rule_id);
            const agents::FixOutcome outcome =
                agent.run(current, fast.finding, rule_id, context);
            ++result.steps_executed;
            context.emit(TraceEventKind::StepExecuted, rule_id);

            // ...and verification measures it.
            const miri::MiriReport report = context.verify(outcome.code);
            const std::size_t errors = report.error_count();
            result.error_trajectory.push_back(errors);
            context.emit(TraceEventKind::StepVerified, rule_id, errors);
            rollback.observe(outcome.code, errors);
            if (errors > fast.initial_error_count) signals.regression_seen = true;

            if (errors == 0) {
                solution_passed = true;
                solution_acceptable = oracle(outcome.code);
                current = outcome.code;
                if (solution_acceptable) break;
                // Passes Miri but semantics diverge (often a corrupted
                // application of the right strategy). Keep it as a fallback
                // and spend the remaining iterations re-attempting the
                // strategy from the original code — the paper's "fine-tune
                // through reasoning" loop.
                if (!pass_only) {
                    pass_only = {outcome.code, rule_id};
                }
                current = buggy_source;
                continue;
            }
            if (options_.use_adaptive_rollback) {
                // "Before proceeding to the next stage, the process rolls
                // back to the optimal code state (the fewest detected
                // errors)" — strict improvements advance the baseline;
                // regressions and sideways corruption are both discarded
                // (Fig 5b). Only true regressions charge rollback cost.
                if (rollback.should_rollback(errors)) {
                    current = rollback.rollback(context.clock);
                    context.emit(TraceEventKind::Rollback, rule_id,
                                 rollback.best_errors());
                } else {
                    current = rollback.best_code();
                }
            } else {
                // Fig 5a: no rollback — hallucinated states propagate.
                current = outcome.code;
            }
        }
        result.rollbacks += rollback.rollbacks_performed();

        // S2 evaluation: the triplet for this attempt feeds back into fast
        // thinking (S3's self-learning edge).
        EvalTriplet triplet;
        triplet.accuracy = solution_passed;
        triplet.acceptability = solution_acceptable;
        triplet.overhead_ms = context.clock.now_ms() - attempt_start_ms;
        result.attempt_triplets.push_back(triplet);
        if (feedback != nullptr && !fast.feature_key.empty() &&
            !solution.rule_ids.empty()) {
            feedback->record(fast.feature_key, solution.rule_ids.front(), triplet);
        }

        if (solution_passed && solution_acceptable) {
            if (!result.pass) {
                result.pass = true;
                result.acceptable = true;
                result.final_source = current;
                result.winning_rule = solution.rule_ids.empty()
                                          ? ""
                                          : solution.rule_ids.front();
            }
            signals.success_found = true;
            signals.elapsed_ms = context.clock.now_ms();
            if (!policy.continue_after_success(signals)) {
                context.emit(TraceEventKind::StageExit, "slow_thinking");
                // `result` is about to be moved out; the engine repoints
                // the trajectory signals at the returned object if a later
                // hook needs them.
                signals.error_trajectory = nullptr;
                signals.attempt_triplets = nullptr;
                return result;
            }
            // The slow-all ablation: deliberate on anyway (the winner above
            // is already locked in).
            context.emit(TraceEventKind::ThinkingSwitch, "continue", k);
        }
    }

    if (!result.pass) {
        if (pass_only) {
            result.pass = true;
            result.acceptable = false;
            result.final_source = pass_only->first;
            result.winning_rule = pass_only->second;
        } else {
            result.final_source = buggy_source;
        }
    }
    context.emit(TraceEventKind::StageExit, "slow_thinking");
    signals.error_trajectory = nullptr;
    signals.attempt_triplets = nullptr;
    return result;
}

}  // namespace rustbrain::core
