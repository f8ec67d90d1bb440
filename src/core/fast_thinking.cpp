#include "core/fast_thinking.hpp"

#include "llm/simllm.hpp"
#include "support/strings.hpp"

namespace rustbrain::core {

FastThinkingResult FastThinking::run(const std::string& source, int difficulty,
                                     const FeedbackStore* feedback,
                                     agents::AgentContext& context) const {
    FastThinkingResult result;
    context.emit(TraceEventKind::StageEnter, "fast_thinking");

    // F1: Miri detection. Clean programs terminate the pipeline.
    const miri::MiriReport report = context.verify(source);
    if (report.passed()) {
        result.already_clean = true;
        context.emit(TraceEventKind::StageExit, "fast_thinking");
        return result;
    }
    result.finding = report.findings.front();
    result.initial_error_count = report.error_count();

    // F2a: feature extraction through the model (broad-knowledge pass).
    if (use_feature_extraction_) {
        llm::PromptSpec spec;
        spec.task = "extract_features";
        spec.fields["error_category"] =
            miri::ub_category_label(result.finding.category);
        spec.fields["error_message"] = result.finding.message;
        spec.code = source;
        const llm::ChatResponse response = context.call_llm(spec);
        for (const auto& line : support::split(response.content, '\n')) {
            if (support::starts_with(line, "feature_key: ")) {
                result.feature_key = line.substr(13);
            }
        }
        context.feature_key = result.feature_key;
    }

    // F2b: feedback hints — previously validated solutions for this error
    // signature are handed to the model as preferred rules.
    if (feedback != nullptr && !result.feature_key.empty()) {
        context.preferred_rules =
            feedback->preferred_rules(result.feature_key);
    }

    // F2c: rapid multi-solution generation.
    llm::PromptSpec spec;
    spec.task = "generate_solutions";
    spec.fields["error_category"] =
        miri::ub_category_label(result.finding.category);
    spec.fields["error_message"] = result.finding.message;
    spec.fields["count"] = std::to_string(max_solutions_);
    spec.fields["difficulty"] = std::to_string(difficulty);
    if (!result.feature_key.empty()) {
        spec.fields["feature_key"] = result.feature_key;
    }
    spec.exemplar_rules = context.exemplar_rules;
    spec.preferred_rules = context.preferred_rules;
    spec.code = source;
    const llm::ChatResponse response = context.call_llm(spec);

    // Distinct rules become separate solutions (generation order preserved);
    // repeats of an earlier rule are dropped.
    std::vector<std::string> seen;
    for (const std::string& rule_id :
         llm::parse_solution_lines(response.content)) {
        bool duplicate = false;
        for (const auto& prior : seen) {
            if (prior == rule_id) duplicate = true;
        }
        if (duplicate) continue;
        seen.push_back(rule_id);
        Solution solution;
        solution.rule_ids.push_back(rule_id);
        result.solutions.push_back(std::move(solution));
    }
    context.emit(TraceEventKind::SolutionsGenerated, "",
                 static_cast<std::uint64_t>(result.solutions.size()));
    context.emit(TraceEventKind::StageExit, "fast_thinking");

    // Expose the ranking to the thinking policy (a KB-sharpened
    // regeneration overwrites the first pass, like the reported count).
    if (context.signals != nullptr) {
        context.signals->solution_count = result.solutions.size();
        context.signals->initial_error_count = result.initial_error_count;
        context.signals->feature_key = result.feature_key;
    }
    return result;
}

}  // namespace rustbrain::core
