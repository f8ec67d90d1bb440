// repair_campaign: the paper's motivating workflow at project scale —
// sweep a whole corpus of UB-ridden modules, repair each with a registry-
// selected engine, and report a triage summary (what was fixed, how, and
// how long it took).
//
//   $ ./examples/repair_campaign                        # rustbrain, full corpus
//   $ ./examples/repair_campaign --engine fixed-pipeline
//   $ ./examples/repair_campaign --engine rustbrain --limit 3   # smoke slice
//   $ ./examples/repair_campaign --policy feedback-guided       # switch strategy
//   $ ./examples/repair_campaign --screen off           # no static pre-screen
//   $ ./examples/repair_campaign --interp vm            # bytecode-VM tier
//   $ ./examples/repair_campaign --corpus forged.rbc    # saved/generated corpus
//
// Two phases show the two execution shapes BatchRunner supports:
//   1. a focused sequential campaign over one category, where the shared
//      feedback store makes the third sibling cheaper than the first; then
//   2. a corpus-wide parallel campaign that shards cases across every
//      hardware thread (RUSTBRAIN_WORKERS overrides), warm-started from
//      the snapshot phase 1 learned — results are identical at any worker
//      count. With --limit N the sweep covers only the first N cases (the
//      CI smoke slice) and the focused phase is skipped.
#include <cstdio>
#include <exception>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>

#include "core/batch_runner.hpp"
#include "core/engine_registry.hpp"
#include "core/thinking_policy.hpp"
#include "dataset/corpus.hpp"
#include "gen/corpus_io.hpp"
#include "kb/seed.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"
#include "verify/oracle.hpp"

using namespace rustbrain;

namespace {

int usage(const char* argv0) {
    std::printf("usage: %s [--engine <id>] [--options k=v,...] [--limit N]\n"
                "          [--policy <id>[,k=v...]] [--screen on|off]\n"
                "          [--interp %s] [--corpus <file>]\n\n"
                "available engines:\n%s\navailable policies:\n%s",
                argv0, verify::interp_tier_names().c_str(),
                core::EngineRegistry::builtin().help().c_str(),
                core::PolicyRegistry::builtin().help().c_str());
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    std::string engine_id = "rustbrain";
    std::string option_spec;  // engines default to model=gpt-4, seed=42
    std::string policy_spec;  // empty = whatever --options says (or paper)
    std::string corpus_path;  // empty = the standard hand-written corpus
    std::string screen_spec;  // empty = honour RUSTBRAIN_SCREEN (default on)
    std::optional<verify::InterpTier> interp;  // empty = RUSTBRAIN_INTERP
    std::size_t limit = 0;  // 0 = whole corpus
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--engine" && i + 1 < argc) {
            engine_id = argv[++i];
        } else if (arg == "--options" && i + 1 < argc) {
            option_spec = argv[++i];
        } else if (arg == "--policy" && i + 1 < argc) {
            policy_spec = argv[++i];
        } else if (arg == "--screen" && i + 1 < argc) {
            screen_spec = argv[++i];
            if (screen_spec != "on" && screen_spec != "off") {
                return usage(argv[0]);
            }
        } else if (arg == "--interp" && i + 1 < argc) {
            const std::string spec = argv[++i];
            interp = verify::parse_interp_tier(spec);
            if (!interp) {
                std::printf("error: --interp expects one of %s, got '%s'\n\n",
                            verify::interp_tier_names().c_str(), spec.c_str());
                return usage(argv[0]);
            }
        } else if (arg == "--corpus" && i + 1 < argc) {
            corpus_path = argv[++i];
        } else if (arg == "--limit" && i + 1 < argc) {
            if (!support::parse_unsigned(argv[++i], limit)) {
                std::printf("error: --limit expects a number, got '%s'\n\n",
                            argv[i]);
                return usage(argv[0]);
            }
        } else {
            return usage(argv[0]);
        }
    }

    // A bad --corpus path or a malformed file prints a clear error, not a
    // stack trace.
    dataset::Corpus corpus;
    if (corpus_path.empty()) {
        corpus = dataset::Corpus::standard();
    } else {
        try {
            corpus = gen::load_corpus(corpus_path);
        } catch (const std::exception& error) {
            std::printf("error: %s\n", error.what());
            return 1;
        }
        std::printf("corpus: %zu cases from %s\n", corpus.size(),
                    corpus_path.c_str());
    }
    kb::KnowledgeBase kbase;
    const kb::SeedStats seeded = kb::seed_from_corpus(corpus, kbase);
    std::printf("knowledge base: %zu entries (%zu verified fixes)\n",
                seeded.entries_added, seeded.rules_verified);

    core::EngineBuildContext context;
    context.knowledge_base = &kbase;
    // One explicit oracle for the whole campaign so --screen can pin the
    // pre-screening tier either way (empty spec honours RUSTBRAIN_SCREEN);
    // the process-wide cache is still shared. Screening never changes
    // results, only the stats printed below.
    verify::OracleOptions oracle_options;
    if (!screen_spec.empty()) oracle_options.screening = screen_spec == "on";
    if (interp) oracle_options.interp = interp;
    const auto oracle =
        std::make_shared<verify::Oracle>(std::move(oracle_options));
    context.oracle = oracle;
    core::FeedbackStore feedback;

    // Validate the options and engine id up front so a typo prints the
    // table, not a stack trace.
    core::EngineOptions options;
    std::unique_ptr<core::RepairEngine> engine;
    try {
        options = core::EngineOptions::parse(option_spec);
        // A bad --policy id throws at build, listing the policy registry.
        if (!policy_spec.empty()) core::set_policy_option(options, policy_spec);
        core::EngineBuildContext focused_context = context;
        focused_context.feedback = &feedback;
        engine = core::EngineRegistry::builtin().build(engine_id, options,
                                                       focused_context);
    } catch (const std::invalid_argument& error) {
        std::printf("error: %s\n\n", error.what());
        return usage(argv[0]);
    }
    std::printf("engine: %s (%s)\n", engine->name().c_str(),
                engine->config_summary().c_str());
    std::printf("interpreter tier: %s\n\n",
                verify::to_string(oracle->interp_tier()));

    const std::vector<const dataset::UbCase*> focused =
        corpus.by_category(miri::UbCategory::DanglingPointer);
    if (limit == 0 && !focused.empty()) {
        // Campaign over one category to showcase self-learning: the third
        // sibling benefits from feedback recorded on the first two, so the
        // sweep is ordered (run_sequential), not parallel. Engines without
        // a feedback loop simply repair the siblings independently.
        std::printf("== focused campaign: danglingpointer ==\n");
        const core::BatchReport focused_report = core::BatchRunner::run_sequential(
            focused, [&](const dataset::UbCase& ub_case) {
                return engine->repair(ub_case);
            });
        for (std::size_t i = 0; i < focused.size(); ++i) {
            const core::CaseResult& result = focused_report.results[i];
            std::printf("  %-42s %s/%s  %5.1fs  rule=%s%s\n",
                        focused[i]->id.c_str(), result.pass ? "pass" : "FAIL",
                        result.exec ? "exec" : "div ", result.time_ms / 1000.0,
                        result.winning_rule.c_str(),
                        result.kb_skipped_by_feedback ? "  [feedback: skipped KB]"
                                                      : "");
        }
        std::printf("\n");
    }

    // Full campaign, sharded across the hardware. Each case starts from a
    // private copy of the feedback snapshot learned above (empty when the
    // focused phase was skipped), so the outcome does not depend on
    // scheduling or worker count.
    std::vector<const dataset::UbCase*> cases;
    for (const dataset::UbCase& ub_case : corpus.cases()) {
        if (limit != 0 && cases.size() >= limit) break;
        cases.push_back(&ub_case);
    }
    const std::size_t workers = support::ThreadPool::hardware_threads();
    std::printf("== full campaign (%zu modules, %zu workers) ==\n", cases.size(),
                workers);
    const core::BatchRunner runner(engine_id, options, context,
                                   core::BatchOptions{workers}, &feedback);
    const core::BatchReport report = runner.run(cases);

    std::map<std::string, int> by_rule;
    int kb_skips = 0;
    int escalations = 0;
    int early_stops = 0;
    int screens = 0;
    int screen_proven = 0;
    int screen_likely = 0;
    int screen_unknown = 0;
    for (const core::CaseResult& result : report.results) {
        kb_skips += result.kb_skipped_by_feedback;
        escalations += result.escalations;
        early_stops += result.early_stops;
        screens += result.screens;
        screen_proven += result.screen_proven_safe;
        screen_likely += result.screen_likely_ub;
        screen_unknown += result.screen_unknown;
        if (result.pass && !result.winning_rule.empty()) {
            ++by_rule[result.winning_rule];
        }
    }
    std::printf("repaired %d/%zu (%d semantically verified), %.1f virtual "
                "minutes total, %d KB lookups skipped by feedback, "
                "%.0f ms wall clock\n",
                report.pass_total(), cases.size(), report.exec_total(),
                report.virtual_ms_total() / 60000.0, kb_skips, report.wall_ms);
    std::printf("thinking policy: %d escalations, %d early stops\n",
                escalations, early_stops);
    std::printf("static pre-screen: %d verdicts (%d proven-safe, %d likely-ub, "
                "%d unknown)\n\n",
                screens, screen_proven, screen_likely, screen_unknown);

    support::TextTable table({"winning strategy", "repairs"});
    for (const auto& [rule, count] : by_rule) {
        table.add_row({rule, std::to_string(count)});
    }
    std::printf("%s", table.render().c_str());

    // Both campaign phases and the judge verified through the one campaign
    // oracle; its repeat runs over the same programs are where the
    // memoization pays.
    std::printf("\nverification oracle: %s\n", oracle->stats_summary().c_str());
    std::printf("static pre-screen: %s\n", oracle->screen_summary().c_str());
    return 0;
}
