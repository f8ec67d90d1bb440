// Policy ablation (not a paper figure): every registered thinking policy
// swept over one forged corpus, so the fast↔slow switch strategies can be
// compared on the (accuracy, acceptability, overhead) triplet the paper
// evaluates solutions on.
//
//   $ ./bench/policy_ablation                      # forge 560 cases at seed 42
//   $ ./bench/policy_ablation --count 160 --limit 40   # CI smoke slice
//   $ ./bench/policy_ablation --corpus forged.rbc  # saved corpus
//   $ ./bench/policy_ablation --engine standalone  # gate a baseline instead
//
// Two phases:
//   1. a sequential warm-up campaign under the default `paper` policy
//      accumulates a FeedbackStore over the slice — the confidence signal
//      the feedback-guided policy thresholds on (without it, every policy
//      that keys off feedback degenerates to `paper`);
//   2. per policy, a parallel sweep warm-started from that snapshot (each
//      case gets a private copy, so results are worker-count-invariant),
//      all policies sharing one prompt cache and one verification oracle.
//
// Columns: pass/exec rates, total + per-case virtual overhead, LLM calls,
// and the ThinkingSwitch tallies (escalations / early stops / skips /
// fast-only shortcuts). `paper` is the reference row — bit-identical to
// the pre-policy orchestrator by the registry's default contract.
#include <cstdio>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/batch_runner.hpp"
#include "core/thinking_policy.hpp"
#include "gen/corpus_io.hpp"
#include "gen/forge.hpp"
#include "llm/caching_backend.hpp"
#include "support/strings.hpp"
#include "support/thread_pool.hpp"

using namespace rustbrain;
using namespace rustbrain::bench;

namespace {

int usage(const char* argv0) {
    std::printf("usage: %s [--count N] [--limit N] [--corpus <file>] "
                "[--engine <id>]\n\navailable policies:\n%s",
                argv0, core::PolicyRegistry::builtin().help().c_str());
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    std::string corpus_path;
    std::string engine_id = "rustbrain";
    std::size_t count = 560;
    std::size_t limit = 0;  // 0 = whole corpus
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--corpus" && i + 1 < argc) {
            corpus_path = argv[++i];
        } else if (arg == "--engine" && i + 1 < argc) {
            engine_id = argv[++i];
        } else if (arg == "--count" && i + 1 < argc) {
            if (!support::parse_unsigned(argv[++i], count) || count == 0) {
                std::printf("error: --count expects a positive number\n\n");
                return usage(argv[0]);
            }
        } else if (arg == "--limit" && i + 1 < argc) {
            if (!support::parse_unsigned(argv[++i], limit)) {
                std::printf("error: --limit expects a number\n\n");
                return usage(argv[0]);
            }
        } else {
            return usage(argv[0]);
        }
    }

    dataset::Corpus big_corpus;
    try {
        if (corpus_path.empty()) {
            gen::ForgeOptions forge_options;
            forge_options.seed = 42;
            forge_options.count = count;
            big_corpus = gen::forge_corpus(forge_options);
            std::printf("forged %zu cases in-process at seed 42\n",
                        big_corpus.size());
        } else {
            big_corpus = gen::load_corpus(corpus_path);
            std::printf("loaded %zu cases from %s\n", big_corpus.size(),
                        corpus_path.c_str());
        }
    } catch (const std::exception& error) {
        std::printf("error: %s\n", error.what());
        return 1;
    }

    std::vector<const dataset::UbCase*> cases;
    for (const dataset::UbCase& ub_case : big_corpus.cases()) {
        if (limit != 0 && cases.size() >= limit) break;
        cases.push_back(&ub_case);
    }

    kb::KnowledgeBase kbase;
    kb::seed_from_corpus(big_corpus, kbase);
    core::EngineBuildContext context;
    context.knowledge_base = &kbase;
    // One prompt cache + one verification oracle shared by every policy
    // sweep: the policies differ in *which* work they do, not in what any
    // repeated piece of work answers.
    context.backend_factory =
        llm::caching_backend_factory(std::make_shared<llm::PromptCache>());
    {
        verify::OracleOptions oracle_options;
        oracle_options.cache = std::make_shared<verify::VerifyCache>();
        oracle_options.caching = true;
        context.oracle =
            std::make_shared<verify::Oracle>(std::move(oracle_options));
    }

    // Fail fast on a bad engine id before the warm-up runs.
    try {
        (void)core::EngineRegistry::builtin().build(engine_id, {}, context);
    } catch (const std::invalid_argument& error) {
        std::printf("error: %s\n\n", error.what());
        return usage(argv[0]);
    }

    std::printf("== policy ablation: %zu-case sweep, engine %s ==\n\n",
                cases.size(), engine_id.c_str());

    // Phase 1: sequential paper-policy campaign to learn feedback (the
    // signal feedback-guided thresholds on).
    core::FeedbackStore warm;
    {
        core::EngineBuildContext warm_context = context;
        warm_context.feedback = &warm;
        const auto engine =
            core::EngineRegistry::builtin().build(engine_id, {}, warm_context);
        (void)core::BatchRunner::run_sequential(
            cases, [&](const dataset::UbCase& ub_case) {
                return engine->repair(ub_case);
            });
    }
    std::printf("feedback warm-up: %zu feature keys, %llu records\n\n",
                warm.key_count(),
                static_cast<unsigned long long>(warm.records()));

    // Phase 2: one warm-started parallel sweep per registered policy.
    // "screen p/l/u" is the proven-safe / likely-ub / unknown verdict mix
    // the pre-screener handed the cases of that sweep (what the `screened`
    // policy keys on).
    support::TextTable table({"policy", "pass", "exec", "virtual min",
                              "s/case", "llm calls", "escal", "stops", "skips",
                              "fast-only", "screen p/l/u"});
    const std::size_t workers = support::ThreadPool::hardware_threads();
    for (const std::string& policy_id :
         core::PolicyRegistry::builtin().ids()) {
        core::EngineOptions options;
        core::set_policy_option(options, policy_id);
        const core::BatchRunner runner(engine_id, options, context,
                                       core::BatchOptions{workers}, &warm);
        const core::BatchReport report = runner.run(cases);

        std::uint64_t llm_calls = 0;
        int escalations = 0;
        int early_stops = 0;
        int skips = 0;
        int fast_only = 0;
        int screen_proven = 0;
        int screen_likely = 0;
        int screen_unknown = 0;
        for (const core::CaseResult& result : report.results) {
            llm_calls += result.llm_calls;
            escalations += result.escalations;
            early_stops += result.early_stops;
            skips += result.attempts_skipped;
            // A case that switched but never escalated ran on intuition.
            fast_only += result.thinking_switches > 0 && result.escalations == 0;
            screen_proven += result.screen_proven_safe;
            screen_likely += result.screen_likely_ub;
            screen_unknown += result.screen_unknown;
        }
        table.add_row(
            {policy_id, pct(100.0 * report.pass_total() / cases.size()) + "%",
             pct(100.0 * report.exec_total() / cases.size()) + "%",
             support::format_double(report.virtual_ms_total() / 60000.0, 1),
             support::format_double(report.virtual_ms_total() / 1000.0 /
                                        static_cast<double>(cases.size()),
                                    2),
             std::to_string(llm_calls), std::to_string(escalations),
             std::to_string(early_stops), std::to_string(skips),
             std::to_string(fast_only),
             std::to_string(screen_proven) + "/" +
                 std::to_string(screen_likely) + "/" +
                 std::to_string(screen_unknown)});
    }
    std::printf("%s\n", table.render().c_str());
    std::printf(
        "note: `paper` is the fixed switch the paper describes (and the "
        "bit-identity reference); feedback-guided trades escalations for "
        "fast-only shortcuts on confident shapes, screened keys the switch "
        "off the static pre-screener's verdict, budget cuts long "
        "refinement tails, fast-only/slow-all bracket the trade-off space.\n");
    std::printf("static pre-screen (all sweeps): %s\n",
                context.oracle->screen_summary().c_str());
    return 0;
}
