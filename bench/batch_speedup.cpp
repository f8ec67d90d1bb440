// Engineering bench (not a paper figure): BatchRunner wall-clock scaling
// and CachingBackend memoization, measured at corpus-forge scale.
//
// The hand-written corpus (126 cases) is too small to say anything about
// batching, so this bench sweeps a procedurally generated corpus of >= 500
// cases — forged in-process at a fixed seed by default, or loaded from a
// file saved by examples/corpus_forge:
//
//   $ ./bench/batch_speedup                      # forge 560 cases at seed 42
//   $ ./bench/batch_speedup --count 1000         # bigger in-process forge
//   $ ./bench/batch_speedup --corpus forged.rbc  # saved corpus
//
// The flagship configuration runs at 1, 2, 4, 8 workers — every engine
// built from the registry over a knowledge base seeded from the SAME
// generated corpus, every cached run sharing one PromptCache AND one
// verify::Oracle — and reports wall time, speedup vs serial, the LLM and
// verify cache hit rates each run observed, and a cross-check that every
// run (cached or not, at any worker count) is bit-identical to the fully
// uncached serial baseline: the determinism contract that makes worker
// count and both caches pure performance knobs.
#include <cstdio>
#include <cmath>
#include <exception>
#include <string>

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
    std::printf("usage: %s [--corpus <file>] [--count N]\n", argv0);
    return 2;
}

/// "proven/likely/unknown" verdict-mix cell.
std::string screen_cell(std::uint64_t proven, std::uint64_t likely,
                        std::uint64_t unknown) {
    return std::to_string(proven) + "/" + std::to_string(likely) + "/" +
           std::to_string(unknown);
}

// Compares every behavior field; the screen_* counters are deliberately
// excluded — they are pure observability and legitimately differ
// screen-on vs screen-off.
bool identical(const core::BatchReport& a, const core::BatchReport& b) {
    if (a.results.size() != b.results.size()) return false;
    for (std::size_t i = 0; i < a.results.size(); ++i) {
        const core::CaseResult& x = a.results[i];
        const core::CaseResult& y = b.results[i];
        if (x.case_id != y.case_id || x.pass != y.pass || x.exec != y.exec ||
            x.time_ms != y.time_ms || x.final_source != y.final_source ||
            x.winning_rule != y.winning_rule || x.llm_calls != y.llm_calls ||
            x.solutions_generated != y.solutions_generated ||
            x.steps_executed != y.steps_executed ||
            x.rollbacks != y.rollbacks || x.kb_consulted != y.kb_consulted ||
            x.kb_skipped_by_feedback != y.kb_skipped_by_feedback ||
            x.thinking_switches != y.thinking_switches ||
            x.escalations != y.escalations || x.early_stops != y.early_stops ||
            x.attempts_skipped != y.attempts_skipped ||
            x.error_trajectory != y.error_trajectory ||
            x.time_breakdown != y.time_breakdown) {
            return false;
        }
    }
    return a.clock.now_ms() == b.clock.now_ms() &&
           a.clock.breakdown() == b.clock.breakdown();
}

}  // namespace

int main(int argc, char** argv) {
    std::string corpus_path;
    std::size_t count = 560;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--corpus" && i + 1 < argc) {
            corpus_path = argv[++i];
        } else if (arg == "--count" && i + 1 < argc) {
            if (!support::parse_unsigned(argv[++i], count) || count == 0) {
                std::printf("error: --count expects a positive number, "
                            "got '%s'\n\n",
                            argv[i]);
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

    // The knowledge base is seeded from the generated corpus itself —
    // seeding takes an arbitrary corpus, not just the standard one.
    kb::KnowledgeBase kbase;
    kb::seed_from_corpus(big_corpus, kbase);
    core::EngineBuildContext context;
    context.knowledge_base = &kbase;

    const std::string engine_id = "rustbrain";
    const core::EngineOptions options = core::EngineOptions::parse("model=gpt-4");

    // Fully uncached serial baseline: no prompt cache, and a verify::Oracle
    // that recomputes every compile and every interpretation — the
    // reference every other run must match bit-for-bit.
    core::EngineBuildContext uncached_context = context;
    {
        verify::OracleOptions oracle_options;
        oracle_options.caching = false;
        uncached_context.oracle =
            std::make_shared<verify::Oracle>(std::move(oracle_options));
    }

    std::printf("== BatchRunner scaling: %zu-case sweep, gpt-4 + knowledge "
                "base ==\n",
                big_corpus.size());
    // Which interpreter executes uncached verifications (RUSTBRAIN_INTERP
    // selects it; every run below uses the same tier, so the speedups stay
    // comparable).
    std::printf("hardware threads: %zu, interpreter tier: %s\n\n",
                support::ThreadPool::hardware_threads(),
                verify::to_string(uncached_context.oracle->interp_tier()));
    const core::BatchRunner serial_runner(engine_id, options, uncached_context,
                                          core::BatchOptions{1});
    const core::BatchReport serial = serial_runner.run(big_corpus);
    std::printf("%zu cases, %d pass / %d exec, %.1f virtual minutes\n\n",
                serial.results.size(), serial.pass_total(), serial.exec_total(),
                serial.virtual_ms_total() / 60000.0);

    // Every subsequent run shares one prompt cache and one verification
    // oracle: the first run fills them, repeat configurations answer from
    // them.
    const auto cache = std::make_shared<llm::PromptCache>();
    core::EngineBuildContext cached_context = context;
    cached_context.backend_factory = llm::caching_backend_factory(cache);
    verify::OracleOptions oracle_options;
    oracle_options.cache = std::make_shared<verify::VerifyCache>();
    oracle_options.caching = true;
    cached_context.oracle =
        std::make_shared<verify::Oracle>(std::move(oracle_options));

    support::TextTable table({"workers", "wall (ms)", "speedup", "llm hits",
                              "verify hits", "screen p/l/u",
                              "bit-identical to serial"});
    table.add_row({"1 (no cache)", support::format_double(serial.wall_ms, 0),
                   "1.00x", "-", "-", "-", "-"});
    llm::PromptCacheStats llm_before = cache->stats();
    verify::VerifyCacheStats verify_before = cached_context.oracle->stats();
    verify::ScreenStats screen_before = cached_context.oracle->screen_stats();
    verify::VerifyCacheStats last_delta;
    core::BatchReport last_report;
    std::size_t last_workers = 0;
    for (std::size_t workers : {1UL, 2UL, 4UL, 8UL}) {
        core::BatchRunner runner(engine_id, options, cached_context,
                                 core::BatchOptions{workers});
        const core::BatchReport report = runner.run(big_corpus);
        const llm::PromptCacheStats llm_after = cache->stats();
        const std::uint64_t llm_hits = llm_after.hits - llm_before.hits;
        const std::uint64_t llm_calls = (llm_after.hits + llm_after.misses) -
                                        (llm_before.hits + llm_before.misses);
        llm_before = llm_after;
        const verify::VerifyCacheStats verify_after =
            cached_context.oracle->stats();
        last_delta = verify_delta(verify_before, verify_after);
        verify_before = verify_after;
        const verify::ScreenStats screen_after =
            cached_context.oracle->screen_stats();
        table.add_row(
            {std::to_string(workers),
             support::format_double(report.wall_ms, 0),
             support::format_double(serial.wall_ms / report.wall_ms, 2) + "x",
             hit_rate_cell(llm_hits, llm_calls),
             hit_rate_cell(last_delta.report_hits,
                           last_delta.report_hits + last_delta.report_misses),
             screen_cell(screen_after.proven_safe - screen_before.proven_safe,
                         screen_after.likely_ub - screen_before.likely_ub,
                         screen_after.unknown - screen_before.unknown),
             identical(serial, report) ? "yes" : "NO (BUG)"});
        screen_before = screen_after;
        last_report = report;
        last_workers = workers;
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("aggregate virtual-time breakdown of the last run "
                "(%zu workers):\n%s\n",
                last_workers, time_breakdown_table(last_report, &last_delta).c_str());

    // Per-policy aggregate: the same corpus under every registered thinking
    // policy (all runs share the caches above). The switch tallies come
    // from the ThinkingSwitch trace events each CaseResult surfaces;
    // bench/policy_ablation is the dedicated (feedback-warmed) study.
    support::TextTable policy_table({"policy", "pass", "exec", "virtual min",
                                     "switches", "escal", "stops", "skips",
                                     "screen p/l/u"});
    for (const std::string& policy_id :
         core::PolicyRegistry::builtin().ids()) {
        // Same engine configuration as the scaling rows, policy swapped in.
        core::EngineOptions policy_options = options;
        core::set_policy_option(policy_options, policy_id);
        const core::BatchRunner runner(engine_id, policy_options,
                                       cached_context, core::BatchOptions{});
        const core::BatchReport report = runner.run(big_corpus);
        int switches = 0;
        int escalations = 0;
        int early_stops = 0;
        int skips = 0;
        std::uint64_t proven = 0;
        std::uint64_t likely = 0;
        std::uint64_t unknown = 0;
        for (const core::CaseResult& result : report.results) {
            switches += result.thinking_switches;
            escalations += result.escalations;
            early_stops += result.early_stops;
            skips += result.attempts_skipped;
            proven += static_cast<std::uint64_t>(result.screen_proven_safe);
            likely += static_cast<std::uint64_t>(result.screen_likely_ub);
            unknown += static_cast<std::uint64_t>(result.screen_unknown);
        }
        policy_table.add_row(
            {policy_id, std::to_string(report.pass_total()),
             std::to_string(report.exec_total()),
             support::format_double(report.virtual_ms_total() / 60000.0, 1),
             std::to_string(switches), std::to_string(escalations),
             std::to_string(early_stops), std::to_string(skips),
             screen_cell(proven, likely, unknown)});
    }
    std::printf("aggregate per thinking policy (same corpus, shared "
                "caches):\n%s\n",
                policy_table.render().c_str());
    const llm::PromptCacheStats final_stats = cache->stats();
    std::printf("prompt cache: %zu entries, %llu hits / %llu misses "
                "(%.1f%% overall), %llu evictions\n",
                final_stats.entries,
                static_cast<unsigned long long>(final_stats.hits),
                static_cast<unsigned long long>(final_stats.misses),
                100.0 * final_stats.hit_rate(),
                static_cast<unsigned long long>(final_stats.evictions));
    const verify::VerifyCacheStats verify_total =
        cached_context.oracle->stats();
    std::printf("verify cache: %zu compiled programs, %zu memoized reports, "
                "%llu report hits / %llu misses (%.1f%% overall), "
                "%llu program / %llu report evictions\n",
                verify_total.programs, verify_total.reports,
                static_cast<unsigned long long>(verify_total.report_hits),
                static_cast<unsigned long long>(verify_total.report_misses),
                100.0 * verify_total.report_hit_rate(),
                static_cast<unsigned long long>(verify_total.program_evictions),
                static_cast<unsigned long long>(verify_total.report_evictions));
    std::printf("static pre-screen: %s\n",
                cached_context.oracle->screen_summary().c_str());
    std::printf("note: speedup saturates at the machine's physical core "
                "count; after the first cached run the sweep answers almost "
                "entirely from both caches, and results are identical at any "
                "worker count, cached or not.\n");
    return 0;
}
