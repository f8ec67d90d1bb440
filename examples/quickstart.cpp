// Quickstart: detect UB in a mini-Rust program with MiriLite, then repair
// it end to end with any registered engine.
//
//   $ ./examples/quickstart                       # rustbrain (default)
//   $ ./examples/quickstart --engine standalone
//   $ ./examples/quickstart --engine rustbrain --options model=gpt-3.5
//   $ ./examples/quickstart --policy budget,ms=1500
//   $ ./examples/quickstart --corpus forged.rbc --case gen/alloc/leak_s42_0000
//
// Walks through the exact pipeline of the paper's Fig. 2 on a classic
// use-after-free and prints every stage's result. Engines come from
// core::EngineRegistry and thinking policies from core::PolicyRegistry —
// a bad --engine or --policy id prints the matching table. With --corpus
// the case comes from a saved corpus file (gen::load_corpus) instead of
// the built-in example; --case picks an id from that file (default: its
// first case).
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>

#include "core/engine_registry.hpp"
#include "core/thinking_policy.hpp"
#include "dataset/case.hpp"
#include "gen/corpus_io.hpp"
#include "verify/oracle.hpp"

using namespace rustbrain;

namespace {

int usage(const char* argv0) {
    std::printf("usage: %s [--engine <id>] [--options k=v,k=v...]\n"
                "          [--policy <id>[,k=v...]]\n"
                "          [--corpus <file>] [--case <id>]\n\n"
                "available engines:\n%s\navailable policies:\n%s",
                argv0,
                core::EngineRegistry::builtin().help().c_str(),
                core::PolicyRegistry::builtin().help().c_str());
    return 2;
}

/// The built-in demo: a mini-Rust program with a seeded use-after-free (the
/// buffer is deallocated before the last read).
dataset::UbCase builtin_case() {
    dataset::UbCase ub_case;
    ub_case.id = "quickstart/use_after_free";
    ub_case.category = miri::UbCategory::DanglingPointer;
    ub_case.buggy_source = R"(fn main() {
    unsafe {
        let buf = alloc(8, 8);
        let slot = buf as *mut i64;
        *slot = 41;
        dealloc(buf, 8, 8);
        print_int(*slot + 1);
    }
}
)";
    // The reference fix defines the expected semantics ("print 42, then
    // free the buffer").
    ub_case.reference_fix = R"(fn main() {
    unsafe {
        let buf = alloc(8, 8);
        let slot = buf as *mut i64;
        *slot = 41;
        print_int(*slot + 1);
        dealloc(buf, 8, 8);
    }
}
)";
    ub_case.inputs = {{}};
    ub_case.difficulty = 1;
    return ub_case;
}

}  // namespace

int main(int argc, char** argv) {
    std::string engine_id = "rustbrain";
    std::string option_spec;  // engines default to model=gpt-4, seed=42
    std::string policy_spec;  // empty = whatever --options says (or paper)
    std::string corpus_path;
    std::string case_id;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--engine" && i + 1 < argc) {
            engine_id = argv[++i];
        } else if (arg == "--options" && i + 1 < argc) {
            option_spec = argv[++i];
        } else if (arg == "--policy" && i + 1 < argc) {
            policy_spec = argv[++i];
        } else if (arg == "--corpus" && i + 1 < argc) {
            corpus_path = argv[++i];
        } else if (arg == "--case" && i + 1 < argc) {
            case_id = argv[++i];
        } else {
            return usage(argv[0]);
        }
    }
    if (!case_id.empty() && corpus_path.empty()) {
        std::printf("error: --case requires --corpus\n\n");
        return usage(argv[0]);
    }

    dataset::UbCase ub_case;
    if (corpus_path.empty()) {
        ub_case = builtin_case();
    } else {
        // A bad path or malformed file must print a clear error, not a
        // stack trace.
        try {
            const dataset::Corpus corpus = gen::load_corpus(corpus_path);
            if (corpus.size() == 0) {
                std::printf("error: corpus %s contains no cases\n",
                            corpus_path.c_str());
                return 1;
            }
            const dataset::UbCase* chosen =
                case_id.empty() ? &corpus.cases().front()
                                : corpus.find(case_id);
            if (chosen == nullptr) {
                std::printf("error: corpus %s has no case '%s'\n",
                            corpus_path.c_str(), case_id.c_str());
                return 1;
            }
            ub_case = *chosen;
        } catch (const std::exception& error) {
            std::printf("error: %s\n", error.what());
            return 1;
        }
        std::printf("loaded case %s from %s\n\n", ub_case.id.c_str(),
                    corpus_path.c_str());
    }

    // Stage F1: run the Miri-style detector through the verification
    // oracle (the single entry point the whole repair stack shares — the
    // engine's own verifications below reuse this compile).
    std::printf("=== MiriLite detection ===\n");
    // An explicit oracle, built here so a typo'd env knob is reported
    // cleanly; the process-wide cache is still shared.
    std::shared_ptr<verify::Oracle> shared_oracle;
    try {
        shared_oracle = std::make_shared<verify::Oracle>();
    } catch (const std::invalid_argument& error) {
        // A typo'd RUSTBRAIN_* knob names the variable and its values.
        std::printf("error: %s\n", error.what());
        return 2;
    }
    const verify::Oracle& oracle = *shared_oracle;
    const miri::MiriReport report =
        oracle.test_source(ub_case.buggy_source, ub_case.inputs);
    std::printf("%s\n", report.summary().c_str());

    // Build the selected engine from the registry (no knowledge base is
    // needed for a routine shape like this) and repair.
    core::FeedbackStore feedback;
    core::EngineBuildContext context;
    context.feedback = &feedback;
    context.oracle = shared_oracle;
    std::unique_ptr<core::RepairEngine> engine;
    try {
        core::EngineOptions options = core::EngineOptions::parse(option_spec);
        // A bad --policy id throws at build, listing the policy registry.
        if (!policy_spec.empty()) core::set_policy_option(options, policy_spec);
        engine = core::EngineRegistry::builtin().build(engine_id, options,
                                                       context);
    } catch (const std::invalid_argument& error) {
        std::printf("error: %s\n\n", error.what());
        return usage(argv[0]);
    }

    std::printf("=== %s repair (%s) ===\n", engine->name().c_str(),
                engine->config_summary().c_str());
    const core::CaseResult result = engine->repair(ub_case);

    std::printf("pass (Miri clean): %s\n", result.pass ? "yes" : "no");
    std::printf("exec (semantics match): %s\n", result.exec ? "yes" : "no");
    std::printf("winning strategy: %s\n", result.winning_rule.c_str());
    std::printf("virtual repair time: %.1fs over %llu model calls\n",
                result.time_ms / 1000.0,
                static_cast<unsigned long long>(result.llm_calls));
    std::printf("thinking switches: %d (%d escalations, %d early stops, "
                "%d skipped attempts)\n",
                result.thinking_switches, result.escalations,
                result.early_stops, result.attempts_skipped);
    std::printf("error trajectory:");
    for (std::size_t n : result.error_trajectory) {
        std::printf(" %zu", n);
    }
    std::printf("\n\n=== repaired program ===\n%s", result.final_source.c_str());

    // Confirm the repair independently.
    const miri::MiriReport verdict =
        oracle.test_source(result.final_source, ub_case.inputs);
    std::printf("\nindependent MiriLite verdict: %s\n",
                verdict.passed() ? "pass" : verdict.summary().c_str());

    std::printf("verification oracle: %s\n", oracle.stats_summary().c_str());
    return result.pass ? 0 : 1;
}
