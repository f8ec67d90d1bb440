// corpus_forge: the Corpus Forge CLI — procedurally generate a validated UB
// corpus at a fixed seed, report what was built, and optionally persist it.
//
//   $ ./examples/corpus_forge --seed 42 --count 200
//   $ ./examples/corpus_forge --count 64 --generators panic,datarace --out c.rbc
//   $ ./examples/corpus_forge --count 32 --gen-options depth=4,padding=5 --sweep
//
// Every emitted case is rejection-sampled until it parses, typechecks,
// fails MiriLite with its declared category, and its reference fix passes —
// then the whole corpus is re-validated through dataset::validate_corpus as
// an independent check. Same seed + options => byte-identical output (the
// printed fingerprint makes that visible; --out makes it a file you can
// cmp). With --out the saved file is immediately re-loaded and compared
// byte-for-byte against the in-memory serialization. With --sweep the
// forged corpus is run end to end through core::BatchRunner under every
// engine in core::EngineRegistry.
#include <cstdio>
#include <exception>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/batch_runner.hpp"
#include "core/engine_registry.hpp"
#include "gen/corpus_io.hpp"
#include "gen/forge.hpp"
#include "gen/registry.hpp"
#include "kb/seed.hpp"
#include "support/hashing.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"

using namespace rustbrain;

namespace {

int usage(const char* argv0) {
    std::printf(
        "usage: %s [--seed S] [--count N] [--generators id,id,...]\n"
        "          [--gen-options k=v,...] [--out FILE] [--sweep]\n\n"
        "available generators:\n%s\n"
        "generator options: depth (max block nesting), padding (max dead-code\n"
        "statements), helpers (on/off — never-called helper functions)\n",
        argv0, gen::GeneratorRegistry::builtin().help().c_str());
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    gen::ForgeOptions options;
    options.count = 100;
    std::string out_path;
    std::string option_spec;
    bool sweep = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--seed" && i + 1 < argc) {
            if (!support::parse_unsigned(argv[++i], options.seed)) {
                std::printf("error: --seed expects a number, got '%s'\n\n",
                            argv[i]);
                return usage(argv[0]);
            }
        } else if (arg == "--count" && i + 1 < argc) {
            if (!support::parse_unsigned(argv[++i], options.count)) {
                std::printf("error: --count expects a number, got '%s'\n\n",
                            argv[i]);
                return usage(argv[0]);
            }
        } else if (arg == "--generators" && i + 1 < argc) {
            options.generators = support::split(argv[++i], ',');
        } else if (arg == "--gen-options" && i + 1 < argc) {
            option_spec = argv[++i];
        } else if (arg == "--out" && i + 1 < argc) {
            out_path = argv[++i];
        } else if (arg == "--sweep") {
            sweep = true;
        } else {
            return usage(argv[0]);
        }
    }

    // Forge. Bad generator ids/options print the table, not a stack trace.
    gen::ForgeStats stats;
    dataset::Corpus corpus;
    try {
        options.generator_options = support::OptionMap::parse(option_spec);
        corpus = gen::forge_corpus(options, &stats);
    } catch (const std::invalid_argument& error) {
        std::printf("error: %s\n\n", error.what());
        return usage(argv[0]);
    } catch (const std::exception& error) {
        std::printf("error: %s\n", error.what());
        return 1;
    }

    std::printf("forged %zu cases at seed %llu (%zu attempts: %zu rejected by "
                "parse, %zu by typecheck, %zu by validation)\n",
                corpus.size(),
                static_cast<unsigned long long>(options.seed), stats.attempts,
                stats.rejected_parse, stats.rejected_typecheck,
                stats.rejected_validation);

    // Independent full-corpus validation (the same bar the standard corpus
    // is held to by the integration tests).
    const std::vector<dataset::CaseValidation> validations =
        dataset::validate_corpus(corpus);
    std::size_t ok = 0;
    for (const dataset::CaseValidation& v : validations) {
        if (v.ok()) {
            ++ok;
        } else {
            std::printf("INVALID %s: %s\n", v.id.c_str(), v.detail.c_str());
        }
    }
    std::printf("validate_corpus: %zu/%zu ok\n", ok, validations.size());

    // Category table.
    std::map<miri::UbCategory, std::size_t> counts;
    std::map<miri::UbCategory, int> difficulty_sum;
    for (const dataset::UbCase& c : corpus.cases()) {
        ++counts[c.category];
        difficulty_sum[c.category] += c.difficulty;
    }
    support::TextTable table({"category", "cases", "avg difficulty"});
    for (miri::UbCategory category : corpus.categories()) {
        const std::size_t n = counts[category];
        table.add_row({miri::ub_category_label(category), std::to_string(n),
                       support::format_double(
                           n == 0 ? 0.0
                                  : static_cast<double>(difficulty_sum[category]) /
                                        static_cast<double>(n),
                           2)});
    }
    std::printf("%s", table.render().c_str());

    const std::string serialized = gen::corpus_to_string(corpus);
    std::printf("corpus fingerprint: %016llx (%zu bytes serialized)\n",
                static_cast<unsigned long long>(support::fnv1a64(serialized)),
                serialized.size());

    if (!out_path.empty()) {
        try {
            gen::save_corpus(corpus, out_path);
            const dataset::Corpus reloaded = gen::load_corpus(out_path);
            if (gen::corpus_to_string(reloaded) != serialized) {
                std::printf("BUG: reloaded corpus differs from the saved "
                            "one\n");
                return 1;
            }
            std::printf("saved %zu cases to %s (reload verified "
                        "byte-identical)\n",
                        reloaded.size(), out_path.c_str());
        } catch (const std::exception& error) {
            std::printf("error: %s\n", error.what());
            return 1;
        }
    }

    if (sweep) {
        // The forged corpus must be a drop-in workload for the whole engine
        // stack: knowledge base seeding + a BatchRunner sweep per engine.
        kb::KnowledgeBase kbase;
        const kb::SeedStats seeded = kb::seed_from_corpus(corpus, kbase);
        std::printf("\nknowledge base from forged corpus: %zu entries "
                    "(%zu verified fixes)\n",
                    seeded.entries_added, seeded.rules_verified);
        core::EngineBuildContext context;
        context.knowledge_base = &kbase;
        support::TextTable sweep_table(
            {"engine", "pass", "exec", "virtual minutes"});
        for (const std::string& id : core::EngineRegistry::builtin().ids()) {
            const core::BatchRunner runner(id, core::EngineOptions{}, context);
            const core::BatchReport report = runner.run(corpus);
            sweep_table.add_row(
                {id,
                 std::to_string(report.pass_total()) + "/" +
                     std::to_string(corpus.size()),
                 std::to_string(report.exec_total()),
                 support::format_double(report.virtual_ms_total() / 60000.0,
                                        1)});
        }
        std::printf("%s", sweep_table.render().c_str());
    }

    return ok == validations.size() ? 0 : 1;
}
