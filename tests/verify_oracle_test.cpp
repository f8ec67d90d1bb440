// verify::Oracle — compile-once, memoized verification.
//
// The load-bearing contract is bit-identity: with the cache on or off, at
// any worker count, every consumer (engine sweeps, the semantic judge, the
// forge) produces byte-identical results; the cache only changes how fast
// the answer arrives. Plus: the semantic judge interprets a case's
// reference fix exactly once per process (counted through a counting
// oracle double), front-end failures match MiriLite verbatim, the stats
// counters behave, and a typo'd RUSTBRAIN_* knob fails construction.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/batch_runner.hpp"
#include "core/engine_registry.hpp"
#include "dataset/corpus.hpp"
#include "dataset/semantic.hpp"
#include "gen/corpus_io.hpp"
#include "gen/forge.hpp"
#include "kb/seed.hpp"
#include "miri/mirilite.hpp"
#include "support/hashing.hpp"
#include "verify/oracle.hpp"

namespace rustbrain::verify {
namespace {

using Inputs = std::vector<std::vector<std::int64_t>>;

/// Oracle with a private store, cache on.
std::shared_ptr<Oracle> cached_oracle() {
    OracleOptions options;
    options.cache = std::make_shared<VerifyCache>();
    options.caching = true;
    return std::make_shared<Oracle>(std::move(options));
}

/// Oracle that recomputes everything (the escape-hatch behavior). Its
/// store is private too, so the counters it reports are its own and never
/// those the process-wide store collected from earlier tests.
std::shared_ptr<Oracle> uncached_oracle() {
    OracleOptions options;
    options.cache = std::make_shared<VerifyCache>();
    options.caching = false;
    return std::make_shared<Oracle>(std::move(options));
}

void expect_identical(const core::BatchReport& a, const core::BatchReport& b) {
    ASSERT_EQ(a.results.size(), b.results.size());
    for (std::size_t i = 0; i < a.results.size(); ++i) {
        const core::CaseResult& x = a.results[i];
        const core::CaseResult& y = b.results[i];
        EXPECT_EQ(x.case_id, y.case_id);
        EXPECT_EQ(x.pass, y.pass) << x.case_id;
        EXPECT_EQ(x.exec, y.exec) << x.case_id;
        EXPECT_EQ(x.time_ms, y.time_ms) << x.case_id;
        EXPECT_EQ(x.time_breakdown, y.time_breakdown) << x.case_id;
        EXPECT_EQ(x.final_source, y.final_source) << x.case_id;
        EXPECT_EQ(x.winning_rule, y.winning_rule) << x.case_id;
        EXPECT_EQ(x.llm_calls, y.llm_calls) << x.case_id;
        EXPECT_EQ(x.solutions_generated, y.solutions_generated) << x.case_id;
        EXPECT_EQ(x.steps_executed, y.steps_executed) << x.case_id;
        EXPECT_EQ(x.rollbacks, y.rollbacks) << x.case_id;
        EXPECT_EQ(x.thinking_switches, y.thinking_switches) << x.case_id;
        EXPECT_EQ(x.escalations, y.escalations) << x.case_id;
        EXPECT_EQ(x.early_stops, y.early_stops) << x.case_id;
        EXPECT_EQ(x.attempts_skipped, y.attempts_skipped) << x.case_id;
        EXPECT_EQ(x.error_trajectory, y.error_trajectory) << x.case_id;
    }
    EXPECT_EQ(a.clock.now_ms(), b.clock.now_ms());
    EXPECT_EQ(a.clock.breakdown(), b.clock.breakdown());
}

// --- bit-identity across the stack -----------------------------------------

TEST(VerifyOracleTest, EveryRegistryEngineSweepsBitIdenticallyCachedOrNot) {
    const dataset::Corpus& corpus = []() -> const dataset::Corpus& {
        static const dataset::Corpus c = dataset::Corpus::standard();
        return c;
    }();
    kb::KnowledgeBase kbase;
    kb::seed_from_corpus(corpus, kbase);

    for (const std::string& engine_id : core::EngineRegistry::builtin().ids()) {
        SCOPED_TRACE(engine_id);
        core::EngineBuildContext uncached_context;
        uncached_context.knowledge_base = &kbase;
        uncached_context.oracle = uncached_oracle();
        core::EngineBuildContext cached_context = uncached_context;
        cached_context.oracle = cached_oracle();

        const core::BatchRunner uncached(engine_id, {}, uncached_context,
                                         core::BatchOptions{1});
        const core::BatchRunner cached(engine_id, {}, cached_context,
                                       core::BatchOptions{1});
        expect_identical(uncached.run(corpus), cached.run(corpus));
    }
}

TEST(VerifyOracleTest, ParallelSweepSharesOneOracleAndMatchesSerial) {
    const dataset::Corpus corpus = dataset::Corpus::standard();

    core::EngineBuildContext serial_context;
    serial_context.oracle = uncached_oracle();
    const core::BatchRunner serial("rustbrain", {}, serial_context,
                                   core::BatchOptions{1});

    // One cached oracle shared by all four workers.
    core::EngineBuildContext parallel_context;
    parallel_context.oracle = cached_oracle();
    const core::BatchRunner parallel("rustbrain", {}, parallel_context,
                                     core::BatchOptions{4});

    expect_identical(serial.run(corpus), parallel.run(corpus));
    const VerifyCacheStats stats = parallel_context.oracle->stats();
    EXPECT_GT(stats.report_hits + stats.report_misses, 0u);
}

TEST(VerifyOracleTest, ForgedCorpusIsByteIdenticalCachedOrNot) {
    gen::ForgeOptions options;
    options.seed = 9;
    options.count = 32;

    const auto cached = cached_oracle();
    options.oracle = cached.get();
    const std::string with_cache = gen::corpus_to_string(gen::forge_corpus(options));

    const auto uncached = uncached_oracle();
    options.oracle = uncached.get();
    const std::string without_cache =
        gen::corpus_to_string(gen::forge_corpus(options));

    EXPECT_EQ(with_cache, without_cache);
    // The forge's rejection sampler actually exercised the cache: the
    // front-end compile is shared with validate_case's two runs.
    EXPECT_GT(cached->stats().program_hits, 0u);
    EXPECT_EQ(uncached->stats().program_hits + uncached->stats().report_hits, 0u);
}

// --- semantic judge: reference fix interpreted once -------------------------

class CountingOracle final : public Oracle {
  public:
    explicit CountingOracle(OracleOptions options)
        : Oracle(std::move(options)) {}

    mutable std::map<std::uint64_t, int> interpretations;

  protected:
    miri::MiriReport interpret(const CompiledProgram& compiled,
                               const Inputs& input_sets) const override {
        ++interpretations[compiled.fingerprint];
        return Oracle::interpret(compiled, input_sets);
    }
};

TEST(VerifyOracleTest, JudgeInterpretsTheReferenceFixOncePerCase) {
    dataset::UbCase ub_case;
    ub_case.id = "oracle/ref_memo";
    ub_case.category = miri::UbCategory::Panic;
    ub_case.inputs = {{}};
    ub_case.reference_fix = "fn main() {\n    print_int(42);\n}\n";

    OracleOptions options;
    options.cache = std::make_shared<VerifyCache>();
    options.caching = true;
    // Screening off: this test counts interpret() calls, and the screener
    // would (correctly) skip them for these trivially-safe candidates.
    options.screening = false;
    const CountingOracle oracle(std::move(options));

    const std::vector<std::string> candidates = {
        "fn main() {\n    print_int(40 + 2);\n}\n",
        "fn main() {\n    print_int(21 * 2);\n}\n",
        "fn main() {\n    let x = 42;\n    print_int(x);\n}\n",
        "fn main() {\n    print_int(43);\n}\n",  // passes, diverges
    };
    int acceptable = 0;
    for (const std::string& candidate : candidates) {
        acceptable +=
            dataset::judge_semantics(candidate, ub_case, oracle).acceptable();
    }
    EXPECT_EQ(acceptable, 3);

    // Four candidate interpretations, ONE reference interpretation: the
    // three later judgments reuse the memoized reference report.
    const std::uint64_t reference_key =
        support::fnv1a64(ub_case.reference_fix);
    EXPECT_EQ(oracle.interpretations.at(reference_key), 1);
    for (const std::string& candidate : candidates) {
        EXPECT_EQ(oracle.interpretations.at(support::fnv1a64(candidate)), 1)
            << candidate;
    }
}

TEST(VerifyOracleTest, WithoutCachingTheReferenceFixRunsPerCandidate) {
    // The pre-Oracle behavior, kept reachable through the escape hatch —
    // the contrast that proves the memoization is what drops the count.
    dataset::UbCase ub_case;
    ub_case.id = "oracle/ref_uncached";
    ub_case.category = miri::UbCategory::Panic;
    ub_case.inputs = {{}};
    ub_case.reference_fix = "fn main() {\n    print_int(7);\n}\n";

    OracleOptions options;
    options.caching = false;
    options.screening = false;  // same reason as the cached counting test
    const CountingOracle oracle(std::move(options));

    const std::vector<std::string> candidates = {
        "fn main() {\n    print_int(3 + 4);\n}\n",
        "fn main() {\n    print_int(14 / 2);\n}\n",
        "fn main() {\n    print_int(8 - 1);\n}\n",
    };
    for (const std::string& candidate : candidates) {
        EXPECT_TRUE(
            dataset::judge_semantics(candidate, ub_case, oracle).acceptable());
    }
    EXPECT_EQ(oracle.interpretations.at(support::fnv1a64(ub_case.reference_fix)),
              3);
}

// --- front-end parity and cache mechanics ----------------------------------

TEST(VerifyOracleTest, FrontEndFailuresMatchMiriLiteVerbatim) {
    const miri::MiriLite reference;
    const auto oracle = cached_oracle();
    const std::vector<std::string> broken = {
        "fn main( {",                    // parse error
        "fn main() {\n    x = 1;\n}\n",  // typecheck error
        "fn not_main() {}\n",            // no main
    };
    for (const std::string& source : broken) {
        SCOPED_TRACE(source);
        const miri::MiriReport a = reference.test_source(source, {});
        // Twice: the second answer comes from the program cache.
        for (int round = 0; round < 2; ++round) {
            const miri::MiriReport b = oracle->test_source(source, {});
            ASSERT_EQ(a.findings.size(), b.findings.size());
            ASSERT_EQ(a.findings.size(), 1u);
            EXPECT_EQ(a.findings.front().category, b.findings.front().category);
            EXPECT_EQ(a.findings.front().message, b.findings.front().message);
        }
    }
}

TEST(VerifyOracleTest, ReportCacheHitsAreObservableAndCounted) {
    const auto oracle = cached_oracle();
    const std::string source = "fn main() {\n    print_int(1);\n}\n";

    VerifyOutcome first;
    const miri::MiriReport a = oracle->test_source(source, {{}}, &first);
    EXPECT_FALSE(first.report_cached);
    EXPECT_FALSE(first.program_cached);

    VerifyOutcome second;
    const miri::MiriReport b = oracle->test_source(source, {{}}, &second);
    EXPECT_TRUE(second.report_cached);
    EXPECT_TRUE(second.program_cached);
    EXPECT_EQ(a.outputs, b.outputs);
    EXPECT_EQ(a.total_steps, b.total_steps);

    // Distinct inputs are a distinct report key over the same compile.
    VerifyOutcome other_inputs;
    (void)oracle->test_source(source, {{1, 2}}, &other_inputs);
    EXPECT_TRUE(other_inputs.program_cached);
    EXPECT_FALSE(other_inputs.report_cached);

    const VerifyCacheStats stats = oracle->stats();
    EXPECT_EQ(stats.programs, 1u);
    EXPECT_EQ(stats.reports, 2u);
    EXPECT_EQ(stats.report_hits, 1u);
    EXPECT_EQ(stats.report_misses, 2u);
    EXPECT_DOUBLE_EQ(stats.report_hit_rate(), 1.0 / 3.0);
}

TEST(VerifyOracleTest, CompileSharesOneCanonicalProgram) {
    const auto oracle = cached_oracle();
    const std::string source = "fn main() {\n    print_int(2);\n}\n";
    const auto first = oracle->compile(source);
    const auto second = oracle->compile(source);
    EXPECT_EQ(first.get(), second.get());
    ASSERT_TRUE(first->ok());
    EXPECT_EQ(first->lowering.fn_slot_counts.size(), 1u);
}

TEST(VerifyOracleTest, DisabledCachingStoresNothing) {
    OracleOptions options;
    options.cache = std::make_shared<VerifyCache>();
    options.caching = false;
    const Oracle oracle(std::move(options));
    const std::string source = "fn main() {\n    print_int(3);\n}\n";
    (void)oracle.test_source(source, {{}});
    (void)oracle.test_source(source, {{}});
    const VerifyCacheStats stats = oracle.stats();
    EXPECT_EQ(stats.programs, 0u);
    EXPECT_EQ(stats.reports, 0u);
    EXPECT_EQ(stats.report_hits + stats.report_misses, 0u);
}

TEST(VerifyOracleTest, DifferentLimitsNeverShareAReport) {
    OracleOptions strict_options;
    strict_options.cache = std::make_shared<VerifyCache>();
    strict_options.caching = true;
    strict_options.limits.max_steps = 50;
    const Oracle strict(std::move(strict_options));

    OracleOptions roomy_options;
    roomy_options.cache = strict.cache();  // same store, different limits
    roomy_options.caching = true;
    const Oracle roomy(OracleOptions{roomy_options});

    const std::string source = R"(fn main() {
    let mut i = 0;
    while i < 100 {
        i = i + 1;
    }
}
)";
    EXPECT_TRUE(roomy.test_source(source, {}).passed());
    const miri::MiriReport limited = strict.test_source(source, {});
    ASSERT_EQ(limited.findings.size(), 1u);
    EXPECT_EQ(limited.findings.front().message,
              "step limit exceeded (possible infinite loop)");
}

/// Sets (or, with null, unsets) one env variable for a scope and restores
/// the previous value after, so the tests below also hold when the whole
/// binary runs in one process under a CI-wide RUSTBRAIN_* setting.
class ScopedEnv {
  public:
    ScopedEnv(const char* name, const char* value) : name_(name) {
        if (const char* old = std::getenv(name)) saved_ = old;
        if (value == nullptr) {
            ::unsetenv(name);
        } else {
            ::setenv(name, value, 1);
        }
    }
    ~ScopedEnv() {
        if (saved_) {
            ::setenv(name_, saved_->c_str(), 1);
        } else {
            ::unsetenv(name_);
        }
    }
    ScopedEnv(const ScopedEnv&) = delete;
    ScopedEnv& operator=(const ScopedEnv&) = delete;

  private:
    const char* name_;
    std::optional<std::string> saved_;
};

TEST(OracleEnvTest, TypoedKnobsThrowAtConstructionListingAcceptedValues) {
    const struct {
        const char* name;
        const char* typo;
        const char* accepted;
    } knobs[] = {
        {"RUSTBRAIN_VERIFY_CACHE", "of", "on, off, 1, 0, true, false"},
        {"RUSTBRAIN_SCREEN", "yes", "on, off, 1, 0, true, false"},
        {"RUSTBRAIN_VM_OPT", "", "on, off, 1, 0, true, false"},
        {"RUSTBRAIN_INTERP", "vmm", "tree, slot, vm"},
    };
    for (const auto& knob : knobs) {
        const ScopedEnv env(knob.name, knob.typo);
        try {
            const Oracle oracle;
            ADD_FAILURE() << knob.name << "=" << knob.typo << " was accepted";
        } catch (const std::invalid_argument& error) {
            const std::string message = error.what();
            EXPECT_NE(message.find(knob.name), std::string::npos) << message;
            EXPECT_NE(message.find("'" + std::string(knob.typo) + "'"),
                      std::string::npos)
                << message;
            EXPECT_NE(message.find(knob.accepted), std::string::npos)
                << message;
        }
    }
}

TEST(OracleEnvTest, PinnedOptionsNeverReadTheEnv) {
    const ScopedEnv cache("RUSTBRAIN_VERIFY_CACHE", "of");
    const ScopedEnv screen("RUSTBRAIN_SCREEN", "of");
    const ScopedEnv interp("RUSTBRAIN_INTERP", "vmm");
    const ScopedEnv vm_opt("RUSTBRAIN_VM_OPT", "of");
    OracleOptions options;
    options.caching = false;
    options.screening = false;
    options.interp = InterpTier::Vm;
    options.vm_opt = false;
    const Oracle oracle(options);
    EXPECT_FALSE(oracle.caching_enabled());
    EXPECT_FALSE(oracle.screening_enabled());
    EXPECT_EQ(oracle.interp_tier(), InterpTier::Vm);
    EXPECT_FALSE(oracle.vm_opt_enabled());
}

TEST(OracleEnvTest, EveryAcceptedSpellingResolvesAsBefore) {
    const struct {
        const char* value;
        bool on;
    } spellings[] = {{nullptr, true}, {"on", true},  {"1", true},
                     {"true", true},  {"off", false}, {"0", false},
                     {"false", false}};
    for (const auto& spelling : spellings) {
        const std::string label =
            spelling.value == nullptr ? "(unset)" : spelling.value;
        {
            const ScopedEnv env("RUSTBRAIN_VERIFY_CACHE", spelling.value);
            EXPECT_EQ(Oracle().caching_enabled(), spelling.on) << label;
        }
        {
            const ScopedEnv env("RUSTBRAIN_SCREEN", spelling.value);
            EXPECT_EQ(Oracle().screening_enabled(), spelling.on) << label;
        }
        {
            const ScopedEnv env("RUSTBRAIN_VM_OPT", spelling.value);
            EXPECT_EQ(Oracle().vm_opt_enabled(), spelling.on) << label;
        }
    }
    const struct {
        const char* value;
        InterpTier tier;
    } tiers[] = {{nullptr, InterpTier::Slot},
                 {"tree", InterpTier::Tree},
                 {"slot", InterpTier::Slot},
                 {"vm", InterpTier::Vm}};
    for (const auto& tier : tiers) {
        const ScopedEnv env("RUSTBRAIN_INTERP", tier.value);
        EXPECT_EQ(Oracle().interp_tier(), tier.tier)
            << (tier.value == nullptr ? "(unset)" : tier.value);
    }
}

}  // namespace
}  // namespace rustbrain::verify
