// Corpus Forge: generator determinism, validity of everything forged, knob
// behavior, and end-to-end BatchRunner sweeps over generated corpora.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/batch_runner.hpp"
#include "core/engine_registry.hpp"
#include "gen/corpus_io.hpp"
#include "gen/forge.hpp"
#include "gen/registry.hpp"
#include "kb/seed.hpp"
#include "lang/parser.hpp"
#include "lang/typecheck.hpp"
#include "support/rng.hpp"
#include "verify/oracle.hpp"

namespace rustbrain::gen {
namespace {

ForgeOptions small_forge(std::uint64_t seed, std::size_t count) {
    ForgeOptions options;
    options.seed = seed;
    options.count = count;
    return options;
}

TEST(ForgeTest, SameSeedIsByteIdentical) {
    const dataset::Corpus first = forge_corpus(small_forge(42, 64));
    const dataset::Corpus second = forge_corpus(small_forge(42, 64));
    EXPECT_EQ(corpus_to_string(first), corpus_to_string(second));
}

TEST(ForgeTest, DifferentSeedsProduceDistinctIdsAndContent) {
    const dataset::Corpus a = forge_corpus(small_forge(1, 32));
    const dataset::Corpus b = forge_corpus(small_forge(2, 32));
    ASSERT_EQ(a.size(), b.size());
    std::set<std::string> ids_a;
    for (const auto& c : a.cases()) ids_a.insert(c.id);
    for (const auto& c : b.cases()) {
        EXPECT_EQ(ids_a.count(c.id), 0u) << "seed-colliding id " << c.id;
    }
    EXPECT_NE(corpus_to_string(a), corpus_to_string(b));
}

TEST(ForgeTest, EveryForgedCaseValidates) {
    // One case per generator x4 — then hold the result to the standard
    // corpus's own bar, independently of the forge's internal sampling.
    const dataset::Corpus corpus = forge_corpus(small_forge(7, 64));
    EXPECT_EQ(corpus.size(), 64u);
    for (const dataset::CaseValidation& v : dataset::validate_corpus(corpus)) {
        EXPECT_TRUE(v.ok()) << v.id << ": " << v.detail;
    }
}

TEST(ForgeTest, ForgedCasesParseAndTypecheck) {
    const dataset::Corpus corpus = forge_corpus(small_forge(11, 32));
    for (const auto& c : corpus.cases()) {
        auto buggy = lang::try_parse(c.buggy_source);
        ASSERT_TRUE(buggy.has_value()) << c.id;
        EXPECT_TRUE(lang::type_check(*buggy)) << c.id;
        auto fix = lang::try_parse(c.reference_fix);
        ASSERT_TRUE(fix.has_value()) << c.id;
        EXPECT_TRUE(lang::type_check(*fix)) << c.id;
    }
}

TEST(ForgeTest, CoversEveryBuiltinGeneratorAndCategory) {
    ForgeOptions options = small_forge(3, 2 * 16);
    ForgeStats stats;
    const dataset::Corpus corpus = forge_corpus(options, &stats);
    // Round-robin over 16 generators: two cases each.
    EXPECT_EQ(stats.accepted_by_generator.size(),
              GeneratorRegistry::builtin().ids().size());
    for (const auto& [id, accepted] : stats.accepted_by_generator) {
        EXPECT_EQ(accepted, 2u) << id;
    }
    // All 14 UB categories appear (compositions fold into panic/dangling).
    EXPECT_EQ(corpus.categories().size(), 14u);
}

TEST(ForgeTest, GeneratorSubsetAndDeclaredCategories) {
    for (const std::string& id : GeneratorRegistry::builtin().ids()) {
        ForgeOptions options = small_forge(13, 3);
        options.generators = {id};
        const dataset::Corpus corpus = forge_corpus(options);
        ASSERT_EQ(corpus.size(), 3u) << id;
        const auto generator = GeneratorRegistry::builtin().build(id);
        for (const auto& c : corpus.cases()) {
            EXPECT_EQ(c.category, generator->category()) << c.id;
            EXPECT_EQ(c.id.rfind("gen/" + id + "/", 0), 0u) << c.id;
        }
    }
}

TEST(ForgeTest, MutationKnobsRespected) {
    // depth=0,padding=0,helpers=off must forge plain programs: no pads, no
    // helper functions. (Nesting is hard to assert textually; pads and
    // helpers have reserved name prefixes.)
    ForgeOptions options = small_forge(5, 32);
    options.generator_options = support::OptionMap::parse(
        "depth=0,padding=0,helpers=off");
    const dataset::Corpus plain = forge_corpus(options);
    const std::string text = corpus_to_string(plain);
    EXPECT_EQ(text.find("pad_"), std::string::npos);
    EXPECT_EQ(text.find("unused_"), std::string::npos);

    // The default knobs do produce structural mutations somewhere in a
    // decent sample.
    const dataset::Corpus mutated = forge_corpus(small_forge(5, 32));
    const std::string mutated_text = corpus_to_string(mutated);
    EXPECT_NE(mutated_text.find("pad_"), std::string::npos);
    EXPECT_NE(mutated_text.find("unused_"), std::string::npos);
}

TEST(ForgeTest, UnknownGeneratorIdThrows) {
    ForgeOptions options = small_forge(1, 4);
    options.generators = {"no-such-generator"};
    try {
        forge_corpus(options);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& error) {
        const std::string message = error.what();
        EXPECT_NE(message.find("no-such-generator"), std::string::npos);
        EXPECT_NE(message.find("alloc"), std::string::npos);  // lists options
    }
}

TEST(ForgeTest, UnknownGeneratorOptionThrows) {
    ForgeOptions options = small_forge(1, 4);
    options.generator_options = support::OptionMap::parse("nesting=3");
    try {
        forge_corpus(options);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& error) {
        const std::string message = error.what();
        EXPECT_NE(message.find("nesting"), std::string::npos);
        EXPECT_NE(message.find("depth"), std::string::npos);  // lists knobs
    }
}

TEST(ForgeTest, KnowledgeBaseSeedsFromForgedCorpus) {
    const dataset::Corpus corpus = forge_corpus(small_forge(21, 48));
    kb::KnowledgeBase kbase;
    const kb::SeedStats stats = kb::seed_from_corpus(corpus, kbase);
    EXPECT_EQ(stats.cases_processed, 48u);
    EXPECT_GT(stats.entries_added, 0u);
    EXPECT_GT(stats.rules_verified, 0u);
}

TEST(ForgeTest, EveryRegistryEngineSweepsAForgedCorpus) {
    const dataset::Corpus corpus = forge_corpus(small_forge(42, 32));
    kb::KnowledgeBase kbase;
    kb::seed_from_corpus(corpus, kbase);
    core::EngineBuildContext context;
    context.knowledge_base = &kbase;
    for (const std::string& id : core::EngineRegistry::builtin().ids()) {
        const core::BatchRunner runner(id, core::EngineOptions{}, context);
        const core::BatchReport report = runner.run(corpus);
        ASSERT_EQ(report.results.size(), corpus.size()) << id;
        EXPECT_GT(report.pass_total(), 0) << id;
        for (std::size_t i = 0; i < report.results.size(); ++i) {
            EXPECT_EQ(report.results[i].case_id, corpus.cases()[i].id) << id;
        }
    }
}

TEST(ForgeTest, ThousandCaseCorpusRunsThroughBatchRunner) {
    // The scale target from the roadmap: a 1000-case generated corpus,
    // end to end through the parallel BatchRunner. The expert engine keeps
    // the virtual-repair cost deterministic and the wall clock tame.
    const dataset::Corpus corpus = forge_corpus(small_forge(1000, 1000));
    ASSERT_EQ(corpus.size(), 1000u);
    const core::BatchRunner runner("expert", core::EngineOptions{},
                                   core::EngineBuildContext{});
    const core::BatchReport report = runner.run(corpus);
    ASSERT_EQ(report.results.size(), 1000u);
    EXPECT_EQ(report.pass_total(), 1000);  // the expert always succeeds
}

TEST(ForgeTest, ZeroCountYieldsEmptyCorpus) {
    const dataset::Corpus corpus = forge_corpus(small_forge(1, 0));
    EXPECT_EQ(corpus.size(), 0u);
    // Validation is not short-circuited by an empty request...
    ForgeOptions bad = small_forge(1, 0);
    bad.generators = {"no-such-generator"};
    EXPECT_THROW(forge_corpus(bad), std::invalid_argument);
    // ...and caller-provided stats are reset, not left stale.
    ForgeStats stats;
    forge_corpus(small_forge(1, 8), &stats);
    EXPECT_EQ(stats.accepted(), 8u);
    forge_corpus(small_forge(1, 0), &stats);
    EXPECT_EQ(stats.accepted(), 0u);
    EXPECT_EQ(stats.attempts, 0u);
}

TEST(ForgeTest, DefaultAndTreeOraclesForgeIdenticalBytes) {
    // The tier never changes a report, so the corpus_forge default run
    // (seed 7, 160 cases) is byte-identical through the slot tier and the
    // tree reference. Private caches: each oracle really interprets.
    auto forge_through = [](verify::InterpTier tier) {
        verify::OracleOptions oracle_options;
        oracle_options.cache = std::make_shared<verify::VerifyCache>();
        oracle_options.interp = tier;
        const verify::Oracle oracle(std::move(oracle_options));
        ForgeOptions options = small_forge(7, 160);
        options.oracle = &oracle;
        return corpus_to_string(forge_corpus(options));
    };
    const std::string slot = forge_through(verify::InterpTier::Slot);
    EXPECT_EQ(slot, forge_through(verify::InterpTier::Tree));
    EXPECT_EQ(slot, corpus_to_string(forge_corpus(small_forge(7, 160))));
}

TEST(GeneratorTest, GenerateIsPureInItsRng) {
    const auto generator = GeneratorRegistry::builtin().build("alloc");
    support::Rng a(123);
    support::Rng b(123);
    const dataset::UbCase first = generator->generate(a);
    const dataset::UbCase second = generator->generate(b);
    EXPECT_EQ(first.id, second.id);
    EXPECT_EQ(first.buggy_source, second.buggy_source);
    EXPECT_EQ(first.reference_fix, second.reference_fix);
    EXPECT_EQ(first.inputs, second.inputs);
    EXPECT_EQ(first.difficulty, second.difficulty);
}

}  // namespace
}  // namespace rustbrain::gen
