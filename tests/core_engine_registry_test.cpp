// EngineRegistry: every paper engine is constructible by string id, fails
// loudly on typos, is deterministic under a fixed seed, and reports
// through the RepairEngine/TraceSink interfaces identically to direct
// construction.
#include <gtest/gtest.h>

#include <stdexcept>

#include "core/engine_registry.hpp"
#include "core/rustbrain.hpp"
#include "dataset/corpus.hpp"
#include "kb/seed.hpp"

namespace rustbrain::core {
namespace {

const dataset::Corpus& corpus() {
    static const dataset::Corpus c = dataset::Corpus::standard();
    return c;
}

const kb::KnowledgeBase& seeded_kb() {
    static const kb::KnowledgeBase kbase = [] {
        kb::KnowledgeBase k;
        kb::seed_from_corpus(corpus(), k);
        return k;
    }();
    return kbase;
}

EngineBuildContext kb_context() {
    EngineBuildContext context;
    context.knowledge_base = &seeded_kb();
    return context;
}

void expect_same_result(const CaseResult& a, const CaseResult& b) {
    EXPECT_EQ(a.case_id, b.case_id);
    EXPECT_EQ(a.pass, b.pass);
    EXPECT_EQ(a.exec, b.exec);
    EXPECT_EQ(a.time_ms, b.time_ms);  // exact, not near
    EXPECT_EQ(a.time_breakdown, b.time_breakdown);
    EXPECT_EQ(a.solutions_generated, b.solutions_generated);
    EXPECT_EQ(a.steps_executed, b.steps_executed);
    EXPECT_EQ(a.rollbacks, b.rollbacks);
    EXPECT_EQ(a.llm_calls, b.llm_calls);
    EXPECT_EQ(a.kb_consulted, b.kb_consulted);
    EXPECT_EQ(a.kb_skipped_by_feedback, b.kb_skipped_by_feedback);
    EXPECT_EQ(a.thinking_switches, b.thinking_switches);
    EXPECT_EQ(a.escalations, b.escalations);
    EXPECT_EQ(a.early_stops, b.early_stops);
    EXPECT_EQ(a.attempts_skipped, b.attempts_skipped);
    EXPECT_EQ(a.error_trajectory, b.error_trajectory);
    EXPECT_EQ(a.winning_rule, b.winning_rule);
    EXPECT_EQ(a.final_source, b.final_source);
}

TEST(EngineOptionsTest, ParseRoundTrip) {
    const EngineOptions options =
        EngineOptions::parse("model=gpt-3.5,temperature=0.7,knowledge=off,seed=9");
    EXPECT_EQ(options.get("model", "x"), "gpt-3.5");
    EXPECT_DOUBLE_EQ(options.get_double("temperature", 0.0), 0.7);
    EXPECT_FALSE(options.get_bool("knowledge", true));
    EXPECT_EQ(options.get_u64("seed", 0), 9u);
    EXPECT_EQ(options.get("absent", "fallback"), "fallback");
}

TEST(EngineOptionsTest, MalformedSpecThrows) {
    EXPECT_THROW(EngineOptions::parse("model"), std::invalid_argument);
    EXPECT_THROW(EngineOptions::parse("=gpt-4"), std::invalid_argument);
    const EngineOptions options = EngineOptions::parse("temperature=warm");
    EXPECT_THROW((void)options.get_double("temperature", 0.5),
                 std::invalid_argument);
    // Trailing junk and sign-wrapped unsigned values fail loudly too.
    const EngineOptions junk =
        EngineOptions::parse("temperature=0.5x,attempts=3y,seed=-1");
    EXPECT_THROW((void)junk.get_double("temperature", 0.5),
                 std::invalid_argument);
    EXPECT_THROW((void)junk.get_int("attempts", 2), std::invalid_argument);
    EXPECT_THROW((void)junk.get_u64("seed", 42), std::invalid_argument);
}

TEST(EngineRegistryTest, BuiltinListsTheFourPaperEngines) {
    const EngineRegistry& registry = EngineRegistry::builtin();
    for (const char* id : {"rustbrain", "standalone", "fixed-pipeline", "expert"}) {
        EXPECT_TRUE(registry.contains(id)) << id;
        EXPECT_NE(registry.help().find(id), std::string::npos);
    }
    EXPECT_EQ(registry.ids().size(), 4u);
}

TEST(EngineRegistryTest, UnknownIdThrowsListingAvailable) {
    try {
        (void)EngineRegistry::builtin().build("rustbrian");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& error) {
        const std::string message = error.what();
        EXPECT_NE(message.find("rustbrian"), std::string::npos);
        EXPECT_NE(message.find("rustbrain"), std::string::npos);
        EXPECT_NE(message.find("fixed-pipeline"), std::string::npos);
    }
}

TEST(EngineRegistryTest, UnknownOptionThrowsNamingIt) {
    try {
        (void)EngineRegistry::builtin().build(
            "standalone", EngineOptions::parse("model=gpt-4,atempts=3"));
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& error) {
        const std::string message = error.what();
        EXPECT_NE(message.find("atempts"), std::string::npos);
        EXPECT_NE(message.find("attempts"), std::string::npos);
    }
}

TEST(EngineRegistryTest, NameMatchesIdAndSummaryReflectsOptions) {
    for (const std::string& id : EngineRegistry::builtin().ids()) {
        const auto engine =
            EngineRegistry::builtin().build(id, EngineOptions::parse("seed=5"),
                                            kb_context());
        EXPECT_EQ(engine->name(), id);
        EXPECT_NE(engine->config_summary().find("seed=5"), std::string::npos)
            << id;
    }
    const auto rustbrain = EngineRegistry::builtin().build(
        "rustbrain", EngineOptions::parse("model=gpt-3.5,knowledge=off"),
        kb_context());
    EXPECT_NE(rustbrain->config_summary().find("model=gpt-3.5"),
              std::string::npos);
    EXPECT_NE(rustbrain->config_summary().find("knowledge=off"),
              std::string::npos);
}

TEST(EngineRegistryTest, EveryEngineDeterministicUnderFixedSeed) {
    // The registry property the sweeps rely on: building the same id with
    // the same options twice and repairing the same case yields the same
    // CaseResult, byte for byte.
    const dataset::UbCase* ub_case = corpus().find("alloc/double_free_0");
    ASSERT_NE(ub_case, nullptr);
    for (const std::string& id : EngineRegistry::builtin().ids()) {
        const EngineOptions options = EngineOptions::parse("seed=7");
        const auto first =
            EngineRegistry::builtin().build(id, options, kb_context());
        const auto second =
            EngineRegistry::builtin().build(id, options, kb_context());
        const CaseResult a = first->repair(*ub_case);
        const CaseResult b = second->repair(*ub_case);
        SCOPED_TRACE(id);
        expect_same_result(a, b);
    }
}

TEST(EngineRegistryTest, RegistryBuildMatchesDirectConstruction) {
    // The declarative path is the old imperative path: a registry-built
    // rustbrain equals a directly constructed one, case for case.
    RustBrainConfig config;
    config.model = "gpt-4";
    RustBrain direct(config, &seeded_kb(), nullptr);
    const auto built = EngineRegistry::builtin().build(
        "rustbrain", EngineOptions::parse("model=gpt-4"), kb_context());
    for (const dataset::UbCase* ub_case :
         corpus().by_category(miri::UbCategory::Alloc)) {
        expect_same_result(direct.repair(*ub_case), built->repair(*ub_case));
    }
}

TEST(EngineRegistryTest, TraceSinkSeesTheEventStream) {
    TraceRecorder recorder;
    EngineBuildContext context = kb_context();
    context.trace = &recorder;
    const auto engine = EngineRegistry::builtin().build(
        "rustbrain", EngineOptions::parse("model=gpt-4"), context);
    const dataset::UbCase* ub_case = corpus().find("alloc/double_free_0");
    ASSERT_NE(ub_case, nullptr);
    const CaseResult result = engine->repair(*ub_case);

    // The attached sink observes exactly the stream the engine tallied its
    // statistics from.
    EXPECT_EQ(recorder.count(TraceEventKind::LlmCall), result.llm_calls);
    EXPECT_EQ(recorder.count(TraceEventKind::StepExecuted),
              static_cast<std::size_t>(result.steps_executed));
    EXPECT_EQ(recorder.count(TraceEventKind::StepVerified),
              result.error_trajectory.size());
    EXPECT_EQ(recorder.count(TraceEventKind::Rollback),
              static_cast<std::size_t>(result.rollbacks));
    EXPECT_EQ(recorder.count(TraceEventKind::KbConsult) > 0, result.kb_consulted);
    EXPECT_GT(recorder.count(TraceEventKind::StageEnter), 0u);
    EXPECT_EQ(recorder.count(TraceEventKind::StageEnter),
              recorder.count(TraceEventKind::StageExit));
    // Virtual timestamps are monotone along the stream.
    double last_ms = 0.0;
    for (const TraceEvent& event : recorder.events()) {
        EXPECT_GE(event.clock_ms, last_ms);
        last_ms = event.clock_ms;
    }

    // Observation must not perturb the repair: an untraced engine agrees.
    const auto untraced = EngineRegistry::builtin().build(
        "rustbrain", EngineOptions::parse("model=gpt-4"), kb_context());
    expect_same_result(result, untraced->repair(*ub_case));
}

}  // namespace
}  // namespace rustbrain::core
