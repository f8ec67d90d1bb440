// The LlmBackend boundary: SimLLM's per-call purity, CachingBackend's
// bit-identical memoization over a full-corpus sweep, and the
// RecordingBackend/ReplayBackend golden-transcript round trip.
#include <gtest/gtest.h>

#include <memory>

#include "core/batch_runner.hpp"
#include "core/engine_registry.hpp"
#include "dataset/corpus.hpp"
#include "kb/seed.hpp"
#include "llm/caching_backend.hpp"
#include "llm/replay_backend.hpp"
#include "llm/simllm.hpp"

namespace rustbrain::llm {
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

core::EngineBuildContext context_with(BackendFactory factory) {
    core::EngineBuildContext context;
    context.knowledge_base = &seeded_kb();
    context.backend_factory = std::move(factory);
    return context;
}

void expect_identical(const core::BatchReport& a, const core::BatchReport& b) {
    ASSERT_EQ(a.results.size(), b.results.size());
    for (std::size_t i = 0; i < a.results.size(); ++i) {
        const core::CaseResult& x = a.results[i];
        const core::CaseResult& y = b.results[i];
        EXPECT_EQ(x.case_id, y.case_id) << "index " << i;
        EXPECT_EQ(x.pass, y.pass) << x.case_id;
        EXPECT_EQ(x.exec, y.exec) << x.case_id;
        EXPECT_EQ(x.time_ms, y.time_ms) << x.case_id;  // exact, not near
        EXPECT_EQ(x.time_breakdown, y.time_breakdown) << x.case_id;
        EXPECT_EQ(x.solutions_generated, y.solutions_generated) << x.case_id;
        EXPECT_EQ(x.steps_executed, y.steps_executed) << x.case_id;
        EXPECT_EQ(x.rollbacks, y.rollbacks) << x.case_id;
        EXPECT_EQ(x.llm_calls, y.llm_calls) << x.case_id;
        EXPECT_EQ(x.kb_consulted, y.kb_consulted) << x.case_id;
        EXPECT_EQ(x.kb_skipped_by_feedback, y.kb_skipped_by_feedback)
            << x.case_id;
        EXPECT_EQ(x.thinking_switches, y.thinking_switches) << x.case_id;
        EXPECT_EQ(x.escalations, y.escalations) << x.case_id;
        EXPECT_EQ(x.early_stops, y.early_stops) << x.case_id;
        EXPECT_EQ(x.attempts_skipped, y.attempts_skipped) << x.case_id;
        EXPECT_EQ(x.error_trajectory, y.error_trajectory) << x.case_id;
        EXPECT_EQ(x.winning_rule, y.winning_rule) << x.case_id;
        EXPECT_EQ(x.final_source, y.final_source) << x.case_id;
    }
    EXPECT_EQ(a.clock.now_ms(), b.clock.now_ms());
    EXPECT_EQ(a.clock.breakdown(), b.clock.breakdown());
}

core::BatchReport corpus_sweep(const core::EngineBuildContext& context,
                               std::size_t workers = 1) {
    const core::BatchRunner runner("rustbrain",
                                   core::EngineOptions::parse("model=gpt-4"),
                                   context, core::BatchOptions{workers});
    return runner.run(corpus());
}

TEST(SimBackendTest, FactoryOpensIndependentDeterministicSessions) {
    const BackendFactory factory = sim_backend_factory();
    const auto a = factory(gpt4_profile(), 7);
    const auto b = factory(gpt4_profile(), 7);
    EXPECT_EQ(a->description(), "sim:gpt-4");
    ChatRequest request;
    request.sequence = 3;
    request.messages.push_back({Role::User, "task: extract_ast\ncode:\nfn main() { }\n"});
    const ChatResponse first = a->complete(request);
    const ChatResponse second = b->complete(request);
    EXPECT_EQ(first.content, second.content);
    EXPECT_EQ(first.latency_ms, second.latency_ms);
    EXPECT_EQ(a->calls_served(), 1u);
}

TEST(CachingBackendTest, FullCorpusSweepBitIdenticalWithAndWithoutCache) {
    // The acceptance property: a sweep through CachingBackend is
    // indistinguishable from an uncached one, and a repeat sweep answers
    // from cache while still reproducing the same bytes.
    const core::BatchReport uncached = corpus_sweep(context_with({}));

    const auto cache = std::make_shared<PromptCache>();
    const auto cached_context = context_with(caching_backend_factory(cache));
    const core::BatchReport first = corpus_sweep(cached_context);
    expect_identical(uncached, first);
    const PromptCacheStats after_first = cache->stats();
    EXPECT_GT(after_first.entries, 0u);
    EXPECT_EQ(after_first.hits, 0u);  // nothing to hit on a cold cache

    const core::BatchReport second = corpus_sweep(cached_context, 4);
    expect_identical(uncached, second);
    const PromptCacheStats after_second = cache->stats();
    // The repeat sweep re-issues exactly the same call identities: all hits,
    // no new entries.
    EXPECT_EQ(after_second.entries, after_first.entries);
    EXPECT_EQ(after_second.misses, after_first.misses);
    EXPECT_EQ(after_second.hits, after_first.misses);
}

TEST(CachingBackendTest, HitsPreserveResponseBytes) {
    const auto cache = std::make_shared<PromptCache>();
    const BackendFactory factory = caching_backend_factory(cache);
    ChatRequest request;
    request.temperature = 0.8;
    request.sequence = 2;
    request.messages.push_back(
        {Role::User, "task: generate_solutions\nerror_category: alloc\n"});
    const auto first_session = factory(gpt4_profile(), 11);
    const ChatResponse live = first_session->complete(request);
    const auto second_session = factory(gpt4_profile(), 11);
    const ChatResponse cached = second_session->complete(request);
    EXPECT_EQ(cache->stats().hits, 1u);
    EXPECT_EQ(live.content, cached.content);
    EXPECT_EQ(live.prompt_tokens, cached.prompt_tokens);
    EXPECT_EQ(live.completion_tokens, cached.completion_tokens);
    EXPECT_EQ(live.latency_ms, cached.latency_ms);
    EXPECT_EQ(second_session->description(), "cache(sim:gpt-4)");
    // A different session seed is a different identity: no false hit.
    const auto other_session = factory(gpt4_profile(), 12);
    (void)other_session->complete(request);
    EXPECT_EQ(cache->stats().hits, 1u);
}

TEST(CachingBackendTest, FullShardFlushesAndCounts) {
    // Keys are sharded key % 16; hammering one shard past its default cap
    // must drop its oldest entries (bit-identity makes dropping entries
    // safe) and count them in stats — never grow without bound.
    PromptCache cache;
    ChatResponse response;
    response.content = "cached";
    constexpr std::uint64_t kShardStride = 16;
    // 40k same-shard inserts comfortably exceeds the 32768 per-shard cap.
    constexpr std::uint64_t kInserts = 40'000;
    constexpr std::uint64_t kCap = 32'768;
    for (std::uint64_t i = 0; i < kInserts; ++i) {
        cache.insert(i * kShardStride, response);
    }
    const PromptCacheStats stats = cache.stats();
    EXPECT_EQ(stats.entries, kCap);
    EXPECT_EQ(stats.evictions, kInserts - kCap);
    // The newest entries still answer.
    EXPECT_TRUE(cache.lookup((kInserts - 1) * kShardStride).has_value());
    // Dropped entries miss and would be re-inserted, not corrupted.
    EXPECT_FALSE(cache.lookup(0).has_value());
}

TEST(ReplayBackendTest, GoldenTranscriptReproducesCaseResults) {
    // Record a sweep over one category, then replay it with no model
    // behind the boundary at all: bit-identical CaseResults prove the
    // transcript captures everything the pipeline consumed.
    const std::vector<const dataset::UbCase*> cases =
        corpus().by_category(miri::UbCategory::DanglingPointer);
    ASSERT_FALSE(cases.empty());

    const auto transcript = std::make_shared<Transcript>();
    const auto record_engine = core::EngineRegistry::builtin().build(
        "rustbrain", core::EngineOptions::parse("model=gpt-4"),
        context_with(recording_backend_factory(transcript)));
    std::vector<core::CaseResult> recorded;
    for (const dataset::UbCase* ub_case : cases) {
        recorded.push_back(record_engine->repair(*ub_case));
    }
    ASSERT_GT(transcript->size(), 0u);

    const auto replay_engine = core::EngineRegistry::builtin().build(
        "rustbrain", core::EngineOptions::parse("model=gpt-4"),
        context_with(replay_backend_factory(transcript)));
    for (std::size_t i = 0; i < cases.size(); ++i) {
        const core::CaseResult replayed = replay_engine->repair(*cases[i]);
        const core::CaseResult& original = recorded[i];
        EXPECT_EQ(replayed.pass, original.pass) << original.case_id;
        EXPECT_EQ(replayed.exec, original.exec) << original.case_id;
        EXPECT_EQ(replayed.time_ms, original.time_ms) << original.case_id;
        EXPECT_EQ(replayed.time_breakdown, original.time_breakdown)
            << original.case_id;
        EXPECT_EQ(replayed.llm_calls, original.llm_calls) << original.case_id;
        EXPECT_EQ(replayed.error_trajectory, original.error_trajectory)
            << original.case_id;
        EXPECT_EQ(replayed.winning_rule, original.winning_rule)
            << original.case_id;
        EXPECT_EQ(replayed.final_source, original.final_source)
            << original.case_id;
    }
}

TEST(ReplayBackendTest, DivergenceFromRecordingThrows) {
    const auto transcript = std::make_shared<Transcript>();
    ReplayBackend replay(transcript, "gpt-4", 3);
    ChatRequest request;
    request.messages.push_back({Role::User, "task: apply_rule\n"});
    EXPECT_THROW((void)replay.complete(request), std::out_of_range);
}

TEST(ReplayBackendTest, RecordingDelegatesAndStores) {
    const auto transcript = std::make_shared<Transcript>();
    RecordingBackend recorder(transcript,
                              std::make_unique<SimLLM>(gpt4_profile(), 5),
                              "gpt-4", 5);
    ChatRequest request;
    request.sequence = 1;
    request.messages.push_back(
        {Role::User, "task: extract_features\nerror_category: alloc\n"});
    const ChatResponse live = recorder.complete(request);
    EXPECT_EQ(transcript->size(), 1u);
    EXPECT_EQ(recorder.description(), "record(sim:gpt-4)");

    ReplayBackend replay(transcript, "gpt-4", 5);
    const ChatResponse replayed = replay.complete(request);
    EXPECT_EQ(replayed.content, live.content);
    EXPECT_EQ(replayed.latency_ms, live.latency_ms);
}

}  // namespace
}  // namespace rustbrain::llm
