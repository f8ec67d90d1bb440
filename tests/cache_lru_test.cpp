// support::LruMap and the shared caches built on it: true LRU keeps hot
// entries alive under eviction pressure, and the eviction/age stats
// surface what was dropped.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "llm/caching_backend.hpp"
#include "support/lru.hpp"
#include "verify/oracle.hpp"

namespace rustbrain::support {
namespace {

TEST(LruMapTest, FindPromotesAndInsertEvictsTheColdest) {
    LruMap<int, std::string> map;
    map.configure(3);
    map.insert(1, "one");
    map.insert(2, "two");
    map.insert(3, "three");
    // Touch 1 so 2 becomes the least recently used.
    ASSERT_NE(map.find(1), nullptr);
    map.insert(4, "four");
    EXPECT_EQ(map.find(2), nullptr);  // evicted
    EXPECT_NE(map.find(1), nullptr);
    EXPECT_NE(map.find(3), nullptr);
    EXPECT_NE(map.find(4), nullptr);
    EXPECT_EQ(map.size(), 3u);
    EXPECT_EQ(map.stats().evictions, 1u);
}

TEST(LruMapTest, HotKeySurvivesSustainedEvictionPressure) {
    // The regression flush-on-cap failed: a key touched on every access
    // must survive arbitrarily many cold inserts.
    LruMap<int, int> map;
    map.configure(4);
    map.insert(0, 0);
    for (int cold = 1; cold <= 100; ++cold) {
        ASSERT_NE(map.find(0), nullptr) << "hot key evicted at " << cold;
        map.insert(cold, cold);
    }
    EXPECT_NE(map.find(0), nullptr);
    EXPECT_EQ(map.stats().evictions, 97u);  // 101 inserts into capacity 4
}

TEST(LruMapTest, PeekDoesNotPromote) {
    // The collision-check probe: VerifyCache peeks, validates the source,
    // and only a validated hit may refresh the entry's LRU position. A
    // mismatching probe (counted as a miss) must leave the order alone.
    LruMap<int, std::string> map;
    map.configure(2);
    map.insert(1, "one");
    map.insert(2, "two");
    // 1 is the LRU victim; repeated peeks must not rescue it.
    for (int i = 0; i < 5; ++i) ASSERT_NE(map.peek(1), nullptr);
    map.insert(3, "three");
    EXPECT_EQ(map.peek(1), nullptr);  // evicted: peeks were not accesses
    EXPECT_NE(map.peek(2), nullptr);
    EXPECT_NE(map.peek(3), nullptr);
}

TEST(LruMapTest, EvictedIdleTicksMeasureVictimColdness) {
    LruMap<int, int> map;
    map.configure(2);
    map.insert(1, 1);
    map.insert(2, 2);
    // Several accesses to 2 age entry 1 before it gets evicted.
    for (int i = 0; i < 5; ++i) ASSERT_NE(map.find(2), nullptr);
    map.insert(3, 3);  // evicts 1, idle for the 5 finds + this insert's tick
    EXPECT_EQ(map.stats().evictions, 1u);
    EXPECT_GE(map.stats().evicted_idle_ticks, 5u);
}

TEST(PromptCacheLruTest, HotPromptSurvivesEvictionPressure) {
    llm::PromptCache cache(/*capacity_per_shard=*/4);
    llm::ChatResponse response;
    response.content = "hot";
    constexpr std::uint64_t kShardStride = 16;  // all keys land in shard 0
    cache.insert(0, response);
    for (std::uint64_t cold = 1; cold <= 64; ++cold) {
        ASSERT_TRUE(cache.lookup(0).has_value())
            << "hot prompt evicted after " << cold << " cold inserts";
        llm::ChatResponse filler;
        filler.content = "cold";
        cache.insert(cold * kShardStride, filler);
    }
    EXPECT_TRUE(cache.lookup(0).has_value());
    EXPECT_EQ(cache.lookup(0)->content, "hot");
    const llm::PromptCacheStats stats = cache.stats();
    EXPECT_GT(stats.evictions, 0u);
    EXPECT_GT(stats.evicted_idle_ticks, 0u);
    // An early cold key is long gone.
    EXPECT_FALSE(cache.lookup(1 * kShardStride).has_value());
}

TEST(VerifyCacheLruTest, HotProgramSurvivesAndEvictionsAreCounted) {
    verify::OracleOptions options;
    options.cache = std::make_shared<verify::VerifyCache>(
        /*programs_per_shard=*/2, /*reports_per_shard=*/2);
    options.caching = true;
    const verify::Oracle oracle(std::move(options));

    const std::string hot = "fn main() {\n    print_int(1);\n}\n";
    (void)oracle.compile(hot);
    for (int cold = 0; cold < 40; ++cold) {
        // Touch the hot program, then push a fresh source through the same
        // (sharded) store.
        verify::VerifyOutcome outcome;
        (void)oracle.compile(hot, &outcome);
        EXPECT_TRUE(outcome.program_cached)
            << "hot program fell out of the cache at " << cold;
        const std::string fresh = "fn main() {\n    print_int(" +
                                  std::to_string(100 + cold) + ");\n}\n";
        (void)oracle.compile(fresh);
    }
    const verify::VerifyCacheStats stats = oracle.stats();
    EXPECT_GT(stats.program_evictions, 0u);
    EXPECT_GT(stats.program_hits, 0u);
}

}  // namespace
}  // namespace rustbrain::support
