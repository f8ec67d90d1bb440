// Concurrency stress for the shared stores: N threads hammering one
// verify::Oracle and one llm::PromptCache with overlapping keys must (a)
// get answers identical to a serial uncached run — the bit-identity
// contract under racing insert/lookup — and (b) leave stats that add up
// to exactly the work submitted.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dataset/corpus.hpp"
#include "llm/caching_backend.hpp"
#include "miri/mirilite.hpp"
#include "verify/oracle.hpp"

namespace rustbrain::verify {
namespace {

/// Field-wise MiriReport comparison (no operator==): findings, outputs and
/// step counts are the full observable surface.
bool report_matches(const miri::MiriReport& a, const miri::MiriReport& b) {
    if (a.total_steps != b.total_steps) return false;
    if (a.outputs != b.outputs) return false;
    if (a.findings.size() != b.findings.size()) return false;
    for (std::size_t i = 0; i < a.findings.size(); ++i) {
        if (a.findings[i].to_string() != b.findings[i].to_string()) {
            return false;
        }
    }
    return true;
}

TEST(VerifyStressTest, ConcurrentOracleMatchesSerialAndStatsAddUp) {
    // A small overlapping working set: every thread verifies every case,
    // offset so different threads race on different keys at any moment.
    const dataset::Corpus corpus = dataset::Corpus::standard();
    const std::size_t kCases = 6;
    ASSERT_GE(corpus.size(), kCases);
    std::vector<const dataset::UbCase*> cases;
    for (std::size_t i = 0; i < kCases; ++i) {
        cases.push_back(&corpus.cases()[i]);
    }

    // Serial reference: recompute everything.
    OracleOptions serial_options;
    serial_options.caching = false;
    const Oracle serial(std::move(serial_options));
    std::vector<miri::MiriReport> expected;
    expected.reserve(kCases);
    for (const dataset::UbCase* ub_case : cases) {
        expected.push_back(
            serial.test_source(ub_case->buggy_source, ub_case->inputs));
    }

    OracleOptions shared_options;
    shared_options.cache = std::make_shared<VerifyCache>();
    shared_options.caching = true;
    const Oracle shared(std::move(shared_options));

    constexpr std::size_t kThreads = 8;
    constexpr std::size_t kRounds = 25;
    std::atomic<std::uint64_t> mismatches{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (std::size_t round = 0; round < kRounds; ++round) {
                for (std::size_t i = 0; i < kCases; ++i) {
                    const std::size_t index = (i + t) % kCases;
                    const miri::MiriReport report = shared.test_source(
                        cases[index]->buggy_source, cases[index]->inputs);
                    if (!report_matches(report, expected[index])) {
                        ++mismatches;
                    }
                }
            }
        });
    }
    for (std::thread& thread : threads) thread.join();
    EXPECT_EQ(mismatches.load(), 0u);

    // Every test_source call is exactly one program lookup and one report
    // lookup; racing threads may each miss the same cold key (both then
    // compute — still correct), so misses are bounded below by the distinct
    // keys and above by the thread count times that.
    const VerifyCacheStats stats = shared.stats();
    const std::uint64_t calls = kThreads * kRounds * kCases;
    EXPECT_EQ(stats.program_hits + stats.program_misses, calls);
    EXPECT_EQ(stats.report_hits + stats.report_misses, calls);
    EXPECT_GE(stats.program_misses, kCases);
    EXPECT_LE(stats.program_misses, kThreads * kCases);
    EXPECT_GE(stats.report_misses, kCases);
    EXPECT_LE(stats.report_misses, kThreads * kCases);
    EXPECT_GT(stats.report_hits, 0u);
    EXPECT_LE(stats.programs, kCases);
    EXPECT_LE(stats.reports, kCases);
}

TEST(VerifyStressTest, ConcurrentPromptCacheKeepsValuesAndCountsEveryLookup) {
    llm::PromptCache cache;
    constexpr std::size_t kThreads = 8;
    constexpr std::size_t kOps = 2000;
    constexpr std::uint64_t kKeys = 64;  // heavily overlapping
    std::atomic<std::uint64_t> wrong_values{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (std::size_t op = 0; op < kOps; ++op) {
                const std::uint64_t key = (op * 7 + t) % kKeys;
                const std::string want = "response-" + std::to_string(key);
                if (const auto hit = cache.lookup(key)) {
                    if (hit->content != want) ++wrong_values;
                } else {
                    llm::ChatResponse response;
                    response.content = want;
                    cache.insert(key, response);
                }
            }
        });
    }
    for (std::thread& thread : threads) thread.join();
    EXPECT_EQ(wrong_values.load(), 0u);

    const llm::PromptCacheStats stats = cache.stats();
    EXPECT_EQ(stats.hits + stats.misses, kThreads * kOps);
    EXPECT_GE(stats.misses, kKeys);             // each key cold once
    EXPECT_LE(stats.misses, kThreads * kKeys);  // racing cold misses at most
    EXPECT_EQ(stats.entries, kKeys);
    EXPECT_EQ(stats.evictions, 0u);  // default capacity dwarfs the key set
    // Every key is retrievable with its value after the stampede.
    for (std::uint64_t key = 0; key < kKeys; ++key) {
        const auto hit = cache.lookup(key);
        ASSERT_TRUE(hit.has_value()) << "key " << key;
        EXPECT_EQ(hit->content, "response-" + std::to_string(key));
    }
}

}  // namespace
}  // namespace rustbrain::verify
