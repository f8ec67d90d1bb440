// ThreadPool: coverage, worker-id stability, exception propagation, reuse.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <set>
#include <stdexcept>
#include <vector>

#include "support/thread_pool.hpp"

namespace rustbrain::support {
namespace {

TEST(ThreadPoolTest, HardwareThreadsAtLeastOne) {
    EXPECT_GE(ThreadPool::hardware_threads(), 1u);
}

TEST(ThreadPoolTest, HardwareThreadsHonorsWorkerEnvOverride) {
    // Sweeps on shared machines are tuned via RUSTBRAIN_WORKERS; garbage
    // and non-positive values fall back to the detected count.
    const std::size_t detected = ThreadPool::hardware_threads();
    ASSERT_EQ(setenv("RUSTBRAIN_WORKERS", "3", 1), 0);
    EXPECT_EQ(ThreadPool::hardware_threads(), 3u);
    ASSERT_EQ(setenv("RUSTBRAIN_WORKERS", "0", 1), 0);
    EXPECT_EQ(ThreadPool::hardware_threads(), detected);
    ASSERT_EQ(setenv("RUSTBRAIN_WORKERS", "lots", 1), 0);
    EXPECT_EQ(ThreadPool::hardware_threads(), detected);
    ASSERT_EQ(setenv("RUSTBRAIN_WORKERS", "2x", 1), 0);
    EXPECT_EQ(ThreadPool::hardware_threads(), detected);
    ASSERT_EQ(unsetenv("RUSTBRAIN_WORKERS"), 0);
    EXPECT_EQ(ThreadPool::hardware_threads(), detected);
}

TEST(ThreadPoolTest, ZeroRequestsHardwareThreads) {
    ThreadPool pool(0);
    EXPECT_EQ(pool.size(), ThreadPool::hardware_threads());
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
    ThreadPool pool(4);
    constexpr std::size_t kCount = 1000;
    std::vector<std::atomic<int>> hits(kCount);
    pool.parallel_for(kCount, [&](std::size_t index, std::size_t) {
        hits[index].fetch_add(1);
    });
    for (std::size_t i = 0; i < kCount; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    }
}

TEST(ThreadPoolTest, WorkerIdsStayInRange) {
    ThreadPool pool(3);
    std::mutex mutex;
    std::set<std::size_t> seen;
    pool.parallel_for(64, [&](std::size_t, std::size_t worker) {
        const std::lock_guard<std::mutex> lock(mutex);
        seen.insert(worker);
    });
    EXPECT_FALSE(seen.empty());
    for (std::size_t worker : seen) {
        EXPECT_LT(worker, pool.size());
    }
}

TEST(ThreadPoolTest, ParallelForZeroCountIsNoop) {
    ThreadPool pool(2);
    pool.parallel_for(0, [&](std::size_t, std::size_t) { FAIL(); });
}

TEST(ThreadPoolTest, SubmitRunsJobsBeforeWaitIdleReturns) {
    ThreadPool pool(2);
    std::atomic<int> counter{0};
    std::atomic<bool> worker_out_of_range{false};
    for (int i = 0; i < 32; ++i) {
        pool.submit([&](std::size_t worker) {
            if (worker >= pool.size()) worker_out_of_range.store(true);
            counter.fetch_add(1);
        });
    }
    pool.wait_idle();
    EXPECT_EQ(counter.load(), 32);
    EXPECT_FALSE(worker_out_of_range.load());
}

TEST(ThreadPoolTest, SubmittedJobExceptionSurfacesOnceOnWaitIdle) {
    ThreadPool pool(2);
    std::atomic<int> survivors{0};
    pool.submit([](std::size_t) { throw std::runtime_error("boom"); });
    for (int i = 0; i < 8; ++i) {
        pool.submit([&](std::size_t) { survivors.fetch_add(1); });
    }
    EXPECT_THROW(pool.wait_idle(), std::runtime_error);
    // Every other job still ran, and the error is consumed by the rethrow.
    EXPECT_EQ(survivors.load(), 8);
    pool.wait_idle();
}

TEST(ThreadPoolTest, ExceptionPropagatesAndPoolStaysUsable) {
    ThreadPool pool(2);
    EXPECT_THROW(
        pool.parallel_for(100,
                          [&](std::size_t index, std::size_t) {
                              if (index == 13) {
                                  throw std::runtime_error("boom");
                              }
                          }),
        std::runtime_error);
    // The pool must still work after a failed batch.
    std::atomic<int> counter{0};
    pool.parallel_for(10, [&](std::size_t, std::size_t) { counter.fetch_add(1); });
    EXPECT_EQ(counter.load(), 10);
}

TEST(ThreadPoolTest, SameWorkerIdNeverRunsConcurrently) {
    // An engine per worker is only safe if jobs with the same worker id are
    // serialized; assert no overlap per id.
    ThreadPool pool(4);
    std::vector<std::atomic<int>> active(pool.size());
    std::atomic<bool> overlapped{false};
    pool.parallel_for(256, [&](std::size_t, std::size_t worker) {
        if (active[worker].fetch_add(1) != 0) overlapped.store(true);
        active[worker].fetch_sub(1);
    });
    EXPECT_FALSE(overlapped.load());
}

}  // namespace
}  // namespace rustbrain::support
