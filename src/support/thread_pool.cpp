#include "support/thread_pool.hpp"

#include <atomic>
#include <cstdlib>
#include <utility>

namespace rustbrain::support {

std::size_t ThreadPool::hardware_threads() {
    // Shared machines (CI, build boxes) tune sweep width without touching
    // code: a positive RUSTBRAIN_WORKERS wins over the detected core count.
    // BatchReport.workers_used reflects whatever this returns.
    if (const char* env = std::getenv("RUSTBRAIN_WORKERS")) {
        char* end = nullptr;
        const long value = std::strtol(env, &end, 10);
        if (end != env && *end == '\0' && value > 0) {
            return static_cast<std::size_t>(value);
        }
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

ThreadPool::ThreadPool(std::size_t threads) {
    const std::size_t count = threads == 0 ? hardware_threads() : threads;
    workers_.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        workers_.emplace_back([this, i] { worker_loop(i); });
    }
}

ThreadPool::~ThreadPool() {
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    job_ready_.notify_all();
    for (std::thread& worker : workers_) {
        worker.join();
    }
}

void ThreadPool::worker_loop(std::size_t worker_id) {
    while (true) {
        std::function<void(std::size_t)> job;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            job_ready_.wait(lock, [this] { return stopping_ || !jobs_.empty(); });
            if (jobs_.empty()) return;  // stopping_
            job = std::move(jobs_.front());
            jobs_.pop();
            ++in_flight_;
        }
        try {
            job(worker_id);
        } catch (...) {
            const std::lock_guard<std::mutex> lock(mutex_);
            if (!first_error_) first_error_ = std::current_exception();
        }
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            --in_flight_;
            if (in_flight_ == 0 && jobs_.empty()) idle_.notify_all();
        }
    }
}

void ThreadPool::submit(std::function<void(std::size_t worker)> job) {
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        jobs_.push(std::move(job));
    }
    job_ready_.notify_one();
}

void ThreadPool::wait_idle() {
    std::exception_ptr error;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        idle_.wait(lock, [this] { return jobs_.empty() && in_flight_ == 0; });
        error = std::exchange(first_error_, nullptr);
    }
    if (error) std::rethrow_exception(error);
}

void ThreadPool::parallel_for(
    std::size_t count,
    const std::function<void(std::size_t index, std::size_t worker)>& body) {
    if (count == 0) return;
    auto cursor = std::make_shared<std::atomic<std::size_t>>(0);
    auto failed = std::make_shared<std::atomic<bool>>(false);
    // One driver job per worker; each drains the shared cursor so indices
    // are load-balanced regardless of per-index cost.
    const std::size_t drivers = workers_.size() < count ? workers_.size() : count;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        for (std::size_t d = 0; d < drivers; ++d) {
            jobs_.emplace([cursor, failed, count, &body](std::size_t worker) {
                while (!failed->load(std::memory_order_relaxed)) {
                    const std::size_t index =
                        cursor->fetch_add(1, std::memory_order_relaxed);
                    if (index >= count) return;
                    try {
                        body(index, worker);
                    } catch (...) {
                        failed->store(true, std::memory_order_relaxed);
                        throw;
                    }
                }
            });
        }
    }
    job_ready_.notify_all();
    wait_idle();
}

}  // namespace rustbrain::support
