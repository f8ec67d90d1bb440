// Fixed-size worker pool for corpus-scale fan-out.
//
// Two usage modes:
//   * submit(job)            — run job(worker) once, jobs taken from one
//     shared queue oldest-first (FIFO); the long-lived repair service
//     submits every request this way;
//   * parallel_for(n, body)  — run body(index, worker) for every index in
//     [0, n), load-balanced over the workers via an atomic cursor. The
//     worker id is stable for the duration of one parallel_for, so callers
//     can keep one expensive engine (e.g. a RustBrain instance) per worker.
//
// Exceptions thrown by jobs are captured and rethrown on the calling
// thread (first one wins); remaining indices are drained without running.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace rustbrain::support {

class ThreadPool {
  public:
    /// `threads == 0` means hardware_threads().
    explicit ThreadPool(std::size_t threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    [[nodiscard]] std::size_t size() const { return workers_.size(); }

    /// Enqueue one job, run as job(worker) with `worker` in [0, size()).
    /// Jobs start in submission order. wait_idle() blocks until all
    /// submitted jobs finish.
    void submit(std::function<void(std::size_t worker)> job);

    /// Block until the queue is empty and every worker is idle, then rethrow
    /// the first exception any job raised (if any).
    void wait_idle();

    /// Run body(index, worker) for every index in [0, count). Blocks until
    /// done; rethrows the first job exception. `worker` is in [0, size()).
    void parallel_for(std::size_t count,
                      const std::function<void(std::size_t index,
                                               std::size_t worker)>& body);

    /// A positive RUSTBRAIN_WORKERS env value if set, else
    /// max(1, std::thread::hardware_concurrency()).
    static std::size_t hardware_threads();

  private:
    void worker_loop(std::size_t worker_id);

    std::vector<std::thread> workers_;
    std::queue<std::function<void(std::size_t)>> jobs_;
    std::mutex mutex_;
    std::condition_variable job_ready_;
    std::condition_variable idle_;
    std::size_t in_flight_ = 0;
    bool stopping_ = false;
    std::exception_ptr first_error_;
};

}  // namespace rustbrain::support
