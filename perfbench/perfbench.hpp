// Pure helpers of the repair-stack benchmark: the percentile rule, the
// per-case minimum, span self-time arithmetic and the stratified corpus
// selection. Kept apart from rbbench.cpp so selftest.cpp can check
// them without running a workload.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// --- percentiles --------------------------------------------------------

/// Samples a percentile needs beyond it before it may be reported.
inline constexpr std::size_t kMinBeyond = 10;

/// Nearest-rank percentile: the smallest sample with at least q*n samples
/// at or below it. `q` in (0, 1].
inline double percentile(std::vector<double> values, double q) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(q * static_cast<double>(values.size()));
    const std::size_t index =
        rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return values[std::min(index, values.size() - 1)];
}

/// Samples strictly beyond the nearest-rank q-percentile of n samples.
inline std::size_t samples_beyond(std::size_t n, double q) {
    const auto rank =
        static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
    return n > rank ? n - rank : 0;
}

/// The reporting rule: a percentile is reported only with at least
/// kMinBeyond samples beyond it.
inline bool percentile_supported(std::size_t n, double q) {
    return samples_beyond(n, q) >= kMinBeyond;
}

inline double median(std::vector<double> values) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 == 1 ? values[mid]
                                   : 0.5 * (values[mid - 1] + values[mid]);
}

/// Folds one repetition's per-case times into `best`, the per-case minimum
/// over the repetitions so far; an empty `best` takes the repetition as it
/// is. A case's work is the same in every repetition and interference only
/// adds time, so its minimum is its least disturbed time.
inline void keep_min(std::vector<double>& best, const std::vector<double>& rep) {
    if (best.empty()) {
        best = rep;
        return;
    }
    if (best.size() != rep.size()) {
        throw std::invalid_argument("keep_min: repetitions of different sizes");
    }
    for (std::size_t i = 0; i < best.size(); ++i) best[i] = std::min(best[i], rep[i]);
}

// --- spans ----------------------------------------------------------------

using Clock = std::chrono::steady_clock;

struct Span {
    std::string name;
    double start_ms = 0.0;  // since the recorder's epoch
    double end_ms = 0.0;
    long parent = -1;        // index into the span list, -1 for a root
    std::uint64_t group = 0;  // the case or request the span belongs to
};

/// Length of the union of [start, end) intervals, each clipped to
/// [lo, hi).
inline double covered(std::vector<std::pair<double, double>> intervals,
                      double lo, double hi) {
    for (auto& iv : intervals) {
        iv.first = std::max(iv.first, lo);
        iv.second = std::min(iv.second, hi);
    }
    std::sort(intervals.begin(), intervals.end());
    double total = 0.0;
    double cur_lo = 0.0;
    double cur_hi = 0.0;
    bool open = false;
    for (const auto& [a, b] : intervals) {
        if (b <= a) continue;
        if (!open || a > cur_hi) {
            if (open) total += cur_hi - cur_lo;
            cur_lo = a;
            cur_hi = b;
            open = true;
        } else {
            cur_hi = std::max(cur_hi, b);
        }
    }
    if (open) total += cur_hi - cur_lo;
    return total;
}

/// Self time of every span: its duration minus the part of it that its
/// children cover (overlapping children count once).
inline std::vector<double> self_times(const std::vector<Span>& spans) {
    std::vector<std::vector<std::pair<double, double>>> children(spans.size());
    for (const Span& s : spans) {
        if (s.parent >= 0) {
            children[static_cast<std::size_t>(s.parent)].push_back(
                {s.start_ms, s.end_ms});
        }
    }
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        self[i] = (s.end_ms - s.start_ms) -
                  covered(std::move(children[i]), s.start_ms, s.end_ms);
    }
    return self;
}

/// In-memory span store. Spans nest per thread: a span opened while another
/// is open on the same thread becomes its child. Thread-safe.
class Tracer {
  public:
    Tracer() : epoch_(Clock::now()) {}

    [[nodiscard]] double now_ms() const {
        return std::chrono::duration<double, std::milli>(Clock::now() - epoch_)
            .count();
    }

    /// Opens a span and returns its index. Group 0 inherits the parent's.
    long open(std::string name, std::uint64_t group) {
        const double t = now_ms();
        std::lock_guard<std::mutex> lock(mutex_);
        const long parent = stack().empty() ? -1 : stack().back();
        if (group == 0 && parent >= 0) {
            group = spans_[static_cast<std::size_t>(parent)].group;
        }
        spans_.push_back({std::move(name), t, t, parent, group});
        const long id = static_cast<long>(spans_.size()) - 1;
        stack().push_back(id);
        return id;
    }

    void close(long id) {
        const double t = now_ms();
        std::lock_guard<std::mutex> lock(mutex_);
        spans_[static_cast<std::size_t>(id)].end_ms = t;
        auto& s = stack();
        if (!s.empty() && s.back() == id) s.pop_back();
    }

    [[nodiscard]] std::vector<Span> spans() const {
        std::lock_guard<std::mutex> lock(mutex_);
        return spans_;
    }

  private:
    // One open-span stack per (thread, tracer); a thread only ever traces
    // into one tracer at a time, so a single thread_local suffices.
    static std::vector<long>& stack() {
        thread_local std::vector<long> open;
        return open;
    }

    Clock::time_point epoch_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/// RAII span; a null tracer makes it free.
class Scope {
  public:
    Scope(Tracer* tracer, const char* name, std::uint64_t group = 0)
        : tracer_(tracer), id_(tracer ? tracer->open(name, group) : -1) {}
    ~Scope() {
        if (tracer_ != nullptr) tracer_->close(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

  private:
    Tracer* tracer_;
    long id_;
};

// --- stratified selection -------------------------------------------------

/// Picks `n` pool indices, in pool order, of which exactly `heavy` are
/// flagged heavy. Returns an empty vector when the classified prefix of the
/// pool cannot fill either quota.
inline std::vector<std::size_t> stratified_pick(
    const std::vector<bool>& heavy_flags, std::size_t n, std::size_t heavy) {
    std::vector<std::size_t> picked;
    std::size_t want_heavy = std::min(heavy, n);
    std::size_t want_light = n - want_heavy;
    for (std::size_t i = 0; i < heavy_flags.size(); ++i) {
        if (heavy_flags[i] && want_heavy > 0) {
            picked.push_back(i);
            --want_heavy;
        } else if (!heavy_flags[i] && want_light > 0) {
            picked.push_back(i);
            --want_light;
        }
    }
    if (want_heavy > 0 || want_light > 0) return {};
    return picked;
}

}  // namespace perfbench
