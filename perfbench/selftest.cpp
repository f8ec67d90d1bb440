// Self-tests of the benchmark's own arithmetic: the percentile rule, the
// per-case minimum, span self time and the stratified selection.
//
//   rbbench_selftest        exits 0 when every check passes
#include <cstdio>
#include <string>
#include <vector>

#include "perfbench.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
    if (!ok) {
        ++failures;
        std::printf("FAIL: %s\n", what.c_str());
    }
}

bool near(double a, double b) { return a - b < 1e-9 && b - a < 1e-9; }

void percentile_rule() {
    std::vector<double> v;
    for (int i = 1; i <= 100; ++i) v.push_back(i);
    expect(near(perfbench::percentile(v, 0.50), 50), "p50 of 1..100 is 50");
    expect(near(perfbench::percentile(v, 0.99), 99), "p99 of 1..100 is 99");
    expect(near(perfbench::percentile(v, 1.0), 100), "p100 is the maximum");
    expect(near(perfbench::median({3, 1, 2}), 2), "odd median");
    expect(near(perfbench::median({4, 1, 2, 3}), 2.5), "even median");
    // At least ten samples beyond the reported percentile.
    expect(perfbench::samples_beyond(1000, 0.99) == 10, "1000 samples: 10 beyond p99");
    expect(perfbench::percentile_supported(1000, 0.99), "p99 of 1000 is reportable");
    expect(!perfbench::percentile_supported(999, 0.99), "p99 of 999 is not");
    expect(!perfbench::percentile_supported(100, 0.99), "p99 of 100 is not");
    expect(perfbench::percentile_supported(20, 0.50), "p50 of 20 is reportable");
    expect(!perfbench::percentile_supported(19, 0.50), "p50 of 19 is not");
}

void per_case_min() {
    std::vector<double> best;
    perfbench::keep_min(best, {3, 1, 4});
    perfbench::keep_min(best, {2, 5, 4});
    perfbench::keep_min(best, {9, 2, 1});
    expect(best == std::vector<double>({2, 1, 1}), "minimum of each case");
    bool threw = false;
    try {
        perfbench::keep_min(best, {1, 2});
    } catch (const std::invalid_argument&) {
        threw = true;
    }
    expect(threw, "repetitions of different sizes are refused");
}

void span_self_time() {
    using perfbench::Span;
    // Parent [0, 10) with children [1, 3) and [2, 5) overlapping, [7, 8),
    // and [9, 12) running past the parent's end.
    std::vector<Span> spans = {
        {"parent", 0, 10, -1, 1}, {"a", 1, 3, 0, 1}, {"b", 2, 5, 0, 1},
        {"c", 7, 8, 0, 1},        {"d", 9, 12, 0, 1}, {"leaf", 2.5, 3.5, 2, 1},
    };
    const std::vector<double> self = perfbench::self_times(spans);
    // Children cover [1, 5) + [7, 8) + [9, 10) = 6 of the parent's 10.
    expect(near(self[0], 4.0), "parent self time subtracts the union of children");
    expect(near(self[1], 2.0), "a has no children");
    expect(near(self[2], 2.0), "b minus its child [2.5, 3.5)");
    expect(near(self[4], 3.0), "d keeps its whole duration");
    expect(near(perfbench::covered({{0, 1}, {1, 2}}, 0, 2), 2.0),
           "touching intervals");
    expect(near(perfbench::covered({}, 0, 5), 0.0), "no intervals");

    perfbench::Tracer tracer;
    {
        perfbench::Scope outer(&tracer, "outer", 9);
        perfbench::Scope inner(&tracer, "inner");
    }
    const std::vector<Span> recorded = tracer.spans();
    expect(recorded.size() == 2 && recorded[1].parent == 0,
           "a span opened inside another becomes its child");
    expect(recorded.size() == 2 && recorded[1].group == 9,
           "a child inherits its parent's group");
}

void stratified() {
    const std::vector<bool> flags = {false, true, false, false, true, false};
    const auto pick = perfbench::stratified_pick(flags, 4, 1);
    expect(pick == std::vector<std::size_t>({0, 1, 2, 3}),
           "first heavy and first light cases in pool order");
    expect(perfbench::stratified_pick(flags, 4, 3).empty(),
           "too few heavy cases gives no pick");
    expect(perfbench::stratified_pick(flags, 6, 2).size() == 6, "whole pool");
}

}  // namespace

int main() {
    percentile_rule();
    per_case_min();
    span_self_time();
    stratified();
    if (failures == 0) std::printf("rbbench_selftest: all checks passed\n");
    return failures == 0 ? 0 : 1;
}
