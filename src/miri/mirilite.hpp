// MiriLite — the reproduction's stand-in for the Miri UB detector.
//
// A "Miri test" in the paper means: run the program under the interpreter
// and report UB. Our driver additionally runs the program once per input
// vector (the dataset's semantic benchmark inputs) and aggregates distinct
// findings, which is what the repair loop consumes as its error count
// sequence N = {n_0, n_1, ...}.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "lang/ast.hpp"
#include "miri/finding.hpp"
#include "miri/interp.hpp"

namespace rustbrain::miri {

struct MiriReport {
    /// Distinct findings (deduplicated by category+message) across all runs.
    std::vector<Finding> findings;
    /// Observable output per input run (valid even when a run hit UB —
    /// output up to the failure point).
    std::vector<std::vector<std::string>> outputs;
    std::uint64_t total_steps = 0;

    [[nodiscard]] bool passed() const { return findings.empty(); }
    [[nodiscard]] std::size_t error_count() const { return findings.size(); }
    [[nodiscard]] bool has_category(UbCategory category) const;
    [[nodiscard]] std::string summary() const;
};

/// The per-input driver every interpreter front shares (MiriLite, the
/// Oracle's tiers, test doubles): call `run` (inputs -> RunResult) once per
/// input vector — once with no inputs when `input_sets` is empty — and
/// merge in input order: steps summed, one output per run, findings
/// de-duplicated by Finding::key() in first-seen order.
template <typename Run>
[[nodiscard]] MiriReport merge_runs(
    const std::vector<std::vector<std::int64_t>>& input_sets, Run&& run) {
    static const std::vector<std::vector<std::int64_t>> kNoInputs{{}};
    MiriReport report;
    std::set<std::string> seen;
    for (const auto& inputs : input_sets.empty() ? kNoInputs : input_sets) {
        RunResult result = run(inputs);
        report.total_steps += result.steps;
        report.outputs.push_back(std::move(result.output));
        if (result.finding && seen.insert(result.finding->key()).second) {
            report.findings.push_back(std::move(*result.finding));
        }
    }
    return report;
}

class MiriLite {
  public:
    explicit MiriLite(InterpLimits limits = {}) : limits_(limits) {}

    /// Type-check (CompileError findings on failure) then interpret the
    /// program once per input vector. An empty `input_sets` means one run
    /// with no inputs.
    [[nodiscard]] MiriReport test(const lang::Program& program,
                                  const std::vector<std::vector<std::int64_t>>&
                                      input_sets) const;

    /// Parse + test. Parse failures also come back as CompileError findings.
    [[nodiscard]] MiriReport test_source(
        const std::string& source,
        const std::vector<std::vector<std::int64_t>>& input_sets) const;

  private:
    InterpLimits limits_;
};

}  // namespace rustbrain::miri
