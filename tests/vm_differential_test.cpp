// Differential stress for the interpreter paths: a 560-case forged corpus
// swept by every registry engine through the tree reference, the default
// slot tier, and the VmOracle test double (every verification on the vm,
// over optimized and over plain bytecode) must produce byte-identical
// CaseResult fingerprints, serial and 4-worker (the verify_oracle_test
// bit-identity pattern). If any opcode, fused replay, kill order, or limit
// check drifted from the tree walk by even one step, some forged case's
// repair trajectory would diverge and the fingerprints would split. The
// slot rows tier up: a run past 32,768 steps finishes on the vm, so their
// step-limit programs run on bytecode; the slot walk's own step-limit path
// is pinned by MiriLowerTest.StepLimitExhaustionIsStableOnBothPaths.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/batch_runner.hpp"
#include "core/engine_registry.hpp"
#include "dataset/corpus.hpp"
#include "gen/forge.hpp"
#include "kb/seed.hpp"
#include "miri/mirilite.hpp"
#include "support/hashing.hpp"
#include "verify/oracle.hpp"
#include "vm_oracle.hpp"

namespace rustbrain::verify {
namespace {

/// Serialize every behavior field of every CaseResult (plus the merged
/// clock) into one FNV-1a fingerprint. Byte-identity of the blob is the
/// contract; the hash just makes the comparison one integer.
std::uint64_t fingerprint(const core::BatchReport& report) {
    std::string blob;
    for (const core::CaseResult& r : report.results) {
        blob += r.case_id;
        blob += '|';
        blob += r.pass ? '1' : '0';
        blob += r.exec ? '1' : '0';
        blob += std::to_string(r.time_ms);
        for (const auto& [category, ms] : r.time_breakdown) {
            blob += category + '=' + std::to_string(ms) + ';';
        }
        blob += std::to_string(r.solutions_generated) + ',';
        blob += std::to_string(r.steps_executed) + ',';
        blob += std::to_string(r.rollbacks) + ',';
        blob += std::to_string(r.llm_calls) + ',';
        blob += r.kb_consulted ? '1' : '0';
        blob += r.kb_skipped_by_feedback ? '1' : '0';
        blob += std::to_string(r.thinking_switches) + ',';
        blob += std::to_string(r.escalations) + ',';
        blob += std::to_string(r.early_stops) + ',';
        blob += std::to_string(r.attempts_skipped) + ',';
        for (const std::size_t errors : r.error_trajectory) {
            blob += std::to_string(errors) + ',';
        }
        blob += r.winning_rule;
        blob += '|';
        blob += r.final_source;
        blob += '\n';
    }
    blob += std::to_string(report.clock.now_ms());
    for (const auto& [category, ms] : report.clock.breakdown()) {
        blob += category + '=' + std::to_string(ms) + ';';
    }
    return support::fnv1a64(blob);
}

/// The interpreter paths under test: the tree reference, the default slot
/// tier, and every run on the vm over optimized or plain bytecode.
enum class Path { Tree, Slot, VmOpt, VmPlain };

const char* path_name(Path path) {
    switch (path) {
        case Path::Tree: return "tree";
        case Path::Slot: return "slot";
        case Path::VmOpt: return "vm-opt";
        case Path::VmPlain: return "vm-plain";
    }
    return "?";
}

/// An oracle on `path`; it interprets every uncached verification.
std::shared_ptr<Oracle> path_oracle(Path path, OracleOptions options) {
    if (path == Path::Tree) options.interp = InterpTier::Tree;
    if (path == Path::VmOpt || path == Path::VmPlain) {
        return std::make_shared<VmOracle>(std::move(options),
                                          path == Path::VmOpt);
    }
    return std::make_shared<Oracle>(std::move(options));
}

const dataset::Corpus& forged_corpus() {
    static const dataset::Corpus corpus = [] {
        gen::ForgeOptions options;
        options.seed = 21;
        options.count = 560;
        OracleOptions oracle_options;
        oracle_options.cache = std::make_shared<VerifyCache>();
        const Oracle forge_oracle(std::move(oracle_options));
        options.oracle = &forge_oracle;
        return gen::forge_corpus(options);
    }();
    return corpus;
}

TEST(VmDifferentialTest, ForgedCorpusMiriReportsAgreeAcrossAllTiers) {
    const dataset::Corpus& corpus = forged_corpus();
    ASSERT_EQ(corpus.size(), 560u);

    std::vector<std::shared_ptr<Oracle>> oracles;
    for (const Path path : {Path::Tree, Path::Slot, Path::VmOpt, Path::VmPlain}) {
        OracleOptions options;
        options.caching = false;
        oracles.push_back(path_oracle(path, std::move(options)));
    }
    auto report_blob = [](const miri::MiriReport& report) {
        std::string blob = std::to_string(report.total_steps) + '\n';
        for (const auto& outputs : report.outputs) {
            for (const std::string& line : outputs) blob += line + '\n';
            blob += '|';
        }
        for (const miri::Finding& finding : report.findings) {
            blob += finding.to_string() + '@' +
                    std::to_string(finding.span.begin) + ':' +
                    std::to_string(finding.span.end) + '\n';
        }
        return blob;
    };
    for (const dataset::UbCase& ub_case : corpus.cases()) {
        SCOPED_TRACE(ub_case.id);
        for (const std::string& source :
             {ub_case.buggy_source, ub_case.reference_fix}) {
            const std::string reference =
                report_blob(oracles[0]->test_source(source, ub_case.inputs));
            EXPECT_EQ(reference,
                      report_blob(oracles[1]->test_source(source, ub_case.inputs)))
                << source;
            EXPECT_EQ(reference,
                      report_blob(oracles[2]->test_source(source, ub_case.inputs)))
                << source;
            EXPECT_EQ(reference,
                      report_blob(oracles[3]->test_source(source, ub_case.inputs)))
                << source;
        }
    }
}

TEST(VmDifferentialTest, EveryEngineSweepsBitIdenticallyUnderEveryTier) {
    const dataset::Corpus& corpus = forged_corpus();
    ASSERT_EQ(corpus.size(), 560u);
    kb::KnowledgeBase kbase;
    kb::seed_from_corpus(dataset::Corpus::standard(), kbase);

    struct Config {
        Path path;
        std::size_t workers;
    };
    const Config baseline_config{Path::Tree, 1};
    const std::vector<Config> configs = {
        {Path::Tree, 4},  {Path::Slot, 1},    {Path::Slot, 4},
        {Path::VmOpt, 1}, {Path::VmOpt, 4},   {Path::VmPlain, 1},
        {Path::VmPlain, 4},
    };

    for (const std::string& engine_id : core::EngineRegistry::builtin().ids()) {
        SCOPED_TRACE(engine_id);

        auto sweep = [&](const Config& config) {
            OracleOptions options;
            options.cache = std::make_shared<VerifyCache>();
            options.caching = true;
            core::EngineBuildContext context;
            context.knowledge_base = &kbase;
            context.oracle = path_oracle(config.path, std::move(options));
            const core::BatchRunner runner(engine_id, {}, context,
                                           core::BatchOptions{config.workers});
            return fingerprint(runner.run(corpus));
        };

        const std::uint64_t want = sweep(baseline_config);
        for (const Config& config : configs) {
            SCOPED_TRACE(std::string(path_name(config.path)) + "/" +
                         std::to_string(config.workers) + "-worker");
            EXPECT_EQ(want, sweep(config));
        }
    }
}

}  // namespace
}  // namespace rustbrain::verify
