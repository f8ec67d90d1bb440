// Differential stress for the interpreter tiers: a 560-case forged corpus
// swept by every registry engine under RUSTBRAIN_INTERP=tree, slot, and vm
// — the vm tier both with and without the vm::optimize pass
// (RUSTBRAIN_VM_OPT) — must produce byte-identical CaseResult
// fingerprints, serial and 4-worker (the verify_oracle_test bit-identity
// pattern). Tier and optimizer are pure performance knobs — if any
// opcode, fused replay, kill order, or limit check drifted from the tree
// walk by even one step, some forged case's repair trajectory would
// diverge and the fingerprints would split. The slot rows tier up: a run
// past 32,768 steps finishes on the vm, so their step-limit programs run
// on bytecode; the slot walk's own step-limit path is pinned by
// MiriLowerTest.StepLimitExhaustionIsStableOnBothPaths.
#include <gtest/gtest.h>

#include <cstdlib>
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

/// Oracle configured purely from RUSTBRAIN_INTERP (already set by the
/// caller): private cache, screening off so the selected tier actually
/// interprets every uncached verification.
std::shared_ptr<Oracle> env_gated_oracle(InterpTier expected) {
    OracleOptions options;
    options.cache = std::make_shared<VerifyCache>();
    options.caching = true;
    options.screening = false;
    auto oracle = std::make_shared<Oracle>(std::move(options));
    EXPECT_EQ(oracle->interp_tier(), expected);  // the env gate is live
    return oracle;
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

    std::vector<std::unique_ptr<Oracle>> oracles;
    for (const InterpTier tier :
         {InterpTier::Tree, InterpTier::Slot, InterpTier::Vm,
          InterpTier::Vm}) {
        OracleOptions options;
        options.caching = false;
        options.screening = false;
        options.interp = tier;
        // Third oracle runs the optimized bytecode (the default), the
        // fourth pins the optimizer off — both must match the tree walk.
        options.vm_opt = oracles.size() < 3;
        oracles.push_back(std::make_unique<Oracle>(std::move(options)));
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
        const char* tier;
        InterpTier expected;
        std::size_t workers;
        const char* vm_opt = nullptr;  // RUSTBRAIN_VM_OPT (nullptr = unset)
    };
    const Config baseline_config{"tree", InterpTier::Tree, 1};
    const std::vector<Config> configs = {
        {"tree", InterpTier::Tree, 4},
        {"slot", InterpTier::Slot, 1},
        {"slot", InterpTier::Slot, 4},
        {"vm", InterpTier::Vm, 1, "on"},
        {"vm", InterpTier::Vm, 4, "on"},
        {"vm", InterpTier::Vm, 1, "off"},
        {"vm", InterpTier::Vm, 4, "off"},
    };

    for (const std::string& engine_id : core::EngineRegistry::builtin().ids()) {
        SCOPED_TRACE(engine_id);

        auto sweep = [&](const Config& config) {
            ::setenv("RUSTBRAIN_INTERP", config.tier, 1);
            if (config.vm_opt != nullptr) {
                ::setenv("RUSTBRAIN_VM_OPT", config.vm_opt, 1);
            } else {
                ::unsetenv("RUSTBRAIN_VM_OPT");
            }
            core::EngineBuildContext context;
            context.knowledge_base = &kbase;
            context.oracle = env_gated_oracle(config.expected);
            const core::BatchRunner runner(engine_id, {}, context,
                                           core::BatchOptions{config.workers});
            return fingerprint(runner.run(corpus));
        };

        const std::uint64_t want = sweep(baseline_config);
        for (const Config& config : configs) {
            SCOPED_TRACE(std::string(config.tier) + "/" +
                         std::to_string(config.workers) + "-worker" +
                         (config.vm_opt != nullptr
                              ? std::string("/opt-") + config.vm_opt
                              : std::string()));
            EXPECT_EQ(want, sweep(config));
        }
    }
    ::unsetenv("RUSTBRAIN_INTERP");
    ::unsetenv("RUSTBRAIN_VM_OPT");
}

}  // namespace
}  // namespace rustbrain::verify
