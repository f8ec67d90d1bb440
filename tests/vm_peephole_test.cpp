// vm::optimize — the legality contract of DESIGN.md §11, tested from both
// ends: structurally (each superinstruction is actually emitted for its
// pattern, jump targets survive the rewrite, promoted frames get
// registers) and observationally (for every fused opcode, findings,
// outputs, spans, and above all *step counts* are byte-identical to the
// tree walk and to the unoptimized VM; five forged corpora render
// bit-identically with every verification on optimized and on plain
// bytecode; the tree tier never pays for a bytecode compile at all, and
// the slot tier pays only for runs past its 32,768-step budget, which
// restart on the vm and still match the tree walk byte for byte).
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/batch_runner.hpp"
#include "dataset/corpus.hpp"
#include "gen/forge.hpp"
#include "kb/seed.hpp"
#include "lang/parser.hpp"
#include "lang/typecheck.hpp"
#include "miri/lower.hpp"
#include "miri/mirilite.hpp"
#include "serve/wire.hpp"
#include "verify/oracle.hpp"
#include "vm/bytecode.hpp"
#include "vm/peephole.hpp"
#include "vm_oracle.hpp"

namespace rustbrain {
namespace {

using Inputs = std::vector<std::vector<std::int64_t>>;

/// Parse → typecheck → lower → compile → optimize, keeping every owner
/// alive together (VmProgram borrows type and name storage from program).
struct Compiled {
    lang::Program program;
    miri::LoweredProgram lowered;
    vm::VmProgram raw;
    vm::VmProgram optimized;

    explicit Compiled(const std::string& source)
        : program([&] {
              std::string error;
              auto parsed = lang::try_parse(source, &error);
              if (!parsed) throw std::runtime_error("parse: " + error);
              return std::move(*parsed);
          }()) {
        std::string error;
        if (!lang::type_check(program, &error)) {
            throw std::runtime_error("typecheck: " + error);
        }
        lowered = miri::lower_program(program);
        raw = vm::compile(program, lowered);
        optimized = vm::optimize(raw);
    }
};

std::size_t count_ops(const vm::VmProgram& program, vm::Op op) {
    std::size_t n = 0;
    for (const vm::Instr& instr : program.code) {
        if (instr.op == op) ++n;
    }
    return n;
}

void expect_reports_equal(const miri::MiriReport& want,
                          const miri::MiriReport& got,
                          const std::string& context) {
    EXPECT_EQ(want.total_steps, got.total_steps) << context;
    EXPECT_EQ(want.outputs, got.outputs) << context;
    ASSERT_EQ(want.findings.size(), got.findings.size()) << context;
    for (std::size_t i = 0; i < want.findings.size(); ++i) {
        EXPECT_EQ(want.findings[i].to_string(), got.findings[i].to_string())
            << context;
        EXPECT_EQ(want.findings[i].span.begin, got.findings[i].span.begin)
            << context;
        EXPECT_EQ(want.findings[i].span.end, got.findings[i].span.end)
            << context;
    }
}

/// Tree walk vs unoptimized VM vs optimized VM, all three byte-compared.
void expect_opt_exact(const std::string& source, const Inputs& inputs = {},
                      miri::InterpLimits limits = {}) {
    const miri::MiriLite tree_walk(limits);
    const miri::MiriReport reference = tree_walk.test_source(source, inputs);
    for (const bool opt : {false, true}) {
        verify::OracleOptions options;
        options.limits = limits;
        options.caching = false;
        const verify::VmOracle oracle(options, opt);
        expect_reports_equal(reference, oracle.test_source(source, inputs),
                             std::string(opt ? "vm-opt" : "vm") + "\n" +
                                 source);
    }
}

/// One pattern exemplar per fused opcode: the source must make the
/// optimizer emit the opcode (asserted structurally — a silently dead
/// pattern would make the step-count assertion vacuous), and the fused
/// replay must report the exact step count of its unfused expansion.
struct FusedCase {
    vm::Op op;
    const char* name;
    const char* source;
};

const std::vector<FusedCase>& fused_cases() {
    static const std::vector<FusedCase> cases = {
        {vm::Op::BinaryLocals, "BinaryLocals",
         "fn main() { let a = 3; let b = 4; let c = a + b; print_int(c); }"},
        {vm::Op::BinaryLocalImm, "BinaryLocalImm",
         "fn main() { let a = 3; let c = a * 10; print_int(c); }"},
        {vm::Op::StoreLocal, "StoreLocal",
         "fn main() { let mut x = 0; x = 5; print_int(x); }"},
        {vm::Op::CompareBranch, "CompareBranch",
         "fn main() { let mut i = 0; let n = 4;\n"
         "  while i * 2 < n * 3 { i = i + 1; } print_int(i); }"},
        {vm::Op::StepN, "StepN",
         "fn main() { let x = ((1 + 2) + 3) + 4; print_int(x); }"},
        {vm::Op::BinaryAccImm, "BinaryAccImm",
         "fn main() { let a = 3; let b = 4;\n"
         "  let y = a * 31 + b * 2; print_int(y); }"},
        {vm::Op::BinaryStackImm, "BinaryStackImm",
         "fn main() { let a = 3; let b = 4;\n"
         "  let y = (a + b) % 7; print_int(y); }"},
        {vm::Op::LocalsBranch, "LocalsBranch",
         "fn main() { let mut i = 0; let n = 5;\n"
         "  while i < n { i = i + 1; } print_int(i); }"},
        {vm::Op::LocalImmBranch, "LocalImmBranch",
         "fn main() { let mut i = 0;\n"
         "  while i < 5 { i = i + 1; } print_int(i); }"},
    };
    return cases;
}

TEST(VmPeepholeTest, EveryFusedOpcodeIsEmittedForItsPattern) {
    for (const FusedCase& fused : fused_cases()) {
        SCOPED_TRACE(fused.name);
        const Compiled compiled(fused.source);
        EXPECT_EQ(count_ops(compiled.raw, fused.op), 0u)
            << "vm::compile must never emit superinstructions";
        EXPECT_GE(count_ops(compiled.optimized, fused.op), 1u)
            << fused.source;
    }
}

TEST(VmPeepholeTest, EveryFusedOpcodeReplaysItsExpansionStepCounts) {
    for (const FusedCase& fused : fused_cases()) {
        SCOPED_TRACE(fused.name);
        expect_opt_exact(fused.source);
    }
}

TEST(VmPeepholeTest, StepLimitPanicsIdenticallyInsideFusedWindows) {
    // Crossing max_steps mid-superinstruction forces the slow replay
    // paths of StepN / step2: the panic's span and the step snapshot must
    // match the tree walk at every possible crossing point.
    const char* source =
        "fn main() { let mut i = 0; let mut acc = 1;\n"
        "  while i < 100000 {\n"
        "    acc = (acc * 31 + i * 2) % 1000003;\n"
        "    i = i + 1;\n"
        "  } print_int(acc); }";
    for (const std::uint64_t max_steps :
         {std::uint64_t{7}, std::uint64_t{50}, std::uint64_t{51},
          std::uint64_t{52}, std::uint64_t{53}, std::uint64_t{54},
          std::uint64_t{200}, std::uint64_t{2001}}) {
        SCOPED_TRACE(max_steps);
        miri::InterpLimits limits;
        limits.max_steps = max_steps;
        expect_opt_exact(source, {}, limits);
    }
}

TEST(VmPeepholeTest, JumpTargetsAreRemappedAcrossFusedWindows) {
    // Branch-dense control flow: every if/else arm and loop back-edge
    // lands on a window *boundary* after fusion shrinks the code, or the
    // remap would throw / the outputs would diverge.
    const char* source =
        "fn main() {\n"
        "  let mut i = 0; let mut evens = 0; let mut odds = 0;\n"
        "  while i < 25 {\n"
        "    if (i % 2) == 0 { evens = evens + i; }\n"
        "    else { if i > 12 { odds = odds + i * 3; }\n"
        "           else { odds = odds + 1; } }\n"
        "    i = i + 1;\n"
        "  }\n"
        "  print_int(evens); print_int(odds);\n"
        "}";
    const Compiled compiled(source);
    EXPECT_LT(compiled.optimized.code.size(), compiled.raw.code.size())
        << "fusion must actually shrink this program";
    expect_opt_exact(source);
}

TEST(VmPeepholeTest, PromotionKeepsTheObservableAddressStreamExact) {
    // `a` is a promotable integer local; `b` escapes through &b. The
    // printed address of b is part of the observable output, so register
    // promotion must keep the allocation (address/id) stream of promoted
    // slots via shadow allocations — or the printed value would shift.
    const char* source =
        "fn main() {\n"
        "  let a: i64 = 41;\n"
        "  let b: i64 = 1;\n"
        "  let p = &b as *const i64;\n"
        "  print_int((p as usize) as i64);\n"
        "  print_int(a + b);\n"
        "}";
    const Compiled compiled(source);
    ASSERT_GE(compiled.optimized.main_fn, 0);
    const vm::VmFunction& main_fn =
        compiled.optimized.functions[static_cast<std::size_t>(
            compiled.optimized.main_fn)];
    EXPECT_GE(main_fn.reg_count, 1u) << "`a` must be register-promoted";
    expect_opt_exact(source);
}

TEST(VmPeepholeTest, TreeTierNeverCompilesBytecode) {
    // Laziness is part of the contract: bytecode (and the optimize pass)
    // are built on first vm use, so a tree-tier oracle must leave both
    // process-wide counters untouched.
    const char* source = "fn main() { print_int(6 * 7); }";
    const std::uint64_t compiles_before =
        vm::CompileStats::bytecode_compiles.load();
    const std::uint64_t passes_before =
        vm::CompileStats::optimize_passes.load();
    verify::OracleOptions options;
    options.caching = false;
    options.interp = verify::InterpTier::Tree;
    const verify::Oracle oracle(options);
    for (int i = 0; i < 3; ++i) {
        const miri::MiriReport report = oracle.test_source(source, {});
        EXPECT_EQ(report.outputs.front().front(), "42");
    }
    EXPECT_EQ(vm::CompileStats::bytecode_compiles.load(), compiles_before);
    EXPECT_EQ(vm::CompileStats::optimize_passes.load(), passes_before);

    // First use builds the bytecode and optimizes it exactly once per
    // program, whichever form is asked for first.
    const auto compiled = oracle.compile(source);
    (void)compiled->bytecode();
    (void)compiled->optimized_bytecode();
    (void)compiled->bytecode();
    EXPECT_EQ(vm::CompileStats::bytecode_compiles.load(), compiles_before + 1);
    EXPECT_EQ(vm::CompileStats::optimize_passes.load(), passes_before + 1);
}

// --- tier-up: the slot walk restarts runs past its budget on the vm ------

/// Uncached slot-tier (default) oracle: every test_source call
/// compiles fresh and really interprets, so the bytecode builds it causes
/// show up in vm::CompileStats.
std::unique_ptr<verify::Oracle> slot_oracle(miri::InterpLimits limits = {}) {
    verify::OracleOptions options;
    options.limits = limits;
    options.caching = false;
    return std::make_unique<verify::Oracle>(options);
}

/// Bytecode compiles and optimize passes made while `verify` ran.
struct Builds {
    std::uint64_t compiles = 0;
    std::uint64_t passes = 0;
};
template <typename F>
Builds builds_during(F&& verify) {
    const std::uint64_t compiles = vm::CompileStats::bytecode_compiles.load();
    const std::uint64_t passes = vm::CompileStats::optimize_passes.load();
    verify();
    return {vm::CompileStats::bytecode_compiles.load() - compiles,
            vm::CompileStats::optimize_passes.load() - passes};
}

constexpr const char* kSpinForever = R"(fn main() {
    while true {
    }
}
)";

TEST(VmPeepholeTest, ShortSlotRunsBuildNoBytecode) {
    const auto slot = slot_oracle();
    const Builds builds = builds_during([&] {
        const miri::MiriReport report =
            slot->test_source("fn main() { print_int(6 * 7); }", {});
        EXPECT_EQ(report.outputs.front().front(), "42");
    });
    EXPECT_EQ(builds.compiles, 0u);
    EXPECT_EQ(builds.passes, 0u);
}

TEST(VmPeepholeTest, AStepLimitUnderTheSlotBudgetBuildsNoBytecode) {
    miri::InterpLimits limits;
    limits.max_steps = 500;
    miri::MiriReport report;
    const Builds builds = builds_during(
        [&] { report = slot_oracle(limits)->test_source(kSpinForever, {}); });
    EXPECT_EQ(builds.compiles, 0u);
    EXPECT_EQ(builds.passes, 0u);
    expect_reports_equal(miri::MiriLite(limits).test_source(kSpinForever, {}),
                         report, "max_steps 500");
}

TEST(VmPeepholeTest, AStepLimitRunTiersUpOnceAndMatchesTheTreeWalk) {
    miri::MiriReport report;
    const Builds builds = builds_during(
        [&] { report = slot_oracle()->test_source(kSpinForever, {}); });
    EXPECT_EQ(builds.compiles, 1u);
    EXPECT_EQ(builds.passes, 1u);
    const miri::MiriReport tree = miri::MiriLite().test_source(kSpinForever, {});
    ASSERT_EQ(tree.findings.size(), 1u);
    EXPECT_EQ(tree.findings.front().message,
              "step limit exceeded (possible infinite loop)");
    EXPECT_EQ(tree.total_steps, miri::InterpLimits{}.max_steps + 1);
    expect_reports_equal(tree, report, "default limits");
}

TEST(VmPeepholeTest, RunsEndingAtTheSlotBudgetEdgeMatchTheTreeWalk) {
    // 18 + 8 * input(0) + 13 * input(1) steps, so the inputs below end the
    // run one step before, at, and one and two steps past the 32,768-step
    // slot budget. Only the runs past it restart on the vm.
    const std::string source = R"(fn main() {
    let n = input(0);
    let k = input(1);
    let mut i: i64 = 0;
    while i < n {
        i = i + 1;
    }
    let mut j: i64 = 0;
    while j < k {
        j = j + 1;
        print_int(i + j);
    }
}
)";
    const struct {
        std::int64_t n;
        std::int64_t k;
        std::uint64_t steps;
        std::uint64_t compiles;
    } edges[] = {{4092, 1, 32767, 0},
                 {4084, 6, 32768, 0},
                 {4089, 3, 32769, 1},
                 {4094, 0, 32770, 1}};
    const miri::MiriLite tree_walk;
    const auto slot = slot_oracle();
    for (const auto& edge : edges) {
        const std::string label = "ends at step " + std::to_string(edge.steps);
        const Inputs inputs = {{edge.n, edge.k}};
        const miri::MiriReport want = tree_walk.test_source(source, inputs);
        ASSERT_TRUE(want.passed()) << label;
        ASSERT_EQ(want.total_steps, edge.steps) << label;
        miri::MiriReport got;
        const Builds builds =
            builds_during([&] { got = slot->test_source(source, inputs); });
        EXPECT_EQ(builds.compiles, edge.compiles) << label;
        expect_reports_equal(want, got, label);
    }
}

TEST(VmPeepholeTest, MixedShortAndStepLimitRunsMatchTheTreeWalk) {
    // Inputs 1 and 2 spin to the step limit, 0 prints, -3 divides by zero:
    // the two step-limit findings de-duplicate, and the order of findings
    // (step limit first, then the panic) must survive the restarts.
    const std::string source = R"(fn main() {
    let n = input(0);
    while n > 0 {
    }
    print_int(100 / (n + 3));
}
)";
    const Inputs inputs = {{1}, {0}, {-3}, {2}};
    const miri::MiriReport want = miri::MiriLite().test_source(source, inputs);
    ASSERT_EQ(want.findings.size(), 2u);
    EXPECT_EQ(want.findings[0].message,
              "step limit exceeded (possible infinite loop)");
    EXPECT_EQ(want.findings[1].message, "attempt to divide by zero");
    expect_reports_equal(want, slot_oracle()->test_source(source, inputs),
                         "mixed inputs");
}

TEST(VmPeepholeTest, ALongThreadedSlotRunMatchesTheTreeWalk) {
    // The worker outlives the budget before its write races main's.
    const std::string source = R"(static mut SHARED: i64 = 0;
fn worker() {
    let mut i: i64 = 0;
    while i < 5000 {
        i = i + 1;
    }
    unsafe {
        SHARED = i;
    }
}
fn main() {
    let handle = spawn(worker);
    unsafe {
        SHARED = 1;
    }
    join(handle);
    unsafe {
        print_int(SHARED);
    }
}
)";
    const miri::MiriReport want = miri::MiriLite().test_source(source, {});
    ASSERT_EQ(want.findings.size(), 1u);
    EXPECT_EQ(want.findings.front().category, miri::UbCategory::DataRace);
    EXPECT_GT(want.total_steps, std::uint64_t{1} << 15);
    miri::MiriReport got;
    const Builds builds =
        builds_during([&] { got = slot_oracle()->test_source(source, {}); });
    EXPECT_EQ(builds.compiles, 1u);
    expect_reports_equal(want, got, "spawn/join");
}

TEST(VmPeepholeTest, FiveForgedCorporaRenderByteIdenticalOptOnVsOff) {
    // The torture screw: five independently forged corpora, every case
    // swept through the full repair engine with every verification on the
    // vm (the VmOracle double), rendered with the serving codec, and
    // byte-compared between optimized and plain bytecode. Any divergence
    // in any fused replay shows up here.
    kb::KnowledgeBase kbase;
    kb::seed_from_corpus(dataset::Corpus::standard(), kbase);
    for (const unsigned seed : {11u, 22u, 33u, 44u, 55u}) {
        SCOPED_TRACE(seed);
        gen::ForgeOptions forge_options;
        forge_options.seed = seed;
        forge_options.count = 32;
        verify::OracleOptions forge_oracle_options;
        forge_oracle_options.cache =
            std::make_shared<verify::VerifyCache>();
        const verify::Oracle forge_oracle(std::move(forge_oracle_options));
        forge_options.oracle = &forge_oracle;
        const dataset::Corpus corpus = gen::forge_corpus(forge_options);
        ASSERT_EQ(corpus.size(), 32u);

        auto render_all = [&](bool optimized) {
            verify::OracleOptions oracle_options;
            oracle_options.cache = std::make_shared<verify::VerifyCache>();
            oracle_options.caching = true;
            core::EngineBuildContext context;
            context.knowledge_base = &kbase;
            context.oracle = std::make_shared<verify::VmOracle>(
                std::move(oracle_options), optimized);
            const core::BatchRunner runner("rustbrain", {}, context,
                                           core::BatchOptions{1});
            const core::BatchReport report = runner.run(corpus);
            std::vector<std::string> rendered;
            rendered.reserve(report.results.size());
            for (const core::CaseResult& result : report.results) {
                rendered.push_back(serve::render_case_result(result));
            }
            return rendered;
        };
        const std::vector<std::string> with_opt = render_all(true);
        const std::vector<std::string> without_opt = render_all(false);
        ASSERT_EQ(with_opt.size(), without_opt.size());
        for (std::size_t i = 0; i < with_opt.size(); ++i) {
            EXPECT_EQ(with_opt[i], without_opt[i])
                << "case " << corpus.cases()[i].id;
        }
    }
}

}  // namespace
}  // namespace rustbrain
