// Flat bytecode for MiriLite.
//
// vm::compile() takes a (type-checked, renumbered) program together with the
// LoweredProgram slot tables one step further than PR 4's slot lowering: each
// function body and each static initializer is flattened into a dense array
// of fixed-width instructions. Jump targets are instruction indices, so
// control flow is `pc = target` instead of recursive AST descent, and every
// operand the tree walk recomputed per visit (slot indices, statically known
// place types, truncated literals, overflow widths) is resolved once at
// compile time and stored inline.
//
// The contract is *byte-identity* with miri::Interpreter: the compiler emits
// one Step instruction (or folds one into the leading opcode) exactly where
// the tree walk calls step(), preserves its evaluation and allocation
// orders, and the VM reuses miri::MemoryModel unchanged — so findings,
// messages, spans, outputs, and step counts reproduce rule for rule. A
// VmProgram is a side structure like LoweredProgram: it borrows type and
// name storage from the exact Program it was compiled from and is only
// meaningful next to it (verify::Oracle owns such pairs immutably).
//
// Instructions are packed to 32 bytes (half the original 56): spans, type
// pointers, and aux pointers are interned into side tables on the VmProgram
// and instructions carry 32-bit indices. Index 0 of each table is the
// "absent" entry ({} span / null pointer), so zero-initialized fields keep
// their old meaning.
//
// vm::optimize() (src/vm/peephole.cpp) derives a second, optimized program
// from a compiled one: superinstruction fusion (with the constituent Step
// bookkeeping folded in so step counts stay exact) and register promotion of
// provably unaliased scalar locals. The optimized program shares the input
// program's interned storage contract — keep the source VmProgram alive, or
// at least the Program/strings it borrows from. DESIGN.md §11 documents the
// legality argument.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "lang/ast.hpp"
#include "miri/lower.hpp"

namespace rustbrain::vm {

enum class Op : std::uint8_t {
    // Bookkeeping -------------------------------------------------------
    Step,        // step(span): statement entry / while-iteration / expr entry
    Jump,        // pc = a
    JumpIfFalse, // pop cond; if !cond pc = a
    AndJump,     // if !top: pc = a (keep top) else pop   (short-circuit &&)
    OrJump,      // if top:  pc = a (keep top) else pop   (short-circuit ||)
    BoolNorm,    // top = boolean(top.as_bool())
    Pop,         // discard top (expression statements)

    // Pushes (leading step folded in) ----------------------------------
    PushUnit,    // no step: used for implicit unit results
    PushInt,     // step; push scalar(imm) — literal pre-truncated to type
    PushBool,    // step; push boolean(a)
    PushFn,      // step; push function(a)
    LoadLocal,   // step; slot a live ? push load : logic_error (name in aux)
    LoadStatic,  // step; static a live ? push load : fn fallback b / throw
    ThrowUnresolved, // step; throw logic_error("unresolved name '…'")

    // Places (no step; mirror eval_place) ------------------------------
    PlaceLocal,      // slot a live ? push base ptr : logic_error
    PlaceStatic,     // static a live ? push base ptr : logic_error
    PlaceUnresolved, // throw logic_error("eval_place: unresolved name '…'")
    AsPtr,           // top.as_ptr() — force the tree walk's conversion point
    IndexPlace,      // pop index, pop base; bounds-check (len=imm, elem=a)

    // Memory ------------------------------------------------------------
    LoadThrough, // pop ptr; push load(ptr, *type) at span
    StorePlace,  // pop place ptr, pop value; store at span
    RetagRef,    // pop place ptr; retag_ref(size=imm, is_mut=a); push
    DeclLocal,   // pop value; allocate+store slot a (let) — name aux, type
    DeclParam,   // declare slot a from caller arg b (or unit) at fn span
    DropArgs,    // shrink value stack to the frame's args_base
    KillSlot,    // scope exit: if slot a live, mem.kill + clear
    KillSlotTail,// become: kill_for_tail_call + clear

    // Arithmetic / casts -------------------------------------------------
    Neg,         // a unused; type = result, aux = operand Type*
    NotBool,
    NotBits,     // type = result
    Binary,      // a = lang::BinaryOp; type = result, aux = operand Type*
    Cast,        // a = CastKind (below)
    MakeArray,   // pop a elements; push array
    MakeRepeat,  // pop element; push array of imm copies

    // Calls --------------------------------------------------------------
    CallDirect,   // a = fn index, b = nargs
    CallLocalPtr, // a = slot, b = nargs, type = slot Type*, aux = name
    CallPtr,      // b = nargs; callee value sits below the args
    TailCall,     // b = nargs; become — frame reused in place
    CallUnknown,  // args evaluated, then the tree walk's logic_error
    Intrinsic,    // a = IntrinsicId, b = nargs
    Ret,          // pop frame; result stays on the value stack
    Halt,         // end of a static-initializer chunk

    // Superinstructions (emitted only by vm::optimize) -------------------
    // Each is the *exact* expansion of the listed window: the handler
    // replays the constituent step() calls (at the original spans, in the
    // original interleaving with memory accesses), so step counts and any
    // mid-window panic/UB snapshot stay byte-identical.
    BinaryLocals,   // [Step, LoadLocal lhs, LoadLocal rhs, Binary]
                    //   small = binop, a/b = lhs/rhs slot, imm = fused index
    BinaryLocalImm, // [Step, LoadLocal lhs, PushInt, Binary]
                    //   small = binop, a = lhs slot, b = fused index,
                    //   imm = pre-truncated literal
    StoreLocal,     // [PlaceLocal, StorePlace] — a = slot, no steps
    CompareBranch,  // [Binary(cmp), JumpIfFalse] — small = binop, a = target

    // Second-stage superinstructions: fuse across first-stage output.
    // Nested expressions emit their entry Steps back to back (a chain of k
    // binary nodes puts k Steps in a row before the first operand), and
    // left-leaning accumulation chains leave [BinaryLocalImm, Binary]
    // pairs. Same exact-replay contract as above.
    StepN,          // a consecutive Steps — a = count, b = step_runs offset
    BinaryAccImm,   // [BinaryLocalImm, Binary]: pop stack lhs, combine with
                    //   (local `small` imm) via fused[b]'s outer operator
    BinaryStackImm, // [PushInt, Binary]: pop lhs, eval with literal imm —
                    //   small = binop, a = span index of the PushInt's step
    LocalsBranch,   // [BinaryLocals(cmp), JumpIfFalse] — loop heads; target
                    //   in fused[imm].branch_target (no inline field free)
    LocalImmBranch, // [BinaryLocalImm(cmp), JumpIfFalse] — target in
                    //   fused[b].branch_target
};

enum class CastKind : std::int32_t {
    IntFromInt,  // b = source signed, small = source size; type = target
    IntToRawPtr,
    PtrToInt,    // type = target
    RefToRaw,    // small = writable, imm = pointee size
    FnToInt,     // type = target
    IntToFn,
    Unsupported, // aux = prebuilt logic_error message
};

enum class IntrinsicId : std::int32_t {
    Alloc,
    Dealloc,
    Offset,     // small = count-arg size, imm = element size
    PrintInt,   // small = signed, imm = arg size
    PrintBool,
    Input,
    Assert,
    Panic,
    Spawn,
    Join,
    MutexNew,
    MutexLock,
    MutexUnlock,
    AtomicLoad,
    AtomicStore,
    AtomicFetchAdd,
    Unknown,    // aux = name; throws the tree walk's logic_error
};

/// One fixed-width instruction, packed to 32 bytes (a 56-byte layout with
/// inline span/type/aux cost one extra cache line per pair of instructions).
/// `span`/`type`/`aux` index the VmProgram side tables; index 0 is the
/// absent entry, so zero-init preserves the unpacked semantics.
struct Instr {
    Op op = Op::Step;
    std::uint8_t small = 0;   // narrow operand (old `c`): sizes ≤ 8, flags
    std::uint16_t ex = 0;     // register promotion: reg index + 1, 0 = none
    std::int32_t a = 0;
    std::int32_t b = 0;
    std::uint32_t span = 0;   // index into VmProgram::spans
    std::uint32_t type = 0;   // index into VmProgram::types
    std::uint32_t aux = 0;    // index into VmProgram::auxes
    std::uint64_t imm = 0;
};
static_assert(sizeof(Instr) == 32, "Instr must stay one half cache line");

/// Cold per-superinstruction operands: the constituent spans (step replay +
/// access contexts) and names (dead-slot diagnostics), plus the promoted
/// register of each fused load (-1 = the slot stays memory-resident).
struct FusedDetail {
    std::uint32_t step_span = 0;  // leading Step's span
    std::uint32_t lhs_span = 0;   // lhs LoadLocal's span
    std::uint32_t rhs_span = 0;   // rhs LoadLocal's / PushInt's span
    std::uint32_t lhs_name = 0;   // aux index of the lhs slot's name
    std::uint32_t rhs_name = 0;   // aux index of the rhs slot's name
    std::int32_t lhs_reg = -1;
    std::int32_t rhs_reg = -1;
    /// BinaryAccImm only: the folded outer Binary (operator, result type,
    /// operand Type*, span) applied to [stack top, inner result].
    std::uint8_t outer_op = 0;
    std::uint32_t outer_span = 0;
    std::uint32_t outer_type = 0;
    std::uint32_t outer_aux = 0;
    /// LocalsBranch / LocalImmBranch only: the folded JumpIfFalse's target.
    std::int32_t branch_target = -1;
};

struct VmFunction {
    std::int32_t entry = 0;
    std::uint32_t slot_count = 0;
    /// Registers this frame needs for promoted locals (vm::optimize only;
    /// 0 straight out of vm::compile).
    std::uint32_t reg_count = 0;
    support::SourceSpan span;  // depth-check / param-declaration span
};

struct VmProgram {
    std::vector<Instr> code;
    std::vector<VmFunction> functions;
    /// Entry pc per static initializer chunk (each ends with Halt).
    std::vector<std::int32_t> static_entries;
    /// Index of `main`, -1 when absent (the VM then reports the same
    /// CompileError finding as the tree walk).
    std::int32_t main_fn = -1;

    /// Interned side tables ([0] is the absent entry). `types`/`auxes`
    /// alias storage owned by the AST or by `strings`.
    std::vector<support::SourceSpan> spans{support::SourceSpan{}};
    std::vector<const lang::Type*> types{nullptr};
    std::vector<const void*> auxes{nullptr};
    /// Cold operands of superinstructions (vm::optimize only).
    std::vector<FusedDetail> fused;
    /// Span indices replayed by StepN, one contiguous run per instruction
    /// (a = count, b = offset into this vector).
    std::vector<std::uint32_t> step_runs;

    /// Owns strings referenced through `auxes` (deque: stable addresses).
    std::deque<std::string> strings;
};

/// Flatten a lowered program into bytecode. `program` must be the exact
/// (type-checked, renumbered) tree `lowering` was built from.
[[nodiscard]] VmProgram compile(const lang::Program& program,
                                const miri::LoweredProgram& lowering);

/// Process-wide counters proving compilation laziness (the tree tier never
/// pays for bytecode, the slot tier only for runs past its step budget) and
/// pass coverage. Monotonic; tests diff before/after.
struct CompileStats {
    static std::atomic<std::uint64_t> bytecode_compiles;
    static std::atomic<std::uint64_t> optimize_passes;
};

}  // namespace rustbrain::vm
