// verify::Oracle — the single entry point for "verify this source against
// these inputs", with compile-once and report memoization.
//
// Every verification in the stack — fast thinking's F1 detection, slow
// thinking's per-step checks, the semantic judge's candidate/reference
// runs, KB seeding, corpus validation, and Corpus Forge's rejection
// sampler — used to funnel through MiriLite::test_source, which re-parses
// and re-typechecks the candidate from scratch on every call. The Oracle
// splits that work into two cached stages:
//
//   1. compile-once: a sharded program cache keyed by the FNV-1a hash of
//      the source text holds parsed + typechecked + slot-lowered programs
//      (see miri/lower.hpp), so each distinct source pays the front end
//      exactly once per process;
//   2. report memoization: a sharded report cache keyed by (program
//      fingerprint, input-set fingerprint, interpreter limits) returns the
//      MiriReport of a previously-interpreted combination verbatim.
//
// Bit-identity guarantee: MiriReports are a pure function of (source,
// inputs, limits), so a cached answer is byte-identical to a live one —
// sweeps and forge runs with the cache on and off produce identical
// CaseResults and corpora (asserted in tests/verify_oracle_test.cpp and
// the corpus-forge-smoke CI job). The cache is therefore a pure
// performance knob, exactly like llm::PromptCache, whose design this
// mirrors (16-way sharding, atomic hit/miss counters, process-wide shared
// store).
//
// Escape hatch: RUSTBRAIN_VERIFY_CACHE=off (or 0/false) disables both
// caches for Oracles that don't pin the behavior explicitly — useful for
// flushing out cache-coherence bugs (CI runs the whole suite once in this
// mode).
//
// Screening tier: before interpreting, the Oracle runs the static
// pre-screener (screen/screen.hpp). A ProvenSafe verdict carries the exact
// MiriReport the interpreter would produce (outputs + step count,
// synthesized by the screener's mirror semantics), so interpretation is
// skipped entirely; LikelyUB and Unknown verdicts are advisory — MiriLite
// still runs and stays the authority. Bit-identity is preserved either
// way, asserted screen-on vs screen-off across every registry engine in
// tests/screen_soundness_test.cpp and the screen-smoke CI job. Escape
// hatch: RUSTBRAIN_SCREEN=off (or 0/false), same contract as the cache
// knob.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "lang/ast.hpp"
#include "miri/interp.hpp"
#include "miri/lower.hpp"
#include "miri/mirilite.hpp"
#include "screen/screen.hpp"
#include "support/lru.hpp"
#include "vm/bytecode.hpp"

namespace rustbrain::verify {

/// Which interpreter executes uncached runs. All three tiers are
/// observationally identical — byte-equal findings, outputs, and step
/// counts (asserted corpus-wide in tests/miri_vm_test.cpp and the
/// differential stress tests) — so the tier is a pure performance knob,
/// exactly like the caches:
///   Tree — the tree walk with name scans (the reference semantics);
///   Slot — the default: each run starts on the slot-lowered tree walk
///          and, once it outlives a fixed step budget (32,768 steps),
///          restarts from scratch on the vm (DESIGN.md §9 "Tier-up"), so
///          only long runs ever build bytecode;
///   Vm   — the flat bytecode VM for every run (dense instruction arrays
///          over an explicit value stack; see src/vm/).
enum class InterpTier { Tree, Slot, Vm };

/// "tree" / "slot" / "vm".
[[nodiscard]] const char* to_string(InterpTier tier);
/// Parses the names above; nullopt for anything else.
[[nodiscard]] std::optional<InterpTier> parse_interp_tier(
    const std::string& name);
/// "tree, slot, vm" — for error messages listing the valid set.
[[nodiscard]] std::string interp_tier_names();

/// A source text after the front end: parsed, typechecked and slot-lowered
/// (when ok()), or the verbatim parse/typecheck error MiriLite would have
/// reported. Immutable once built — the program/lowering pair is shared by
/// every interpretation of this source.
struct CompiledProgram {
    enum class FrontEnd { Ok, ParseError, TypeError };

    std::uint64_t fingerprint = 0;  // FNV-1a of the source text
    std::uint64_t check = 0;        // independent second hash (collision guard)
    std::string source;             // the exact text compiled (collision guard)
    FrontEnd front_end = FrontEnd::Ok;
    std::string error;              // set unless front_end == Ok
    lang::Program program;          // valid only when ok()
    miri::LoweredProgram lowering;  // valid only when ok()

    [[nodiscard]] bool ok() const { return front_end == FrontEnd::Ok; }

    /// Bytecode for the vm, built lazily (thread-safe, exactly once) on
    /// first use — so tree oracles never pay for it, slot oracles pay only
    /// for sources with a run past the slot budget, and the compile-once
    /// program cache amortizes the bytecode compile across every later vm
    /// interpretation of this source. Only valid when ok().
    [[nodiscard]] const vm::VmProgram& bytecode() const;

    /// vm::optimize(bytecode()) — the superinstruction/register-promotion
    /// tier — with the same lazy, exactly-once contract stacked on top:
    /// plain-vm oracles never pay for the pass, and the optimized program
    /// is derived at most once per compiled source. The result aliases
    /// bytecode()'s interned storage, which this object owns alongside it.
    [[nodiscard]] const vm::VmProgram& optimized_bytecode() const;

  private:
    mutable std::once_flag vm_once_;
    mutable vm::VmProgram vm_code_;
    mutable std::once_flag opt_once_;
    mutable vm::VmProgram opt_code_;
};

struct VerifyCacheStats {
    std::uint64_t program_hits = 0;
    std::uint64_t program_misses = 0;
    std::uint64_t report_hits = 0;
    std::uint64_t report_misses = 0;
    std::size_t programs = 0;  // distinct compiled sources held
    std::size_t reports = 0;   // distinct memoized reports held
    /// LRU evictions: single least-recently-used entries dropped at
    /// capacity, plus the summed idle age (in shard accesses) of the
    /// victims — hot entries survive pressure under LRU.
    std::uint64_t program_evictions = 0;
    std::uint64_t report_evictions = 0;
    std::uint64_t program_evicted_idle_ticks = 0;
    std::uint64_t report_evicted_idle_ticks = 0;

    [[nodiscard]] double report_hit_rate() const {
        const std::uint64_t total = report_hits + report_misses;
        return total == 0 ? 0.0 : static_cast<double>(report_hits) / total;
    }
};

/// A screening verdict remembered alongside a memoized report, so a report
/// cache hit still surfaces the verdict to thinking policies. `screened`
/// is false for entries inserted by a screen-off Oracle.
struct ScreenVerdictRecord {
    bool screened = false;
    screen::ScreenVerdict verdict;
};

/// Identity of a memoized report, borrowed from the caller for lookups so
/// the hot (hit) path never copies the input vectors. The 64-bit `hash`
/// routes and indexes; the remaining fields are the full key material,
/// re-verified on every hit. `fingerprint` + `check` are two independent
/// hashes of the source text, so even after a program eviction changes
/// which source is canonical for a fingerprint, a collision cannot be
/// served another source's report (the bit-identity contract beats a few
/// compares).
struct ReportKeyView {
    std::uint64_t hash = 0;
    std::uint64_t fingerprint = 0;
    std::uint64_t check = 0;
    miri::InterpLimits limits;
    const std::vector<std::vector<std::int64_t>>* input_sets = nullptr;
};

/// The sharded store behind Oracle. Thread-safe; shared across BatchRunner
/// workers, repeated sweeps, and every subsystem in the process (the
/// process_wide() instance) or scoped per experiment (tests).
///
/// Collision safety: entries keep their full key material (the source text
/// for programs, ReportKey for reports) and verify it on every hit; a
/// 64-bit hash collision is answered by recomputing, never by the wrong
/// entry. Growth is bounded: each shard is a support::LruMap — a full shard
/// evicts its least-recently-used entry (hits promote, so hot programs and
/// reports survive pressure). Bit-identity makes dropping entries always
/// safe — only speed is lost.
class VerifyCache {
  public:
    /// Holds ~64k programs / ~128k reports total by default. The
    /// capacities are exposed so tests can exercise eviction pressure
    /// cheaply.
    explicit VerifyCache(
        std::size_t programs_per_shard = kDefaultProgramsPerShard,
        std::size_t reports_per_shard = kDefaultReportsPerShard);

    /// Returns the canonical compiled program for `key` if it was built
    /// from exactly `source`, counting a hit or a miss.
    std::shared_ptr<const CompiledProgram> lookup_program(
        std::uint64_t key, const std::string& source);
    /// Inserts `compiled` unless an entry exists; returns the canonical
    /// entry (ours, or an equal racing thread's), or null when the slot is
    /// owned by a different source (hash collision) — the caller then uses
    /// its fresh compile uncached.
    std::shared_ptr<const CompiledProgram> insert_program(
        std::uint64_t key, std::shared_ptr<const CompiledProgram> compiled);

    /// `verdict` (optional) receives the screening record stored with the
    /// entry on a hit.
    std::optional<miri::MiriReport> lookup_report(
        const ReportKeyView& key, ScreenVerdictRecord* verdict = nullptr);
    /// Copies the key material (including the input vectors) into the entry.
    void insert_report(const ReportKeyView& key, const miri::MiriReport& report,
                       const ScreenVerdictRecord* verdict = nullptr);

    [[nodiscard]] VerifyCacheStats stats() const;

    /// The process-wide store every default-constructed Oracle shares.
    static const std::shared_ptr<VerifyCache>& process_wide();

  private:
    static constexpr std::size_t kShards = 16;
    /// Per-shard caps: ~64k programs / ~128k reports total.
    static constexpr std::size_t kDefaultProgramsPerShard = 4096;
    static constexpr std::size_t kDefaultReportsPerShard = 8192;
    struct ReportEntry {
        std::uint64_t fingerprint = 0;
        std::uint64_t check = 0;
        miri::InterpLimits limits;
        std::vector<std::vector<std::int64_t>> input_sets;
        miri::MiriReport report;
        ScreenVerdictRecord verdict;

        [[nodiscard]] bool matches(const ReportKeyView& key) const {
            return fingerprint == key.fingerprint && check == key.check &&
                   limits.max_steps == key.limits.max_steps &&
                   limits.max_call_depth == key.limits.max_call_depth &&
                   input_sets == *key.input_sets;
        }
    };
    struct Shard {
        mutable std::mutex mutex;
        support::LruMap<std::uint64_t, std::shared_ptr<const CompiledProgram>>
            programs;
        support::LruMap<std::uint64_t, ReportEntry> reports;
    };
    Shard& shard_for(std::uint64_t key) { return shards_[key % kShards]; }

    std::array<Shard, kShards> shards_;
    std::atomic<std::uint64_t> program_hits_{0};
    std::atomic<std::uint64_t> program_misses_{0};
    std::atomic<std::uint64_t> report_hits_{0};
    std::atomic<std::uint64_t> report_misses_{0};
};

struct OracleOptions {
    miri::InterpLimits limits;
    /// Store to memoize into; null => VerifyCache::process_wide().
    std::shared_ptr<VerifyCache> cache;
    /// Explicit cache on/off; unset => honour RUSTBRAIN_VERIFY_CACHE
    /// (on|1|true or off|0|false; unset env means on).
    std::optional<bool> caching;
    /// Explicit screening on/off; unset => honour RUSTBRAIN_SCREEN (same
    /// convention as the cache knob).
    std::optional<bool> screening;
    /// Screener budget (per-candidate abstract-op cap).
    screen::ScreenOptions screen;
    /// Which interpreter runs uncached work; unset => honour
    /// RUSTBRAIN_INTERP=tree|slot|vm (unset env means slot, which tiers
    /// up to the vm for long runs). Pure performance knob: reports are
    /// byte-identical across tiers.
    std::optional<InterpTier> interp;
    /// Run the vm on vm::optimize output (superinstructions + register
    /// promotion)? Unset => honour RUSTBRAIN_VM_OPT (same convention as
    /// the cache knob). Applies to the vm tier and to the slot tier's
    /// tiered-up long runs; ignored by the tree tier. Byte-identical
    /// either way — a pure performance knob.
    std::optional<bool> vm_opt;
};

/// Counters for the Oracle's screening tier (process- or oracle-lifetime,
/// like VerifyCacheStats).
struct ScreenStats {
    std::uint64_t screens = 0;      // screenings actually run
    std::uint64_t proven_safe = 0;  // => interpretation skipped
    std::uint64_t likely_ub = 0;    // advisory: category statically pinned
    std::uint64_t unknown = 0;      // screener degraded; MiriLite decided
    std::uint64_t synthesized = 0;  // reports served from the screener
    std::uint64_t ops = 0;          // total abstract ops spent screening
};

/// Per-call cache observation, for callers that surface hit/miss telemetry
/// (AgentContext stamps it into Verify trace events).
struct VerifyOutcome {
    bool program_cached = false;
    bool report_cached = false;
    /// Screening verdict for this call — live from the screener, or
    /// replayed from the report cache entry (screened == false when the
    /// verdict never existed: screening off, or a front-end error).
    bool screened = false;
    screen::ScreenVerdict screen_verdict;
    /// True when the report was synthesized from a ProvenSafe verdict and
    /// interpretation was skipped (never true on cache-hit replays).
    bool screen_synthesized = false;
};

class Oracle {
  public:
    /// Throws std::invalid_argument, naming the variable and listing the
    /// accepted values, when an env knob it honours (RUSTBRAIN_VERIFY_CACHE,
    /// _SCREEN, _INTERP, _VM_OPT) holds any other value.
    explicit Oracle(OracleOptions options = {});
    virtual ~Oracle() = default;
    Oracle(const Oracle&) = delete;
    Oracle& operator=(const Oracle&) = delete;

    /// Parse + typecheck + interpret `source` once per input vector,
    /// byte-identical to MiriLite::test_source over the same limits.
    /// Thread-safe; `outcome` (optional) reports where the answer came from.
    [[nodiscard]] miri::MiriReport test_source(
        const std::string& source,
        const std::vector<std::vector<std::int64_t>>& input_sets,
        VerifyOutcome* outcome = nullptr) const;

    /// Front-end half only: the cached parsed + typechecked + lowered
    /// program for `source` (subsystems that also need the AST — KB
    /// seeding, the forge — share the compile with later verifications).
    [[nodiscard]] std::shared_ptr<const CompiledProgram> compile(
        const std::string& source, VerifyOutcome* outcome = nullptr) const;

    [[nodiscard]] bool caching_enabled() const { return caching_; }
    [[nodiscard]] bool screening_enabled() const { return screening_; }
    [[nodiscard]] InterpTier interp_tier() const { return interp_; }
    [[nodiscard]] bool vm_opt_enabled() const { return vm_opt_; }
    [[nodiscard]] const miri::InterpLimits& limits() const { return limits_; }
    [[nodiscard]] const std::shared_ptr<VerifyCache>& cache() const {
        return cache_;
    }
    [[nodiscard]] VerifyCacheStats stats() const { return cache_->stats(); }
    [[nodiscard]] ScreenStats screen_stats() const;
    /// One-line human-readable stats (the summary examples print).
    [[nodiscard]] std::string stats_summary() const;
    /// One-line screening stats, same audience as stats_summary().
    [[nodiscard]] std::string screen_summary() const;

    /// The process-wide Oracle (default limits, process-wide cache) used by
    /// every call site that isn't wired to an explicit one.
    static const Oracle& shared_default();

  protected:
    /// The uncached unit of work: run the selected tier once per input
    /// vector (under the slot tier, a run past the step budget restarts on
    /// the vm), merging outputs and de-duplicated findings in input order.
    /// Virtual so tests can count real interpretations through a counting
    /// double.
    [[nodiscard]] virtual miri::MiriReport interpret(
        const CompiledProgram& compiled,
        const std::vector<std::vector<std::int64_t>>& input_sets) const;

  private:
    [[nodiscard]] std::shared_ptr<const CompiledProgram> compile_uncached(
        const std::string& source, std::uint64_t fingerprint) const;
    /// compile() plus whether the returned program is the cache-canonical
    /// entry for its fingerprint. Only canonical programs may key the
    /// report cache — a hash-colliding source compiles fresh each time and
    /// skips report memoization entirely, staying correct (just uncached).
    [[nodiscard]] std::shared_ptr<const CompiledProgram> compile_guarded(
        const std::string& source, VerifyOutcome* outcome,
        bool* canonical) const;
    /// The screening tier: run the pre-screener (when enabled), serve a
    /// ProvenSafe synthesis directly, fall through to interpret() otherwise.
    /// `record` (optional) receives the verdict for report-cache storage.
    [[nodiscard]] miri::MiriReport screen_or_interpret(
        const CompiledProgram& compiled,
        const std::vector<std::vector<std::int64_t>>& input_sets,
        VerifyOutcome* outcome, ScreenVerdictRecord* record) const;

    miri::InterpLimits limits_;
    std::shared_ptr<VerifyCache> cache_;
    bool caching_ = true;
    bool screening_ = true;
    InterpTier interp_ = InterpTier::Slot;
    bool vm_opt_ = true;
    screen::ScreenOptions screen_options_;
    mutable std::atomic<std::uint64_t> screens_{0};
    mutable std::atomic<std::uint64_t> screen_proven_{0};
    mutable std::atomic<std::uint64_t> screen_likely_{0};
    mutable std::atomic<std::uint64_t> screen_unknown_{0};
    mutable std::atomic<std::uint64_t> screen_synthesized_{0};
    mutable std::atomic<std::uint64_t> screen_ops_{0};
};

/// `oracle`, or the process-wide default when null — the fallback every
/// consumer of an optional oracle pointer shares.
[[nodiscard]] inline const Oracle& resolve(const Oracle* oracle) {
    return oracle != nullptr ? *oracle : Oracle::shared_default();
}

}  // namespace rustbrain::verify
