#include "verify/oracle.hpp"

#include <algorithm>
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <utility>

#include "lang/parser.hpp"
#include "lang/typecheck.hpp"
#include "support/hashing.hpp"
#include "vm/peephole.hpp"
#include "vm/vm.hpp"

namespace rustbrain::verify {

// ---------------------------------------------------------------------------
// InterpTier
// ---------------------------------------------------------------------------

const char* to_string(InterpTier tier) {
    switch (tier) {
        case InterpTier::Tree: return "tree";
        case InterpTier::Slot: return "slot";
        case InterpTier::Vm: return "vm";
    }
    return "slot";
}

std::optional<InterpTier> parse_interp_tier(const std::string& name) {
    if (name == "tree") return InterpTier::Tree;
    if (name == "slot") return InterpTier::Slot;
    if (name == "vm") return InterpTier::Vm;
    return std::nullopt;
}

std::string interp_tier_names() { return "tree, slot, vm"; }

const vm::VmProgram& CompiledProgram::bytecode() const {
    std::call_once(vm_once_,
                   [this] { vm_code_ = vm::compile(program, lowering); });
    return vm_code_;
}

const vm::VmProgram& CompiledProgram::optimized_bytecode() const {
    std::call_once(opt_once_,
                   [this] { opt_code_ = vm::optimize(bytecode()); });
    return opt_code_;
}

// ---------------------------------------------------------------------------
// VerifyCache
// ---------------------------------------------------------------------------

VerifyCache::VerifyCache(std::size_t programs_per_shard,
                         std::size_t reports_per_shard) {
    for (Shard& shard : shards_) {
        shard.programs.configure(programs_per_shard);
        shard.reports.configure(reports_per_shard);
    }
}

std::shared_ptr<const CompiledProgram> VerifyCache::lookup_program(
    std::uint64_t key, const std::string& source) {
    Shard& shard = shard_for(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    // peek + find: a fingerprint collision (source mismatch) is a miss
    // and must not promote the colliding owner's entry to MRU.
    const auto* entry = shard.programs.peek(key);
    if (entry == nullptr || (*entry)->source != source) {
        program_misses_.fetch_add(1, std::memory_order_relaxed);
        return nullptr;
    }
    program_hits_.fetch_add(1, std::memory_order_relaxed);
    return *shard.programs.find(key);
}

std::shared_ptr<const CompiledProgram> VerifyCache::insert_program(
    std::uint64_t key, std::shared_ptr<const CompiledProgram> compiled) {
    Shard& shard = shard_for(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto* entry = shard.programs.peek(key);
    if (entry == nullptr) {
        shard.programs.insert(key, compiled);
        return compiled;
    }
    if ((*entry)->source == compiled->source) {
        // A racing thread's entry is just as canonical; promote it — this
        // was a genuine access to that program.
        return *shard.programs.find(key);
    }
    // Hash collision: the slot belongs to a different source.
    return nullptr;
}

std::optional<miri::MiriReport> VerifyCache::lookup_report(
    const ReportKeyView& key, ScreenVerdictRecord* verdict) {
    Shard& shard = shard_for(key.hash);
    std::lock_guard<std::mutex> lock(shard.mutex);
    // peek + find: a hash collision (key mismatch) is a miss and must not
    // promote the colliding owner's entry to MRU.
    const ReportEntry* entry = shard.reports.peek(key.hash);
    if (entry == nullptr || !entry->matches(key)) {
        report_misses_.fetch_add(1, std::memory_order_relaxed);
        return std::nullopt;
    }
    report_hits_.fetch_add(1, std::memory_order_relaxed);
    shard.reports.find(key.hash);  // promote the validated hit
    if (verdict != nullptr) *verdict = entry->verdict;
    return entry->report;
}

void VerifyCache::insert_report(const ReportKeyView& key,
                                const miri::MiriReport& report,
                                const ScreenVerdictRecord* verdict) {
    Shard& shard = shard_for(key.hash);
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (shard.reports.peek(key.hash) != nullptr) {
        return;  // first entry wins; a colliding key simply stays uncached
    }
    ReportEntry entry;
    entry.fingerprint = key.fingerprint;
    entry.check = key.check;
    entry.limits = key.limits;
    entry.input_sets = *key.input_sets;
    entry.report = report;
    if (verdict != nullptr) entry.verdict = *verdict;
    shard.reports.insert(key.hash, std::move(entry));
}

VerifyCacheStats VerifyCache::stats() const {
    VerifyCacheStats stats;
    stats.program_hits = program_hits_.load(std::memory_order_relaxed);
    stats.program_misses = program_misses_.load(std::memory_order_relaxed);
    stats.report_hits = report_hits_.load(std::memory_order_relaxed);
    stats.report_misses = report_misses_.load(std::memory_order_relaxed);
    for (const Shard& shard : shards_) {
        std::lock_guard<std::mutex> lock(shard.mutex);
        stats.programs += shard.programs.size();
        stats.reports += shard.reports.size();
        const support::LruStats& programs = shard.programs.stats();
        const support::LruStats& reports = shard.reports.stats();
        stats.program_evictions += programs.evictions;
        stats.report_evictions += reports.evictions;
        stats.program_evicted_idle_ticks += programs.evicted_idle_ticks;
        stats.report_evicted_idle_ticks += reports.evicted_idle_ticks;
    }
    return stats;
}

const std::shared_ptr<VerifyCache>& VerifyCache::process_wide() {
    static const std::shared_ptr<VerifyCache> store =
        std::make_shared<VerifyCache>();
    return store;
}

// ---------------------------------------------------------------------------
// Oracle
// ---------------------------------------------------------------------------

namespace {

[[noreturn]] void reject_env(const char* name, const std::string& value,
                             const std::string& accepted) {
    throw std::invalid_argument("unknown " + std::string(name) + " value '" +
                                value + "'; accepted: " + accepted);
}

/// An on/off env switch; unset means on.
bool switch_from_env(const char* name) {
    const char* value = std::getenv(name);
    if (value == nullptr) return true;
    const std::string text = value;
    if (text == "on" || text == "1" || text == "true") return true;
    if (text == "off" || text == "0" || text == "false") return false;
    reject_env(name, text, "on, off, 1, 0, true, false");
}

/// RUSTBRAIN_INTERP; unset means slot.
InterpTier interp_from_env() {
    const char* value = std::getenv("RUSTBRAIN_INTERP");
    if (value == nullptr) return InterpTier::Slot;
    const std::optional<InterpTier> tier = parse_interp_tier(value);
    if (!tier) reject_env("RUSTBRAIN_INTERP", value, interp_tier_names());
    return *tier;
}

/// Seed for the independent second source hash (an arbitrary odd constant
/// distinct from the FNV offset basis).
constexpr std::uint64_t kCheckSeed = 0x51ED270B8A2C1495ULL;

/// Steps the slot tier walks before it tiers up to the vm. Runs are bimodal:
/// over the cold sweep and the forge (~90k runs) none ended between 2^15
/// and 2^20 steps — nearly all stop under 512, the rest at the 2M step
/// limit — so short programs never pay for bytecode and a long run wastes
/// at most this prefix. Not a knob: reports are identical at any value.
constexpr std::uint64_t kSlotRunBudget = std::uint64_t{1} << 15;

ReportKeyView report_key(const CompiledProgram& compiled,
                         const std::vector<std::vector<std::int64_t>>& input_sets,
                         const miri::InterpLimits& limits) {
    std::uint64_t h = compiled.fingerprint;
    h = support::hash_combine(h, limits.max_steps);
    h = support::hash_combine(h, limits.max_call_depth);
    h = support::hash_combine(h, input_sets.size());
    for (const auto& inputs : input_sets) {
        h = support::hash_combine(h, inputs.size());
        for (std::int64_t value : inputs) {
            h = support::hash_combine(h, static_cast<std::uint64_t>(value));
        }
    }
    ReportKeyView key;
    key.hash = h;
    key.fingerprint = compiled.fingerprint;
    key.check = compiled.check;
    key.limits = limits;
    key.input_sets = &input_sets;
    return key;
}

}  // namespace

Oracle::Oracle(OracleOptions options)
    : limits_(options.limits),
      cache_(options.cache != nullptr ? std::move(options.cache)
                                      : VerifyCache::process_wide()),
      // The env is read only for knobs the options leave unset.
      caching_(options.caching ? *options.caching
                               : switch_from_env("RUSTBRAIN_VERIFY_CACHE")),
      screening_(options.screening ? *options.screening
                                   : switch_from_env("RUSTBRAIN_SCREEN")),
      interp_(options.interp ? *options.interp : interp_from_env()),
      vm_opt_(options.vm_opt ? *options.vm_opt
                             : switch_from_env("RUSTBRAIN_VM_OPT")),
      screen_options_(options.screen) {}

const Oracle& Oracle::shared_default() {
    static const Oracle oracle;
    return oracle;
}

std::shared_ptr<const CompiledProgram> Oracle::compile_uncached(
    const std::string& source, std::uint64_t fingerprint) const {
    auto compiled = std::make_shared<CompiledProgram>();
    compiled->fingerprint = fingerprint;
    compiled->check = support::fnv1a64(source, kCheckSeed);
    compiled->source = source;

    std::string parse_error;
    auto program = lang::try_parse(source, &parse_error);
    if (!program) {
        compiled->front_end = CompiledProgram::FrontEnd::ParseError;
        compiled->error = std::move(parse_error);
        return compiled;
    }
    compiled->program = std::move(*program);

    std::string type_error;
    if (!lang::type_check(compiled->program, &type_error)) {
        compiled->front_end = CompiledProgram::FrontEnd::TypeError;
        compiled->error = std::move(type_error);
        return compiled;
    }
    compiled->lowering = miri::lower_program(compiled->program);
    return compiled;
}

std::shared_ptr<const CompiledProgram> Oracle::compile_guarded(
    const std::string& source, VerifyOutcome* outcome, bool* canonical) const {
    const std::uint64_t fingerprint = support::fnv1a64(source);
    if (!caching_) {
        if (canonical != nullptr) *canonical = false;
        return compile_uncached(source, fingerprint);
    }
    if (auto cached = cache_->lookup_program(fingerprint, source)) {
        if (outcome != nullptr) outcome->program_cached = true;
        if (canonical != nullptr) *canonical = true;
        return cached;
    }
    auto compiled = compile_uncached(source, fingerprint);
    auto stored = cache_->insert_program(fingerprint, compiled);
    if (stored == nullptr) {
        // 64-bit hash collision: the slot is owned by a different source.
        // This source keeps its fresh compile and must not key the report
        // cache (the fingerprint would alias the owner's reports).
        if (canonical != nullptr) *canonical = false;
        return compiled;
    }
    if (canonical != nullptr) *canonical = true;
    return stored;
}

std::shared_ptr<const CompiledProgram> Oracle::compile(
    const std::string& source, VerifyOutcome* outcome) const {
    return compile_guarded(source, outcome, nullptr);
}

miri::MiriReport Oracle::interpret(
    const CompiledProgram& compiled,
    const std::vector<std::vector<std::int64_t>>& input_sets) const {
    // Mirrors MiriLite::test (the uncached tree-walk reference) run for run,
    // with the front end already paid and the slot-lowered program.
    const auto run_vm = [&](const std::vector<std::int64_t>& inputs) {
        return vm::Vm(compiled.program,
                      vm_opt_ ? compiled.optimized_bytecode()
                              : compiled.bytecode(),
                      inputs, limits_)
            .run();
    };
    miri::MiriReport report;
    const std::vector<std::vector<std::int64_t>> runs =
        input_sets.empty() ? std::vector<std::vector<std::int64_t>>{{}}
                           : input_sets;
    std::set<std::string> seen;
    for (const auto& inputs : runs) {
        miri::RunResult result;
        switch (interp_) {
            case InterpTier::Tree: {
                miri::Interpreter interp(compiled.program, inputs, limits_);
                result = interp.run();
                break;
            }
            case InterpTier::Slot: {
                // Tier-up: walk at most kSlotRunBudget steps; a run that
                // outlives them restarts from scratch on the vm, which
                // reproduces the walk exactly (findings, spans, outputs,
                // steps), so only long runs ever build bytecode.
                miri::InterpLimits budget = limits_;
                budget.max_steps = std::min(limits_.max_steps, kSlotRunBudget);
                miri::Interpreter interp(compiled.program, inputs, budget,
                                         &compiled.lowering);
                result = interp.run();
                if (budget.max_steps < limits_.max_steps &&
                    result.steps > budget.max_steps) {
                    result = run_vm(inputs);
                }
                break;
            }
            case InterpTier::Vm:
                result = run_vm(inputs);
                break;
        }
        report.total_steps += result.steps;
        report.outputs.push_back(std::move(result.output));
        if (result.finding && seen.insert(result.finding->key()).second) {
            report.findings.push_back(*result.finding);
        }
    }
    return report;
}

miri::MiriReport Oracle::screen_or_interpret(
    const CompiledProgram& compiled,
    const std::vector<std::vector<std::int64_t>>& input_sets,
    VerifyOutcome* outcome, ScreenVerdictRecord* record) const {
    if (screening_) {
        const screen::ScreenResult screened = screen::screen_program(
            compiled.program, compiled.lowering, input_sets, limits_,
            screen_options_);
        screens_.fetch_add(1, std::memory_order_relaxed);
        screen_ops_.fetch_add(screened.verdict.ops, std::memory_order_relaxed);
        switch (screened.verdict.kind) {
            case screen::VerdictKind::ProvenSafe:
                screen_proven_.fetch_add(1, std::memory_order_relaxed);
                break;
            case screen::VerdictKind::LikelyUB:
                screen_likely_.fetch_add(1, std::memory_order_relaxed);
                break;
            case screen::VerdictKind::Unknown:
                screen_unknown_.fetch_add(1, std::memory_order_relaxed);
                break;
        }
        if (outcome != nullptr) {
            outcome->screened = true;
            outcome->screen_verdict = screened.verdict;
        }
        if (record != nullptr) {
            record->screened = true;
            record->verdict = screened.verdict;
        }
        if (screened.verdict.kind == screen::VerdictKind::ProvenSafe) {
            // The synthesized report is exact (outputs + steps), so the
            // interpreter run is pure redundancy — skip it.
            screen_synthesized_.fetch_add(1, std::memory_order_relaxed);
            if (outcome != nullptr) outcome->screen_synthesized = true;
            return screened.report;
        }
        // LikelyUB / Unknown: advisory only — MiriLite stays the authority.
    }
    return interpret(compiled, input_sets);
}

miri::MiriReport Oracle::test_source(
    const std::string& source,
    const std::vector<std::vector<std::int64_t>>& input_sets,
    VerifyOutcome* outcome) const {
    bool canonical = false;
    const std::shared_ptr<const CompiledProgram> compiled =
        compile_guarded(source, outcome, &canonical);
    if (!compiled->ok()) {
        // Byte-identical to MiriLite's front-end failure reports. Never
        // screened: there is no program to screen.
        miri::MiriReport report;
        report.findings.push_back(
            miri::Finding{miri::UbCategory::CompileError, compiled->error, {}});
        return report;
    }
    if (!caching_ || !canonical) {
        return screen_or_interpret(*compiled, input_sets, outcome, nullptr);
    }
    const ReportKeyView key = report_key(*compiled, input_sets, limits_);
    ScreenVerdictRecord cached_verdict;
    if (auto cached = cache_->lookup_report(key, &cached_verdict)) {
        if (outcome != nullptr) {
            outcome->report_cached = true;
            // Replay the verdict stored with the entry so policies see the
            // same signal they would on a live screen. Never on a
            // screening-off oracle: the cache may be shared with screen-on
            // oracles, and "off" must stay fully inert.
            outcome->screened = screening_ && cached_verdict.screened;
            if (outcome->screened) {
                outcome->screen_verdict = cached_verdict.verdict;
            }
        }
        return *cached;
    }
    ScreenVerdictRecord record;
    const miri::MiriReport report =
        screen_or_interpret(*compiled, input_sets, outcome, &record);
    cache_->insert_report(key, report, &record);
    return report;
}

std::string Oracle::stats_summary() const {
    const VerifyCacheStats s = stats();
    return std::to_string(s.programs) + " compiled programs, " +
           std::to_string(s.reports) + " memoized reports, " +
           std::to_string(s.report_hits) + " report hits / " +
           std::to_string(s.report_misses) + " misses, " +
           std::to_string(s.program_evictions + s.report_evictions) +
           " evictions" + (caching_ ? "" : " (RUSTBRAIN_VERIFY_CACHE=off)");
}

ScreenStats Oracle::screen_stats() const {
    ScreenStats s;
    s.screens = screens_.load(std::memory_order_relaxed);
    s.proven_safe = screen_proven_.load(std::memory_order_relaxed);
    s.likely_ub = screen_likely_.load(std::memory_order_relaxed);
    s.unknown = screen_unknown_.load(std::memory_order_relaxed);
    s.synthesized = screen_synthesized_.load(std::memory_order_relaxed);
    s.ops = screen_ops_.load(std::memory_order_relaxed);
    return s;
}

std::string Oracle::screen_summary() const {
    if (!screening_) return "screening off (RUSTBRAIN_SCREEN=off)";
    const ScreenStats s = screen_stats();
    return std::to_string(s.screens) + " screened: " +
           std::to_string(s.proven_safe) + " proven-safe (" +
           std::to_string(s.synthesized) + " interpretations skipped), " +
           std::to_string(s.likely_ub) + " likely-ub, " +
           std::to_string(s.unknown) + " unknown, " + std::to_string(s.ops) +
           " abstract ops";
}

}  // namespace rustbrain::verify
