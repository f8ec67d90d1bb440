// rbbench — one benchmark for the repair stack.
//
//   rbbench --workload W --seed N --seconds S --trace 0|1 [options]
//
// Workloads (all driven through the library's public API):
//   sweep-cold  serial BatchRunner rustbrain/gpt-4 sweep; every repetition
//               gets a fresh PromptCache and a fresh Oracle + VerifyCache.
//   sweep-warm  the same corpus and configuration with both caches filled
//               during setup.
//   forge       gen::forge_corpus over the whole corpus in one call, fresh
//               Oracle per repetition.
//
// Every output is checked against a reference computed on another code
// path (uncached oracle, no prompt cache, serial engine calls). Set-up runs
// kSetups times inside the run and setup_s is the median.
// The last stdout line is one JSON object with the measured metrics; lines
// before it are a human-readable report prefixed with '#'. perfbench/run.py
// builds this program and turns that object into the benchmark result.
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/batch_runner.hpp"
#include "core/engine_registry.hpp"
#include "gen/corpus_io.hpp"
#include "gen/forge.hpp"
#include "gen/registry.hpp"
#include "kb/seed.hpp"
#include "lang/parser.hpp"
#include "lang/typecheck.hpp"
#include "llm/caching_backend.hpp"
#include "miri/interp.hpp"
#include "miri/lower.hpp"
#include "perfbench.hpp"
#include "screen/screen.hpp"
#include "serve/wire.hpp"
#include "support/hashing.hpp"
#include "support/rng.hpp"
#include "verify/oracle.hpp"
#include "vm/bytecode.hpp"
#include "vm/peephole.hpp"
#include "vm/vm.hpp"

extern char** environ;

using namespace rustbrain;
using perfbench::Clock;
using perfbench::Scope;
using perfbench::Tracer;

namespace {

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

// Fixed configuration. Worker counts are pinned, never taken from the
// machine, so a bigger host measures the same program.
constexpr const char* kEngine = "rustbrain";
constexpr const char* kEngineOptions = "model=gpt-4";
/// Replay caps of the traced run.
constexpr std::size_t kReplayShort = 300;
constexpr std::size_t kReplayLong = 3;

const char* const kStepLimitMessage = "step limit exceeded";

/// Seed of the inputs that are the same for every workload seed: the KB
/// corpus, and the probe pool the step-limit cases of the sweeps come
/// from. A step-limit candidate costs far more than any
/// other case, its cost depends on the program, and whether a repair hits
/// the step limit depends on the KB; so with both fixed these are the same
/// programs for every workload seed (see perfbench/README.md).
constexpr std::uint64_t kFixedSeed = 2025;

struct Sizes {
    std::size_t kb_cases = 560;
    std::size_t pool = 1200;
    std::size_t sweep_cases = 1000;
    /// Step-limit cases per sweep corpus: 0.6% of it, the share measured
    /// over unstratified forged corpora (see perfbench/README.md).
    std::size_t sweep_heavy = 6;
    std::size_t sweep_probe_pool = 3000;
    std::size_t forge_cases = 1000;
    std::size_t classify_chunk = 100;
};

Sizes smoke_sizes() {
    Sizes s;
    s.kb_cases = 28;
    s.pool = 80;
    s.sweep_cases = 30;
    s.sweep_heavy = 0;
    s.forge_cases = 28;
    s.classify_chunk = 40;
    return s;
}

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool smoke = false;
    bool inject_mismatch = false;
    std::string trace_out;
};

double ms_since(Clock::time_point start) {
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

// --- report -----------------------------------------------------------------

class Report {
  public:
    void line(const std::string& text) { std::printf("# %s\n", text.c_str()); }

    void metric(const std::string& name, double value, const std::string& unit) {
        if (!values_.count(name)) order_.push_back(name);
        values_[name] = {value, unit};
    }

    void fail(const std::string& why) {
        ++failed_;
        if (failures_shown_++ < 5) line("CHECK FAILED: " + why);
    }
    void attempt(std::size_t n) { attempted_ += n; }
    [[nodiscard]] std::size_t failed() const { return failed_; }
    [[nodiscard]] std::size_t attempted() const { return attempted_; }

    void print_json() const {
        std::string out = "{\"correct\": ";
        out += failed_ == 0 ? "true" : "false";
        out += ", \"attempted\": " + std::to_string(attempted_);
        out += ", \"failed\": " + std::to_string(failed_);
        out += ", \"metrics\": {";
        char buf[64];
        bool first = true;
        for (const std::string& name : order_) {
            const auto& [value, unit] = values_.at(name);
            std::snprintf(buf, sizeof buf, "%.17g", value);
            out += first ? "" : ", ";
            out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
                   unit + "\"}";
            first = false;
        }
        out += "}}";
        std::printf("%s\n", out.c_str());
    }

  private:
    std::vector<std::string> order_;
    std::map<std::string, std::pair<double, std::string>> values_;
    std::size_t attempted_ = 0;
    std::size_t failed_ = 0;
    std::size_t failures_shown_ = 0;
};

std::string fmt(double v, int digits = 3) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*f", digits, v);
    return buf;
}

// --- library seams -------------------------------------------------------

/// A program the oracle interpreted, kept for the traced run's replay.
struct Captured {
    std::string source;
    std::vector<std::vector<std::int64_t>> inputs;
    std::uint64_t steps = 0;
};

/// Oracle whose interpret() — the protected virtual seam — is timed and
/// counted; with a tracer it also records a span and captures programs.
class RecordingOracle final : public verify::Oracle {
  public:
    RecordingOracle(verify::OracleOptions options, Tracer* tracer)
        : verify::Oracle(std::move(options)), tracer_(tracer) {}

    struct Counts {
        std::uint64_t calls = 0;
        std::uint64_t steps = 0;
        std::uint64_t step_limit_runs = 0;
        double busy_ms = 0.0;
        double step_limit_ms = 0.0;
    };

    [[nodiscard]] Counts counts() const {
        std::lock_guard<std::mutex> lock(mutex_);
        return counts_;
    }
    [[nodiscard]] std::uint64_t step_limit_runs() const {
        std::lock_guard<std::mutex> lock(mutex_);
        return counts_.step_limit_runs;
    }
    [[nodiscard]] std::vector<Captured> captured() const {
        std::lock_guard<std::mutex> lock(mutex_);
        std::vector<Captured> out;
        out.reserve(captured_.size());
        for (const auto& [key, c] : captured_) out.push_back(c);
        return out;
    }

  protected:
    miri::MiriReport interpret(
        const verify::CompiledProgram& compiled,
        const std::vector<std::vector<std::int64_t>>& input_sets)
        const override {
        const auto start = Clock::now();
        miri::MiriReport report;
        {
            Scope span(tracer_, "verify.interpret");
            report = verify::Oracle::interpret(compiled, input_sets);
        }
        const double took = ms_since(start);
        bool limited = false;
        for (const auto& finding : report.findings) {
            if (finding.message.rfind(kStepLimitMessage, 0) == 0) limited = true;
        }
        std::lock_guard<std::mutex> lock(mutex_);
        ++counts_.calls;
        counts_.steps += report.total_steps;
        counts_.busy_ms += took;
        if (limited) {
            ++counts_.step_limit_runs;
            counts_.step_limit_ms += took;
        }
        if (tracer_ != nullptr) {
            std::uint64_t key = support::fnv1a64_u64(compiled.fingerprint);
            for (const auto& run : input_sets) {
                for (std::int64_t v : run) {
                    key = support::fnv1a64_u64(static_cast<std::uint64_t>(v),
                                               key);
                }
            }
            captured_.emplace(
                key, Captured{compiled.source, input_sets, report.total_steps});
        }
        return report;
    }

  private:
    Tracer* tracer_;
    mutable std::mutex mutex_;
    mutable Counts counts_;
    mutable std::map<std::uint64_t, Captured> captured_;
};

std::shared_ptr<RecordingOracle> fresh_oracle(Tracer* tracer) {
    verify::OracleOptions options;
    options.cache = std::make_shared<verify::VerifyCache>();
    return std::make_shared<RecordingOracle>(std::move(options), tracer);
}

/// The reference oracle: no memoization, so every verification recomputes —
/// another code path than the cached one every workload measures.
/// Screening stays on: its verdict counters are part of a rendered result.
std::shared_ptr<RecordingOracle> reference_oracle() {
    verify::OracleOptions options;
    options.cache = std::make_shared<verify::VerifyCache>();
    options.caching = false;
    return std::make_shared<RecordingOracle>(std::move(options), nullptr);
}

/// Timing decorator for an LLM backend session.
class TimedBackend final : public llm::LlmBackend {
  public:
    TimedBackend(std::unique_ptr<llm::LlmBackend> inner, const char* name,
                 Tracer* tracer)
        : inner_(std::move(inner)), name_(name), tracer_(tracer) {}
    llm::ChatResponse complete(const llm::ChatRequest& request) override {
        Scope span(tracer_, name_);
        return inner_->complete(request);
    }
    [[nodiscard]] std::uint64_t calls_served() const override {
        return inner_->calls_served();
    }
    [[nodiscard]] std::string description() const override {
        return inner_->description();
    }

  private:
    std::unique_ptr<llm::LlmBackend> inner_;
    const char* name_;
    Tracer* tracer_;
};

llm::BackendFactory timed(llm::BackendFactory inner, const char* name,
                          Tracer* tracer) {
    return [inner = std::move(inner), name, tracer](
               const llm::ModelProfile& profile, std::uint64_t seed) {
        return std::unique_ptr<llm::LlmBackend>(
            new TimedBackend(inner(profile, seed), name, tracer));
    };
}

/// The backend stack of a sweep: a PromptCache decorator over SimLLM,
/// with timing decorators outside and inside it when tracing.
llm::BackendFactory backend_stack(std::shared_ptr<llm::PromptCache> cache,
                                  Tracer* tracer) {
    if (tracer == nullptr) return llm::caching_backend_factory(std::move(cache));
    return timed(llm::caching_backend_factory(
                     std::move(cache),
                     timed(llm::sim_backend_factory(), "llm.inner", tracer)),
                 "llm.outer", tracer);
}

/// Wall-clock spans around the thinking stages the engine announces.
class StageSink final : public core::TraceSink {
  public:
    explicit StageSink(Tracer* tracer) : tracer_(tracer) {}
    void on_event(const core::TraceEvent& event) override {
        if (event.kind == core::TraceEventKind::StageEnter) {
            open_.push_back(tracer_->open("core." + event.label, 0));
        } else if (event.kind == core::TraceEventKind::StageExit &&
                   !open_.empty()) {
            tracer_->close(open_.back());
            open_.pop_back();
        }
    }

  private:
    Tracer* tracer_;
    std::vector<long> open_;
};

// --- inputs --------------------------------------------------------------

std::uint64_t sub_seed(std::uint64_t seed, const std::string& what) {
    return support::derive_seed(seed, "perfbench/" + what);
}

dataset::Corpus forge(std::uint64_t seed, std::size_t count,
                      const verify::Oracle* oracle) {
    gen::ForgeOptions options;
    options.seed = seed;
    options.count = count;
    options.oracle = oracle;
    return gen::forge_corpus(options);
}

/// What every repair workload shares: the knowledge base, seeded from a
/// forged corpus of previously solved problems (the same for every
/// workload seed), and a case pool forged from the workload seed.
struct RepairInputs {
    kb::KnowledgeBase kb;
    dataset::Corpus pool{std::vector<dataset::UbCase>{}};
    double kb_seed_ms = 0.0;
};

/// Set-up `setup` of a repair workload: forge the KB corpus and the case
/// pool, and seed the KB.
void build_repair_inputs(RepairInputs& in, std::uint64_t seed,
                         std::size_t kb_cases, std::size_t pool_cases,
                         const std::string& pool_name, int setup) {
    // Forging uses its own oracle, so nothing the workloads verify later is
    // warm from it. KB seeding uses the process-wide oracle by design, and
    // that oracle's cache outlives the set-up: each set-up therefore seeds
    // the KB from its own corpus, so none of them finds it warm.
    const auto forge_oracle = fresh_oracle(nullptr);
    const dataset::Corpus kb_corpus =
        forge(sub_seed(kFixedSeed, "kb/" + std::to_string(setup)), kb_cases,
              forge_oracle.get());
    in.pool = forge(sub_seed(seed, pool_name), pool_cases, forge_oracle.get());
    const auto start = Clock::now();
    kb::seed_from_corpus(kb_corpus, in.kb);
    in.kb_seed_ms = ms_since(start);
}

core::EngineBuildContext context_for(const RepairInputs& in,
                                     std::shared_ptr<const verify::Oracle> oracle,
                                     llm::BackendFactory backends) {
    core::EngineBuildContext context;
    context.knowledge_base = &in.kb;
    context.oracle = std::move(oracle);
    context.backend_factory = std::move(backends);
    return context;
}

/// Builds one engine per BatchRunner worker behind the benchmark's own
/// RepairFn wrapper, which keeps each case's wall time in `case_ms` (may be
/// null) and, with a tracer, opens a span per case.
core::EngineFactory engine_factory(core::EngineBuildContext context,
                                   std::vector<double>* case_ms, Tracer* tracer) {
    return [context, case_ms, tracer](std::size_t) -> core::RepairFn {
        std::shared_ptr<core::RepairEngine> engine =
            core::EngineRegistry::builtin().build(
                kEngine, core::EngineOptions::parse(kEngineOptions), context);
        std::shared_ptr<StageSink> sink;
        if (tracer != nullptr) {
            sink = std::make_shared<StageSink>(tracer);
            engine->set_trace_sink(sink.get());
        }
        std::uint64_t serial = 0;
        return [engine, sink, case_ms, tracer,
                serial](const dataset::UbCase& ub_case) mutable {
            const auto start = Clock::now();
            core::CaseResult result;
            {
                Scope span(tracer, "core.case", ++serial);
                result = engine->repair(ub_case);
            }
            if (case_ms != nullptr) case_ms->push_back(ms_since(start));
            return result;
        };
    };
}

/// Reference renderings plus the step-limit classification of a pool
/// prefix, computed serially on the reference oracle.
struct Classified {
    std::vector<bool> heavy;
    std::vector<std::string> rendered;
};

void classify_more(const kb::KnowledgeBase& kb, const dataset::Corpus& pool,
                   std::size_t upto, Classified& out) {
    const auto oracle = reference_oracle();
    core::EngineBuildContext context;
    context.knowledge_base = &kb;
    context.oracle = oracle;
    // One engine, called per case, so each case's step-limit runs are known.
    auto engine = core::EngineRegistry::builtin().build(
        kEngine, core::EngineOptions::parse(kEngineOptions), context);
    for (std::size_t i = out.heavy.size(); i < upto && i < pool.size(); ++i) {
        const std::uint64_t before = oracle->step_limit_runs();
        const core::CaseResult result = engine->repair(pool.cases()[i]);
        out.heavy.push_back(oracle->step_limit_runs() > before);
        out.rendered.push_back(serve::render_case_result(result));
    }
}

/// Classify the pool chunk by chunk until a stratified pick of `n` cases
/// with exactly `heavy` step-limit cases exists. Throws when the pool runs
/// out first.
std::vector<std::size_t> select_cases(const kb::KnowledgeBase& kb,
                                      const dataset::Corpus& pool, std::size_t n,
                                      std::size_t heavy, std::size_t chunk,
                                      Classified& classified) {
    while (true) {
        std::vector<std::size_t> pick =
            perfbench::stratified_pick(classified.heavy, n, heavy);
        if (!pick.empty()) return pick;
        if (classified.heavy.size() >= pool.size()) {
            throw std::runtime_error(
                "case pool exhausted before the stratified quota was met");
        }
        classify_more(kb, pool, classified.heavy.size() + chunk, classified);
    }
}

/// Starts a new peak-RSS window: the kernel resets the process's high-water
/// mark to its current RSS, so peak_rss_mb() covers only what follows (the
/// timed region), not the larger footprint set-up may have had.
void reset_peak_rss() {
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5";
    clear.flush();
    if (!clear) throw std::runtime_error("cannot reset the peak RSS (/proc/self/clear_refs)");
}

/// High-water RSS since the last reset_peak_rss().
double peak_rss_mb() {
    std::ifstream status("/proc/self/status");
    std::string key;
    while (status >> key) {
        if (key == "VmHWM:") {
            double kb = 0.0;
            status >> kb;
            return kb / 1024.0;
        }
        status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
    }
    throw std::runtime_error("no VmHWM in /proc/self/status");
}

/// Moves the calling thread from one CPU it may run on to the next, one
/// step per pin() call, and gives it back all of them when destroyed. On a
/// shared VM a run left where the scheduler put it can run slow from start
/// to end (see perfbench/README.md); rotating the serial workloads'
/// repetitions over every allowed CPU lets each case's best time
/// (perfbench::keep_min) come from more than one of them.
class CpuRotation {
  public:
    CpuRotation() {
        CPU_ZERO(&allowed_);
        if (sched_getaffinity(0, sizeof allowed_, &allowed_) != 0) return;
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
            if (CPU_ISSET(cpu, &allowed_)) cpus_.push_back(cpu);
        }
    }
    ~CpuRotation() {
        if (!cpus_.empty()) sched_setaffinity(0, sizeof allowed_, &allowed_);
    }
    CpuRotation(const CpuRotation&) = delete;
    CpuRotation& operator=(const CpuRotation&) = delete;

    void pin() {
        if (cpus_.empty()) return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[next_++ % cpus_.size()], &one);
        sched_setaffinity(0, sizeof one, &one);
    }

  private:
    cpu_set_t allowed_;
    std::vector<int> cpus_;
    std::size_t next_ = 0;
};

/// Set-ups per run; setup_s is the median of their times.
constexpr int kSetups = 3;

/// Runs `once(i)` for i = 0..kSetups-1 and returns the median of their
/// wall times in seconds. Each call must start from the same state.
template <class F>
double median_setup(F&& once) {
    std::vector<double> seconds;
    for (int i = 0; i < kSetups; ++i) {
        const auto start = Clock::now();
        once(i);
        seconds.push_back(ms_since(start) / 1000.0);
    }
    return perfbench::median(seconds);
}

// --- trace attribution ----------------------------------------------------

/// Self time per span name over `spans`, plus the traced wall and the
/// unattributed residual: wall minus what the root spans cover.
struct Attribution {
    std::map<std::string, double> self_ms;
    std::map<std::string, std::size_t> count;
    double wall_ms = 0.0;
    double unattributed_ms = 0.0;
};

Attribution attribute(const std::vector<perfbench::Span>& spans, double wall_ms) {
    Attribution a;
    a.wall_ms = wall_ms;
    const std::vector<double> self = perfbench::self_times(spans);
    std::vector<std::pair<double, double>> roots;
    double lo = 0.0;
    double hi = 0.0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        a.self_ms[spans[i].name] += self[i];
        ++a.count[spans[i].name];
        if (spans[i].parent < 0) {
            roots.push_back({spans[i].start_ms, spans[i].end_ms});
            lo = roots.size() == 1 ? spans[i].start_ms : std::min(lo, spans[i].start_ms);
            hi = std::max(hi, spans[i].end_ms);
        }
    }
    a.unattributed_ms = wall_ms - perfbench::covered(std::move(roots), lo, hi);
    return a;
}

void write_spans(const std::string& path,
                 const std::vector<perfbench::Span>& spans) {
    if (path.empty()) return;
    std::ofstream file(path);
    for (const auto& s : spans) {
        file << "{\"name\":\"" << s.name << "\",\"start_ms\":" << s.start_ms
             << ",\"end_ms\":" << s.end_ms << ",\"parent\":" << s.parent
             << ",\"group\":" << s.group << "}\n";
    }
}

/// Replay of captured programs through each layer's public function: the
/// per-program front-end, compile and screen costs and the per-tier
/// interpretation costs the traced run reports.
void replay(const std::vector<Captured>& captured, Report& report) {
    // Long programs: the three with the most steps (the step-limit runs when
    // the workload has any). Short programs: up to kReplayShort of the rest,
    // in capture-key order (a hash, so an unbiased sample), leaving out any
    // run long enough to be near the step limit.
    std::vector<const Captured*> by_steps;
    for (const Captured& c : captured) by_steps.push_back(&c);
    std::sort(by_steps.begin(), by_steps.end(),
              [](const Captured* a, const Captured* b) {
                  return a->steps > b->steps;
              });
    const std::vector<const Captured*> longs(
        by_steps.begin(),
        by_steps.begin() + static_cast<std::ptrdiff_t>(
                               std::min(kReplayLong, by_steps.size())));
    const std::uint64_t near_limit = miri::InterpLimits{}.max_steps / 10;
    std::vector<const Captured*> shorts;
    for (const Captured& c : captured) {
        if (shorts.size() >= kReplayShort) break;
        if (c.steps >= near_limit) continue;
        if (std::find(longs.begin(), longs.end(), &c) != longs.end()) continue;
        shorts.push_back(&c);
    }
    struct Totals {
        double parse = 0, typecheck = 0, lower = 0, compile = 0, optimize = 0,
               screen = 0;
        double tier[4] = {0, 0, 0, 0};
        std::uint64_t steps = 0;
        std::size_t programs = 0;
        std::size_t mismatches = 0;
    };
    auto run_set = [](const std::vector<const Captured*>& set, bool front) {
        Totals t;
        for (const Captured* c : set) {
            auto start = Clock::now();
            std::optional<lang::Program> program = lang::try_parse(c->source);
            if (front) t.parse += ms_since(start);
            if (!program) continue;
            start = Clock::now();
            if (!lang::type_check(*program)) continue;
            if (front) t.typecheck += ms_since(start);
            start = Clock::now();
            const miri::LoweredProgram lowering = miri::lower_program(*program);
            if (front) t.lower += ms_since(start);
            start = Clock::now();
            const vm::VmProgram code = vm::compile(*program, lowering);
            if (front) t.compile += ms_since(start);
            start = Clock::now();
            const vm::VmProgram optimized = vm::optimize(code);
            if (front) t.optimize += ms_since(start);
            const miri::InterpLimits limits;
            if (front) {
                start = Clock::now();
                (void)screen::screen_program(*program, lowering, c->inputs,
                                             limits);
                t.screen += ms_since(start);
            }
            const auto runs = c->inputs.empty()
                                  ? std::vector<std::vector<std::int64_t>>{{}}
                                  : c->inputs;
            std::uint64_t steps[4] = {0, 0, 0, 0};
            for (int tier = 0; tier < 4; ++tier) {
                start = Clock::now();
                for (const auto& inputs : runs) {
                    miri::RunResult result;
                    if (tier == 0) {
                        result = miri::Interpreter(*program, inputs, limits).run();
                    } else if (tier == 1) {
                        result = miri::Interpreter(*program, inputs, limits,
                                                   &lowering)
                                     .run();
                    } else {
                        result = vm::Vm(*program, tier == 2 ? code : optimized,
                                        inputs, limits)
                                     .run();
                    }
                    steps[tier] += result.steps;
                }
                t.tier[tier] += ms_since(start);
            }
            if (steps[0] != steps[1] || steps[0] != steps[2] ||
                steps[0] != steps[3]) {
                ++t.mismatches;
            }
            t.steps += steps[0];
            ++t.programs;
        }
        return t;
    };
    const Totals s = run_set(shorts, true);
    const Totals l = run_set(longs, false);
    const double n = std::max<std::size_t>(s.programs, 1);
    report.metric("lang.parse_us", 1000.0 * s.parse / n, "us");
    report.metric("lang.typecheck_us", 1000.0 * s.typecheck / n, "us");
    report.metric("miri.lower_us", 1000.0 * s.lower / n, "us");
    report.metric("vm.compile_us", 1000.0 * s.compile / n, "us");
    report.metric("vm.optimize_us", 1000.0 * s.optimize / n, "us");
    report.metric("screen.us", 1000.0 * s.screen / n, "us");
    const char* tiers[4] = {"tree", "slot", "vm", "vmopt"};
    for (int t = 0; t < 4; ++t) {
        report.metric(std::string("interp.") + tiers[t] + "_us",
                      1000.0 * s.tier[t] / n, "us");
        report.metric(std::string("interp.") + tiers[t] + "_ns_per_step",
                      l.steps == 0 ? 0.0 : 1e6 * l.tier[t] / l.steps, "ns");
    }
    report.line("replay: " + std::to_string(s.programs) + " short programs (" +
                fmt(static_cast<double>(s.steps) / n, 0) +
                " steps avg), " + std::to_string(l.programs) +
                " long programs (" +
                fmt(static_cast<double>(l.steps) /
                        std::max<std::size_t>(l.programs, 1),
                    0) +
                " steps avg)");
    report.line("replay per program (us): parse " + fmt(1000 * s.parse / n, 1) +
                "  typecheck " + fmt(1000 * s.typecheck / n, 1) + "  lower " +
                fmt(1000 * s.lower / n, 1) + "  vm.compile " +
                fmt(1000 * s.compile / n, 1) + "  vm.optimize " +
                fmt(1000 * s.optimize / n, 1) + "  screen " +
                fmt(1000 * s.screen / n, 1));
    std::string tiers_short = "replay per tier, short (us/program):";
    std::string tiers_long = "replay per tier, long (ns/step):";
    for (int t = 0; t < 4; ++t) {
        tiers_short += std::string("  ") + tiers[t] + " " +
                       fmt(1000.0 * s.tier[t] / n, 1);
        tiers_long += std::string("  ") + tiers[t] + " " +
                      fmt(l.steps == 0 ? 0.0 : 1e6 * l.tier[t] / l.steps, 2);
    }
    report.line(tiers_short);
    report.line(tiers_long);
    if (s.mismatches + l.mismatches > 0) {
        report.fail("interpreter tiers disagree on step counts for " +
                    std::to_string(s.mismatches + l.mismatches) +
                    " replayed programs");
    }
}

void report_oracle_counts(const RecordingOracle::Counts& c, Report& report,
                          bool per_layer) {
    const double share = c.busy_ms > 0 ? c.step_limit_ms / c.busy_ms : 0.0;
    report.line("verify: " + std::to_string(c.calls) + " interpret calls, " +
                fmt(c.busy_ms, 1) + " ms busy, " +
                std::to_string(c.step_limit_runs) + " step-limit runs (" +
                fmt(100.0 * share, 1) + "% of interpret time)");
    if (!per_layer) return;
    report.metric("verify.interpret_ms", c.busy_ms, "ms");
    report.metric("verify.interpret_calls", static_cast<double>(c.calls), "count");
    report.metric("verify.steps", static_cast<double>(c.steps), "count");
    report.metric("verify.ns_per_step",
                  c.steps == 0 ? 0.0 : 1e6 * c.busy_ms / c.steps, "ns");
    report.metric("verify.step_limit_runs",
                  static_cast<double>(c.step_limit_runs), "count");
    report.metric("verify.step_limit_share", share, "ratio");
}

/// Cache and screening counters accumulated between two snapshots (or
/// summed over several oracles, with `sign` +1).
void accumulate(verify::VerifyCacheStats& into, const verify::VerifyCacheStats& v,
                int sign = 1) {
    into.report_hits += sign * v.report_hits;
    into.report_misses += sign * v.report_misses;
    into.program_hits += sign * v.program_hits;
    into.program_misses += sign * v.program_misses;
}

void accumulate(verify::ScreenStats& into, const verify::ScreenStats& s,
                int sign = 1) {
    into.screens += sign * s.screens;
    into.ops += sign * s.ops;
    into.proven_safe += sign * s.proven_safe;
}

void accumulate(llm::PromptCacheStats& into, const llm::PromptCacheStats& p,
                int sign = 1) {
    into.hits += sign * p.hits;
    into.misses += sign * p.misses;
}

void report_oracle_stats(const verify::VerifyCacheStats& v,
                         const verify::ScreenStats& s, Report& report) {
    const auto ratio = [](std::uint64_t a, std::uint64_t b) {
        return a + b == 0 ? 0.0 : static_cast<double>(a) / (a + b);
    };
    report.metric("verify.report_hit_ratio", ratio(v.report_hits, v.report_misses),
                  "ratio");
    report.metric("verify.program_hit_ratio",
                  ratio(v.program_hits, v.program_misses), "ratio");
    report.metric("screen.calls", static_cast<double>(s.screens), "count");
    report.metric("screen.ops", static_cast<double>(s.ops), "count");
    report.metric("screen.proven_safe_ratio",
                  s.screens == 0 ? 0.0
                                 : static_cast<double>(s.proven_safe) / s.screens,
                  "ratio");
}

void report_attribution(const Attribution& a, double reps, Report& report) {
    std::string line = "traced wall " + fmt(a.wall_ms / reps, 1) +
                       " ms per repetition; self time (ms):";
    double sum = a.unattributed_ms;
    for (const auto& [name, ms] : a.self_ms) {
        line += "  " + name + " " + fmt(ms / reps, 1);
        sum += ms;
    }
    line += "  unattributed " + fmt(a.unattributed_ms / reps, 1) +
            "  (sum " + fmt(sum / reps, 1) + ")";
    report.line(line);
    report.metric("trace.wall_ms", a.wall_ms / reps, "ms");
    report.metric("trace.unattributed_ms", a.unattributed_ms / reps, "ms");
    const auto self = [&](const char* name) {
        auto it = a.self_ms.find(name);
        return it == a.self_ms.end() ? 0.0 : it->second / reps;
    };
    const auto count = [&](const char* name) {
        auto it = a.count.find(name);
        return it == a.count.end() ? 0.0 : static_cast<double>(it->second) / reps;
    };
    report.metric("core.case_self_ms", self("core.case"), "ms");
    report.metric("core.fast_thinking_ms", self("core.fast_thinking"), "ms");
    report.metric("core.slow_thinking_ms", self("core.slow_thinking"), "ms");
    report.metric("llm.sim_ms", self("llm.inner"), "ms");
    report.metric("llm.calls", count("llm.outer"), "count");
    report.metric("llm.lookup_us",
                  count("llm.outer") == 0
                      ? 0.0
                      : 1000.0 * self("llm.outer") / count("llm.outer"),
                  "us");
    report.metric("gen.self_ms", self("gen.forge"), "ms");
}


RecordingOracle::Counts operator-(RecordingOracle::Counts a,
                                  const RecordingOracle::Counts& b) {
    a.calls -= b.calls;
    a.steps -= b.steps;
    a.step_limit_runs -= b.step_limit_runs;
    a.busy_ms -= b.busy_ms;
    a.step_limit_ms -= b.step_limit_ms;
    return a;
}

RecordingOracle::Counts& operator+=(RecordingOracle::Counts& a,
                                    const RecordingOracle::Counts& b) {
    a.calls += b.calls;
    a.steps += b.steps;
    a.step_limit_runs += b.step_limit_runs;
    a.busy_ms += b.busy_ms;
    a.step_limit_ms += b.step_limit_ms;
    return a;
}

RecordingOracle::Counts per_rep(RecordingOracle::Counts c, std::size_t reps) {
    const double n = static_cast<double>(std::max<std::size_t>(reps, 1));
    c.calls = static_cast<std::uint64_t>(std::llround(c.calls / n));
    c.steps = static_cast<std::uint64_t>(std::llround(c.steps / n));
    c.step_limit_runs =
        static_cast<std::uint64_t>(std::llround(c.step_limit_runs / n));
    c.busy_ms /= n;
    c.step_limit_ms /= n;
    return c;
}

std::string join_ms(const std::vector<double>& values) {
    std::string out;
    for (double v : values) out += " " + fmt(v, 0);
    return out;
}

std::uint64_t fingerprint(const std::vector<std::string>& parts) {
    std::uint64_t h = support::kFnvOffsetBasis;
    for (const std::string& p : parts) h = support::fnv1a64(p, h);
    return h;
}

/// The per-case metrics of the serial workloads: the nearest-rank p50 and
/// p99 of each case's best time, its minimum over the run's repetitions
/// (perfbench::keep_min). On a shared VM the speed of memory-bound code
/// shifts host-wide by up to 40% for seconds at a time; a case timed in
/// every repetition of a long run meets a fast spell in some of them, so
/// its minimum moves far less between runs than any one repetition does
/// (see perfbench/README.md).
void report_case_percentiles(const std::vector<double>& best_ms, Report& report) {
    report.metric("case_p50_ms", perfbench::percentile(best_ms, 0.50), "ms");
    report.metric("case_p99_ms", perfbench::percentile(best_ms, 0.99), "ms");
}

// --- sweeps ----------------------------------------------------------------

struct SweepInputs {
    RepairInputs inputs;
    dataset::Corpus probe_pool{std::vector<dataset::UbCase>{}};
    std::vector<const dataset::UbCase*> cases;  // the selected corpus
};

struct SweepRep {
    double wall_ms = 0.0;
    std::vector<double> case_ms;
    std::vector<std::string> rendered;
    int pass = 0;
    int exec = 0;
};

SweepRep sweep_once(const SweepInputs& s,
                    std::shared_ptr<llm::PromptCache> prompts,
                    std::shared_ptr<RecordingOracle> oracle, Tracer* tracer) {
    std::vector<double> case_ms;
    case_ms.reserve(s.cases.size());
    const core::BatchRunner runner(
        engine_factory(context_for(s.inputs, std::move(oracle),
                                   backend_stack(std::move(prompts), tracer)),
                       &case_ms, tracer),
        core::BatchOptions{1});
    const auto start = Clock::now();
    const core::BatchReport report = runner.run(s.cases);
    SweepRep rep;
    rep.wall_ms = ms_since(start);
    rep.case_ms = std::move(case_ms);
    rep.pass = report.pass_total();
    rep.exec = report.exec_total();
    rep.rendered.reserve(report.results.size());
    for (const auto& r : report.results) {
        rep.rendered.push_back(serve::render_case_result(r));
    }
    return rep;
}

void check_renderings(const std::vector<std::string>& got,
                      const std::vector<std::string>& reference,
                      Report& report) {
    report.attempt(reference.size());
    if (got.size() != reference.size()) {
        report.fail(std::to_string(got.size()) + " results for " +
                    std::to_string(reference.size()) + " cases");
        return;
    }
    for (std::size_t i = 0; i < reference.size(); ++i) {
        if (got[i] != reference[i]) {
            report.fail("case " + std::to_string(i) +
                        " differs from the reference rendering");
        }
    }
}

/// Warm-workload setup tail: one sweep that fills both caches.
struct WarmCaches {
    std::shared_ptr<llm::PromptCache> prompts;
    std::shared_ptr<RecordingOracle> oracle;
};

WarmCaches fill_caches(const SweepInputs& s, Tracer* capture,
                       SweepRep* filled) {
    WarmCaches warm{std::make_shared<llm::PromptCache>(), fresh_oracle(capture)};
    SweepRep rep = sweep_once(s, warm.prompts, warm.oracle, nullptr);
    if (filled != nullptr) *filled = std::move(rep);
    return warm;
}

double run_sweep(const Args& args, const Sizes& sizes, bool warm,
                 Report& report) {
    SweepInputs s;
    // The last set-up's inputs are the ones measured.
    double setup_s = median_setup([&](int i) {
        s.inputs = RepairInputs{};
        build_repair_inputs(s.inputs, args.seed, sizes.kb_cases, sizes.pool, "sweep", i);
        if (sizes.sweep_heavy > 0) {
            s.probe_pool = forge(kFixedSeed, sizes.sweep_probe_pool,
                                 fresh_oracle(nullptr).get());
        }
    });

    // Reference renderings and the stratified selection: cases of the
    // seed's pool whose repair never hits the step limit, and
    // sweep_heavy cases of the probe pool whose repair does. Untimed;
    // being a full pass over the same code, it also absorbs the
    // first-repetition effect before anything is timed.
    auto start = Clock::now();
    Classified classified, probes;
    const std::vector<std::size_t> light =
        select_cases(s.inputs.kb, s.inputs.pool, sizes.sweep_cases - sizes.sweep_heavy,
                     0, sizes.classify_chunk, classified);
    std::vector<std::size_t> heavy;
    if (sizes.sweep_heavy > 0) {
        heavy = select_cases(s.inputs.kb, s.probe_pool, sizes.sweep_heavy,
                             sizes.sweep_heavy, sizes.classify_chunk, probes);
    }
    // The step-limit cases are spread evenly: heavy case h comes before
    // light case (2h+1)·L/(2H).
    std::vector<std::string> reference;
    std::vector<std::size_t> heavy_at;  // positions in the corpus
    const std::size_t L = light.size();
    const std::size_t H = heavy.size();
    for (std::size_t i = 0, h = 0; i <= L; ++i) {
        for (; h < H && (2 * h + 1) * L <= 2 * H * i; ++h) {
            heavy_at.push_back(s.cases.size());
            s.cases.push_back(&s.probe_pool.cases()[heavy[h]]);
            reference.push_back(probes.rendered[heavy[h]]);
        }
        if (i < L) {
            s.cases.push_back(&s.inputs.pool.cases()[light[i]]);
            reference.push_back(classified.rendered[light[i]]);
        }
    }
    report.line("reference: " + std::to_string(classified.heavy.size()) +
                " pool cases and " + std::to_string(probes.heavy.size()) +
                " probe-pool cases classified in " + fmt(ms_since(start), 0) +
                " ms; corpus of " + std::to_string(s.cases.size()) +
                " cases, " + std::to_string(H) +
                " with a step-limit candidate");
    if (args.inject_mismatch && !reference.empty()) reference[0] += "corrupt";

    Tracer capture;  // warm: the fill's interpreted programs, for replay
    WarmCaches warm_caches;
    if (warm) {
        // Set-up tail, after the reference pass as the timed repetitions
        // are: each fill starts with fresh caches; the last one is kept.
        SweepRep filled;
        setup_s += median_setup([&](int) {
            warm_caches = fill_caches(s, args.trace ? &capture : nullptr, &filled);
        });
        check_renderings(filled.rendered, reference, report);
    }

    std::vector<double> best_ms, walls, traced_walls;
    RecordingOracle::Counts counts;
    std::shared_ptr<RecordingOracle> traced_oracle;
    Tracer tracer;
    const std::uint64_t kb_queries0 = s.inputs.kb.queries_served();
    const std::uint64_t kb_hits0 = s.inputs.kb.hits_returned();
    // Warm caches persist across repetitions: per-layer counters are
    // differences from their values before the first timed repetition.
    const RecordingOracle::Counts warm0 =
        warm ? warm_caches.oracle->counts() : RecordingOracle::Counts{};
    verify::VerifyCacheStats verify_stats;
    verify::ScreenStats screen_stats;
    llm::PromptCacheStats prompt_stats;
    if (warm) {
        accumulate(verify_stats, warm_caches.oracle->stats(), -1);
        accumulate(screen_stats, warm_caches.oracle->screen_stats(), -1);
        accumulate(prompt_stats, warm_caches.prompts->stats(), -1);
    }
    reset_peak_rss();
    CpuRotation cpus;
    const auto timed_start = Clock::now();
    std::size_t reps = 0;
    // Repeat until the time is up; with tracing, every other repetition is
    // traced so the overhead compares neighbours.
    while (reps < 2 || ms_since(timed_start) < args.seconds * 1000.0) {
        const bool traced_rep = args.trace && reps % 2 == 1;
        // A traced repetition runs on the CPU of the untraced one before it.
        if (!traced_rep) cpus.pin();
        Tracer* t = traced_rep ? &tracer : nullptr;
        const auto prompts =
            warm ? warm_caches.prompts : std::make_shared<llm::PromptCache>();
        const auto oracle = warm ? warm_caches.oracle : fresh_oracle(t);
        const SweepRep rep = sweep_once(s, prompts, oracle, t);
        check_renderings(rep.rendered, reference, report);
        if (!warm) counts += oracle->counts();
        if (!warm) {
            accumulate(verify_stats, oracle->stats());
            accumulate(screen_stats, oracle->screen_stats());
            accumulate(prompt_stats, prompts->stats());
        }
        if (traced_rep) {
            traced_walls.push_back(rep.wall_ms);
            traced_oracle = oracle;
        } else {
            walls.push_back(rep.wall_ms);
            perfbench::keep_min(best_ms, rep.case_ms);
            if (reps == 0) {
                report.line("totals: " + std::to_string(rep.pass) + " pass / " +
                            std::to_string(rep.exec) + " exec over " +
                            std::to_string(rep.rendered.size()) +
                            " cases; result fingerprint " +
                            std::to_string(fingerprint(rep.rendered)));
            }
        }
        ++reps;
    }
    if (warm) {
        counts = warm_caches.oracle->counts() - warm0;
        accumulate(verify_stats, warm_caches.oracle->stats());
        accumulate(screen_stats, warm_caches.oracle->screen_stats());
        accumulate(prompt_stats, warm_caches.prompts->stats());
    }

    const std::size_t n = s.cases.size();
    if (!perfbench::percentile_supported(n, 0.99)) {
        report.line("note: p99 of " + std::to_string(n) +
                    " cases has fewer than 10 samples beyond it");
        if (!args.smoke) report.fail("case_p99_ms lacks samples beyond it");
    }
    report.line(std::to_string(walls.size()) + " untraced repetitions of " +
                std::to_string(n) + " cases, wall ms:" + join_ms(walls));
    // The sweep's rate with each case at its best time: the serial runner
    // does nothing between cases but call the wrapper that times them.
    double best_sum_ms = 0.0;
    for (double ms : best_ms) best_sum_ms += ms;
    std::vector<double> heavy_best;
    for (std::size_t at : heavy_at) heavy_best.push_back(best_ms[at]);
    report.line("sum of per-case best times " + fmt(best_sum_ms, 1) +
                " ms; fastest repetition " +
                fmt(*std::min_element(walls.begin(), walls.end()), 1) +
                " ms; step-limit cases' best ms:" + join_ms(heavy_best));
    report.metric("cases_per_s", 1000.0 * static_cast<double>(n) / best_sum_ms, "1/s");
    report_case_percentiles(best_ms, report);
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    report_oracle_counts(per_rep(counts, reps), report, args.trace);

    if (args.trace) {
        const std::vector<perfbench::Span> spans = tracer.spans();
        // Only traced repetitions carry spans, so the traced wall is their
        // sum; the untraced repetitions in between are never covered.
        double traced_sum = 0.0;
        for (double w : traced_walls) traced_sum += w;
        report_attribution(attribute(spans, traced_sum),
                           static_cast<double>(traced_walls.size()), report);
        report.metric("trace.overhead_pct",
                      100.0 * (perfbench::median(traced_walls) /
                                   perfbench::median(walls) -
                               1.0),
                      "%");
        const auto all = static_cast<double>(reps);
        report.metric("kb.queries",
                      static_cast<double>(s.inputs.kb.queries_served() - kb_queries0) / all,
                      "count");
        report.metric("kb.hits",
                      static_cast<double>(s.inputs.kb.hits_returned() - kb_hits0) / all,
                      "count");
        report.metric("kb.seed_ms", s.inputs.kb_seed_ms, "ms");
        report_oracle_stats(verify_stats, screen_stats, report);
        report.metric("llm.prompt_hit_ratio", prompt_stats.hit_rate(), "ratio");
        write_spans(args.trace_out, spans);
        replay(warm ? warm_caches.oracle->captured() : traced_oracle->captured(),
               report);
    }
    return setup_s;
}

// --- forge -------------------------------------------------------------------

/// One gen::forge_corpus call over the whole corpus, as the library's
/// callers make it. The fingerprint is taken after the timed call.
struct ForgeRep {
    double wall_ms = 0.0;
    std::uint64_t fingerprint = 0;
    gen::ForgeStats stats;
};

ForgeRep forge_whole(std::uint64_t seed, std::size_t count,
                     const verify::Oracle& oracle, Tracer* tracer) {
    gen::ForgeOptions options;
    options.seed = seed;
    options.count = count;
    options.oracle = &oracle;
    ForgeRep rep;
    const auto start = Clock::now();
    dataset::Corpus corpus{std::vector<dataset::UbCase>{}};
    {
        Scope span(tracer, "gen.forge");
        corpus = gen::forge_corpus(options, &rep.stats);
    }
    rep.wall_ms = ms_since(start);
    rep.fingerprint = fingerprint({gen::corpus_to_string(corpus)});
    return rep;
}

/// Per-case forge times, which one whole-corpus call cannot show: `count`
/// forge_corpus calls of one case each, round-robin over the generators,
/// on one Oracle. These cases are other draws from the same generators
/// than the whole call's (each call is slot 0 of its own seed); run_forge
/// reports what the split costs against the whole call.
struct ForgeSplit {
    double wall_ms = 0.0;
    std::vector<double> case_ms;
    std::uint64_t fingerprint = 0;
};

ForgeSplit forge_split(std::uint64_t seed, std::size_t count,
                       const verify::Oracle& oracle) {
    const std::vector<std::string> ids = gen::GeneratorRegistry::builtin().ids();
    ForgeSplit split;
    split.case_ms.reserve(count);
    std::vector<dataset::Corpus> corpora;
    corpora.reserve(count);
    const auto start = Clock::now();
    for (std::size_t i = 0; i < count; ++i) {
        gen::ForgeOptions options;
        options.seed = support::derive_seed(seed, "case/" + std::to_string(i));
        options.count = 1;
        options.generators = {ids[i % ids.size()]};
        options.oracle = &oracle;
        const auto case_start = Clock::now();
        corpora.push_back(gen::forge_corpus(options));
        split.case_ms.push_back(ms_since(case_start));
    }
    split.wall_ms = ms_since(start);
    std::vector<std::string> texts;
    for (const auto& corpus : corpora) texts.push_back(gen::corpus_to_string(corpus));
    split.fingerprint = fingerprint(texts);
    return split;
}

double run_forge(const Args& args, const Sizes& sizes, Report& report) {
    const std::uint64_t seed = sub_seed(args.seed, "forge");
    // Set-up: warm-up forges (registry construction, lazy statics, allocator
    // growth), each on a fresh Oracle, so that the first, cold call is not
    // a sample.
    const double setup_s = median_setup([&](int) {
        const auto oracle = fresh_oracle(nullptr);
        (void)forge_whole(seed, sizes.forge_cases, *oracle, nullptr);
    });

    // References: the same forges on the uncached oracle.
    auto start = Clock::now();
    std::uint64_t reference =
        forge_whole(seed, sizes.forge_cases, *reference_oracle(), nullptr).fingerprint;
    std::uint64_t split_reference =
        forge_split(seed, sizes.forge_cases, *reference_oracle()).fingerprint;
    report.line("reference forges of " + std::to_string(sizes.forge_cases) +
                " cases in " + fmt(ms_since(start), 0) + " ms, fingerprints " +
                std::to_string(reference) + " (one call), " +
                std::to_string(split_reference) + " (one call per case)");
    if (args.inject_mismatch) reference ^= 1;

    const auto check = [&](std::uint64_t got, std::uint64_t want, const char* what) {
        report.attempt(sizes.forge_cases);
        if (got != want) {
            report.fail(std::string("forged corpus fingerprint (") + what + ") " +
                        std::to_string(got) + " differs from the reference");
        }
    };
    std::vector<double> best_ms, walls, split_walls, traced_walls;
    RecordingOracle::Counts counts;
    std::shared_ptr<RecordingOracle> traced_oracle;
    gen::ForgeStats stats;
    Tracer tracer;
    reset_peak_rss();
    CpuRotation cpus;
    const auto timed_start = Clock::now();
    std::size_t reps = 0;
    // Each untraced repetition is one whole-corpus call (cases_per_s) and
    // one split pass (the per-case percentiles); with tracing, every other
    // repetition is a traced whole-corpus call.
    while (reps < 2 || ms_since(timed_start) < args.seconds * 1000.0) {
        const bool traced_rep = args.trace && reps % 2 == 1;
        // A traced repetition runs on the CPU of the untraced one before it.
        if (!traced_rep) cpus.pin();
        Tracer* t = traced_rep ? &tracer : nullptr;
        const auto oracle = fresh_oracle(t);
        const ForgeRep rep = forge_whole(seed, sizes.forge_cases, *oracle, t);
        check(rep.fingerprint, reference, "one call");
        counts += oracle->counts();
        stats = rep.stats;
        if (traced_rep) {
            traced_walls.push_back(rep.wall_ms);
            traced_oracle = oracle;
        } else {
            walls.push_back(rep.wall_ms);
            const ForgeSplit split =
                forge_split(seed, sizes.forge_cases, *fresh_oracle(nullptr));
            check(split.fingerprint, split_reference, "one call per case");
            split_walls.push_back(split.wall_ms);
            perfbench::keep_min(best_ms, split.case_ms);
        }
        ++reps;
    }
    if (!perfbench::percentile_supported(sizes.forge_cases, 0.99)) {
        report.line("note: p99 of " + std::to_string(sizes.forge_cases) +
                    " cases has fewer than 10 samples beyond it");
        if (!args.smoke) report.fail("case_p99_ms lacks samples beyond it");
    }
    report.line(std::to_string(walls.size()) + " untraced repetitions of " +
                std::to_string(sizes.forge_cases) + " cases, wall ms:" +
                join_ms(walls));
    report.line("one call per case, wall ms:" + join_ms(split_walls));
    report.line("forge: " + std::to_string(stats.attempts) + " attempts, " +
                std::to_string(stats.rejected_parse + stats.rejected_typecheck +
                               stats.rejected_validation) +
                " rejected per repetition");
    // One whole-corpus call cannot be split into cases, so its rate is that
    // of the fastest repetition: the same work every time, and
    // interference only adds time.
    report.metric("cases_per_s",
                  1000.0 * static_cast<double>(sizes.forge_cases) /
                      *std::min_element(walls.begin(), walls.end()),
                  "1/s");
    report_case_percentiles(best_ms, report);
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    report.metric("forge.split_cost_ratio",
                  perfbench::median(split_walls) / perfbench::median(walls), "ratio");
    report_oracle_counts(per_rep(counts, reps), report, args.trace);
    if (args.trace) {
        const std::vector<perfbench::Span> spans = tracer.spans();
        double traced_sum = 0.0;
        for (double w : traced_walls) traced_sum += w;
        report_attribution(attribute(spans, traced_sum),
                           static_cast<double>(traced_walls.size()), report);
        report.metric("trace.overhead_pct",
                      100.0 * (perfbench::median(traced_walls) /
                                   perfbench::median(walls) -
                               1.0),
                      "%");
        report.metric("gen.attempts", static_cast<double>(stats.attempts), "count");
        report.metric("gen.rejected",
                      static_cast<double>(stats.rejected_parse +
                                          stats.rejected_typecheck +
                                          stats.rejected_validation),
                      "count");
        report_oracle_stats(traced_oracle->stats(), traced_oracle->screen_stats(), report);
        write_spans(args.trace_out, spans);
        replay(traced_oracle->captured(), report);
    }
    return setup_s;
}

// --- main -----------------------------------------------------------------------

[[noreturn]] void usage(const std::string& why) {
    std::fprintf(stderr,
                 "rbbench: %s\n"
                 "usage: rbbench --workload "
                 "sweep-cold|sweep-warm|forge --seed N "
                 "[--seconds S] [--trace 0|1] [--smoke] [--inject-mismatch] "
                 "[--trace-out FILE]\n",
                 why.c_str());
    std::exit(2);
}

std::uint64_t parse_u64(const std::string& text, const char* flag) {
    if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos) {
        usage(std::string(flag) + " expects a non-negative integer, got '" + text + "'");
    }
    return std::stoull(text);
}

Args parse_args(int argc, char** argv) {
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) usage(flag + " needs a value");
            return argv[++i];
        };
        if (flag == "--workload") {
            args.workload = value();
        } else if (flag == "--seed") {
            args.seed = parse_u64(value(), "--seed");
        } else if (flag == "--seconds") {
            args.seconds = static_cast<double>(parse_u64(value(), "--seconds"));
        } else if (flag == "--trace") {
            const std::string v = value();
            if (v != "0" && v != "1") usage("--trace expects 0 or 1");
            args.trace = v == "1";
        } else if (flag == "--smoke") {
            args.smoke = true;
        } else if (flag == "--inject-mismatch") {
            args.inject_mismatch = true;
        } else if (flag == "--trace-out") {
            args.trace_out = value();
        } else {
            usage("unknown flag " + flag);
        }
    }
    static const std::set<std::string> workloads = {"sweep-cold", "sweep-warm",
                                                     "forge"};
    if (!workloads.count(args.workload)) usage("unknown workload '" + args.workload + "'");
    return args;
}

/// Refuses configurations that would measure another program than the
/// default one; returns false after printing why.
bool configuration_pinned() {
    bool ok = true;
    for (char** env = environ; *env != nullptr; ++env) {
        if (std::string(*env).rfind("RUSTBRAIN_", 0) == 0) {
            std::fprintf(stderr, "rbbench: refusing to run with %s set\n", *env);
            ok = false;
        }
    }
    if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
        std::fprintf(stderr, "rbbench: refusing to run a %s build (need Release)\n",
                     PERFBENCH_BUILD_TYPE);
        ok = false;
    }
    return ok;
}

}  // namespace

int main(int argc, char** argv) {
    const Args args = parse_args(argc, argv);
    if (!configuration_pinned()) return 2;
    const Sizes sizes = args.smoke ? smoke_sizes() : Sizes{};
    try {
        Report report;
        const verify::Oracle defaults;
        report.line("workload " + args.workload + ", seed " +
                    std::to_string(args.seed) + ", " + fmt(args.seconds, 0) +
                    " s, trace " + (args.trace ? "on" : "off") +
                    (args.smoke ? ", smoke sizes" : ""));
        report.line(std::string("build ") + PERFBENCH_BUILD_TYPE + ", nproc " +
                    std::to_string(std::thread::hardware_concurrency()) +
                    "; default oracle: tier " +
                    verify::to_string(defaults.interp_tier()) + ", vm_opt " +
                    (defaults.vm_opt_enabled() ? "on" : "off") + ", screening " +
                    (defaults.screening_enabled() ? "on" : "off") + ", caching " +
                    (defaults.caching_enabled() ? "on" : "off") +
                    "; sweep workers 1");
        double setup_s = 0.0;
        if (args.workload == "forge") {
            setup_s = run_forge(args, sizes, report);
        } else {
            setup_s = run_sweep(args, sizes, args.workload == "sweep-warm", report);
        }
        report.line("error_frac " +
                    fmt(report.attempted() == 0
                            ? 0.0
                            : static_cast<double>(report.failed()) /
                                  static_cast<double>(report.attempted()),
                        6) +
                    " (" + std::to_string(report.failed()) + " of " +
                    std::to_string(report.attempted()) + " operations)");
        report.metric("setup_s", setup_s, "s");
        report.print_json();
        return report.failed() == 0 ? 0 : 1;
    } catch (const std::exception& error) {
        std::fprintf(stderr, "rbbench: %s\n", error.what());
        return 1;
    }
}
