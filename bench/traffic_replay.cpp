// traffic_replay: zipfian repair traffic through the persistent
// RepairService — the regime the one-shot sweeps never measure.
//
//   $ ./bench/traffic_replay                  # full report
//   $ ./bench/traffic_replay --requests 40    # smaller trace (CI smoke)
//   $ ./bench/traffic_replay --deterministic-only
//
// Three experiments over one catalog (the standard corpus plus a slice of
// freshly forged cases):
//   1. skew sweep — replay a zipf(s)-sampled trace per skew through a
//      fresh service each time: throughput, p50/p99 latency, and the
//      cross-request prompt/verify cache hit-rates, which rise with skew
//      (hotter traffic, warmer caches);
//   2. cold vs warm — the identical trace replayed twice through one
//      service; the repeat pass answers from the shared caches and must be
//      measurably faster;
//   3. deterministic mode — RepairService::run_batch over every catalog
//      case, rendered with serve::render_case_result and byte-compared
//      against a serial BatchRunner sweep over the same list (exit 1 on
//      any divergence — CI runs this).
//
// --open-loop switches to the fourth experiment: arrivals follow a
// deterministic seeded Poisson-plus-burst schedule (virtual arrival times,
// independent of completions — the regime where queues actually build) and
// the requests go over real sockets through the epoll reactor frontend,
// pipelined across a few connections. Rows sweep worker counts x arrival
// rates. Deterministic facts (schedule hash, ok/shed counts, a fingerprint
// of every rendered result in request order) go to stdout so CI can run it
// twice and `cmp`; measured facts (throughput, queue p50/p95/p99,
// shed-rate, reactor loop stats) go to stderr.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "gen/forge.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "serve/wire.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"
#include "support/zipf.hpp"

using namespace rustbrain;

namespace {

struct ReplayOutcome {
    double wall_ms = 0.0;
    double p50_ms = 0.0;
    double p99_ms = 0.0;
    double prompt_hit_rate = 0.0;
    double report_hit_rate = 0.0;
    std::size_t unique_cases = 0;
};

double percentile(std::vector<double> values, double fraction) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const auto index = static_cast<std::size_t>(
        fraction * static_cast<double>(values.size() - 1));
    return values[index];
}

/// The request trace for one skew: `requests` draws over the catalog from
/// a deterministic zipf sampler (same seed => same trace).
std::vector<std::size_t> make_trace(std::size_t catalog_size,
                                    std::size_t requests, double skew) {
    support::Rng rng(support::derive_seed(42, "traffic-replay"));
    support::ZipfSampler sampler(catalog_size, skew);
    std::vector<std::size_t> trace;
    trace.reserve(requests);
    for (std::size_t i = 0; i < requests; ++i) {
        trace.push_back(sampler.sample(rng));
    }
    return trace;
}

ReplayOutcome replay(serve::RepairService& service,
                     const std::vector<dataset::UbCase>& catalog,
                     const std::vector<std::size_t>& trace,
                     const std::string& engine,
                     const std::string& option_spec) {
    const serve::ServiceStats before = service.stats();
    std::vector<serve::RepairRequest> requests;
    requests.reserve(trace.size());
    for (std::size_t index : trace) {
        serve::RepairRequest request;
        request.engine = engine;
        request.options = option_spec;
        request.ub_case = catalog[index];
        requests.push_back(std::move(request));
    }
    const auto start = std::chrono::steady_clock::now();
    const std::vector<serve::RepairResponse> responses =
        service.run_batch(std::move(requests));
    const auto stop = std::chrono::steady_clock::now();

    ReplayOutcome outcome;
    outcome.wall_ms =
        std::chrono::duration<double, std::milli>(stop - start).count();
    std::vector<double> latencies;
    latencies.reserve(responses.size());
    for (const serve::RepairResponse& response : responses) {
        if (!response.ok) {
            std::printf("error: request failed: %s\n", response.error.c_str());
            std::exit(1);
        }
        latencies.push_back(response.service_ms);
    }
    outcome.p50_ms = percentile(latencies, 0.50);
    outcome.p99_ms = percentile(latencies, 0.99);

    const serve::ServiceStats after = service.stats();
    const std::uint64_t prompt_lookups =
        (after.prompt_cache.hits - before.prompt_cache.hits) +
        (after.prompt_cache.misses - before.prompt_cache.misses);
    if (prompt_lookups > 0) {
        outcome.prompt_hit_rate =
            100.0 *
            static_cast<double>(after.prompt_cache.hits -
                                before.prompt_cache.hits) /
            static_cast<double>(prompt_lookups);
    }
    const std::uint64_t report_lookups =
        (after.verify_cache.report_hits - before.verify_cache.report_hits) +
        (after.verify_cache.report_misses - before.verify_cache.report_misses);
    if (report_lookups > 0) {
        outcome.report_hit_rate =
            100.0 *
            static_cast<double>(after.verify_cache.report_hits -
                                before.verify_cache.report_hits) /
            static_cast<double>(report_lookups);
    }
    std::vector<std::size_t> unique(trace);
    std::sort(unique.begin(), unique.end());
    unique.erase(std::unique(unique.begin(), unique.end()), unique.end());
    outcome.unique_cases = unique.size();
    return outcome;
}

/// The catalog every experiment shares: the standard corpus plus freshly
/// forged cases (the "new traffic" the service has never seen).
std::vector<dataset::UbCase> build_catalog(std::size_t forged) {
    std::vector<dataset::UbCase> catalog = bench::corpus().cases();
    if (forged > 0) {
        gen::ForgeOptions options;
        options.seed = 2025;
        options.count = forged;
        const dataset::Corpus fresh = gen::forge_corpus(options);
        catalog.insert(catalog.end(), fresh.cases().begin(),
                       fresh.cases().end());
    }
    return catalog;
}

std::uint64_t fnv1a(std::uint64_t hash, const void* data, std::size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
        hash ^= bytes[i];
        hash *= 1099511628211ULL;
    }
    return hash;
}

constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;

struct Arrival {
    double at_ms = 0.0;  // virtual arrival time from the schedule start
    std::size_t case_index = 0;
};

struct OpenLoopConfig {
    std::size_t requests = 120;
    std::uint64_t seed = 42;
    double gap_ms = 2.0;  // mean Poisson interarrival at rate 1.0
    std::size_t burst_every = 16;  // every Nth arrival brings a burst
    std::size_t burst_size = 4;    // extra same-instant arrivals per burst
    std::size_t connections = 4;
    std::size_t max_inflight = 0;  // admission control (0 = off)
    double max_queue_ms = 0.0;
};

/// Deterministic open-loop arrival schedule: exponential interarrival
/// times (mean gap_ms / rate) with a same-instant burst injected every
/// burst_every arrivals. Same seed => same schedule, bit for bit.
std::vector<Arrival> make_schedule(std::size_t catalog_size,
                                   const OpenLoopConfig& config,
                                   double rate) {
    support::Rng rng(support::derive_seed(config.seed, "open-loop"));
    support::ZipfSampler sampler(catalog_size, 1.0);
    std::vector<Arrival> schedule;
    schedule.reserve(config.requests);
    const double mean_gap = config.gap_ms / rate;
    double clock = 0.0;
    while (schedule.size() < config.requests) {
        // next_double() is in [0, 1), so 1-u is in (0, 1] and log is safe.
        clock += -mean_gap * std::log(1.0 - rng.next_double());
        schedule.push_back({clock, sampler.sample(rng)});
        if (config.burst_every > 0 &&
            schedule.size() % config.burst_every == 0) {
            for (std::size_t b = 0;
                 b < config.burst_size && schedule.size() < config.requests;
                 ++b) {
                schedule.push_back({clock, sampler.sample(rng)});
            }
        }
    }
    return schedule;
}

std::uint64_t schedule_hash(const std::vector<Arrival>& schedule) {
    std::uint64_t hash = kFnvOffset;
    for (const Arrival& arrival : schedule) {
        hash = fnv1a(hash, &arrival.at_ms, sizeof arrival.at_ms);
        hash = fnv1a(hash, &arrival.case_index, sizeof arrival.case_index);
    }
    return hash;
}

int run_open_loop(const std::vector<dataset::UbCase>& catalog,
                  const OpenLoopConfig& config, const std::string& engine,
                  const std::string& option_spec) {
    const bool admission =
        config.max_inflight > 0 || config.max_queue_ms > 0.0;
    std::printf("== open-loop replay (reactor frontend, seed %llu, "
                "%zu connections) ==\n",
                static_cast<unsigned long long>(config.seed),
                config.connections);
    for (std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
        for (double rate : {1.0, 4.0}) {
            const std::vector<Arrival> schedule =
                make_schedule(catalog.size(), config, rate);

            serve::ServerOptions server_options;
            server_options.service.workers = workers;
            server_options.service.knowledge_base = &bench::knowledge_base();
            server_options.service.max_inflight = config.max_inflight;
            server_options.service.max_queue_ms = config.max_queue_ms;
            serve::RepairServer server(server_options);

            std::vector<std::unique_ptr<serve::RepairClient>> clients;
            for (std::size_t i = 0; i < config.connections; ++i) {
                clients.push_back(
                    std::make_unique<serve::RepairClient>(server.port()));
            }

            // Open loop: send at the schedule's times regardless of how
            // many responses are outstanding (round-robin across the
            // connections), then collect. Per-connection response order
            // matches per-connection send order, so reading round-robin
            // yields response j for request j.
            const auto start = std::chrono::steady_clock::now();
            for (std::size_t j = 0; j < schedule.size(); ++j) {
                std::this_thread::sleep_until(
                    start + std::chrono::duration<double, std::milli>(
                                schedule[j].at_ms));
                serve::RepairRequest request;
                request.ticket = std::to_string(j);
                request.engine = engine;
                request.options = option_spec;
                request.ub_case = catalog[schedule[j].case_index];
                clients[j % clients.size()]->send_async(request);
            }
            std::size_t ok = 0;
            std::size_t shed = 0;
            std::size_t failed = 0;
            std::uint64_t fingerprint = kFnvOffset;
            for (std::size_t j = 0; j < schedule.size(); ++j) {
                const serve::RepairResponse response =
                    clients[j % clients.size()]->recv_one();
                if (response.shed) {
                    ++shed;
                } else if (response.ok) {
                    ++ok;
                    const std::string rendered =
                        serve::render_case_result(response.result);
                    fingerprint =
                        fnv1a(fingerprint, rendered.data(), rendered.size());
                } else {
                    ++failed;
                    std::fprintf(stderr, "request %zu failed: %s\n", j,
                                 response.error.c_str());
                }
            }
            const double wall_ms =
                std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();

            const serve::ServiceStats stats = server.service().stats();
            const serve::ServerStats frontend = server.stats();
            server.stop();

            // Deterministic facts -> stdout (CI runs this twice and cmps);
            // under admission control the ok/shed split and fingerprint
            // are load-dependent, so they move to stderr with the timings.
            if (admission) {
                std::printf("row workers=%zu rate=%.1f requests=%zu "
                            "schedule=%016llx results=load-dependent\n",
                            workers, rate, schedule.size(),
                            static_cast<unsigned long long>(
                                schedule_hash(schedule)));
                std::fprintf(stderr,
                             "row workers=%zu rate=%.1f: ok=%zu shed=%zu "
                             "failed=%zu fingerprint=%016llx\n",
                             workers, rate, ok, shed, failed,
                             static_cast<unsigned long long>(fingerprint));
            } else {
                std::printf("row workers=%zu rate=%.1f requests=%zu "
                            "schedule=%016llx ok=%zu shed=%zu failed=%zu "
                            "fingerprint=%016llx\n",
                            workers, rate, schedule.size(),
                            static_cast<unsigned long long>(
                                schedule_hash(schedule)),
                            ok, shed, failed,
                            static_cast<unsigned long long>(fingerprint));
            }
            std::fprintf(
                stderr,
                "row workers=%zu rate=%.1f: wall %.0f ms, %.1f req/s, "
                "queue p50 %.3f p95 %.3f p99 %.3f ms, shed %zu (%.1f%%), "
                "loop_wakeups %llu, frames %llu/%llu, epollout_arms %llu, "
                "max_pipeline_depth %llu\n",
                workers, rate, wall_ms,
                wall_ms > 0.0
                    ? 1000.0 * static_cast<double>(schedule.size()) / wall_ms
                    : 0.0,
                stats.queue_ms_p50, stats.queue_ms_p95, stats.queue_ms_p99,
                shed,
                100.0 * static_cast<double>(shed) /
                    static_cast<double>(schedule.size()),
                static_cast<unsigned long long>(frontend.loop_wakeups),
                static_cast<unsigned long long>(frontend.frames_read),
                static_cast<unsigned long long>(frontend.frames_written),
                static_cast<unsigned long long>(frontend.epollout_arms),
                static_cast<unsigned long long>(
                    frontend.max_pipeline_depth));
            if (failed > 0) return 1;
        }
    }
    return 0;
}

int deterministic_check(const std::vector<dataset::UbCase>& catalog,
                        const std::string& engine,
                        const std::string& option_spec) {
    std::printf("== deterministic mode vs serial BatchRunner ==\n");
    serve::ServiceOptions service_options;
    service_options.knowledge_base = &bench::knowledge_base();
    serve::RepairService service(service_options);
    std::vector<serve::RepairRequest> requests;
    for (const dataset::UbCase& ub_case : catalog) {
        serve::RepairRequest request;
        request.engine = engine;
        request.options = option_spec;
        request.ub_case = ub_case;
        requests.push_back(std::move(request));
    }
    const std::vector<serve::RepairResponse> responses =
        service.run_batch(std::move(requests));

    core::EngineBuildContext context;
    context.knowledge_base = &bench::knowledge_base();
    const auto serial_engine = core::EngineRegistry::builtin().build(
        engine, core::EngineOptions::parse(option_spec), context);
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < catalog.size(); ++i) {
        const std::string service_text =
            serve::render_case_result(responses[i].result);
        const std::string serial_text =
            serve::render_case_result(serial_engine->repair(catalog[i]));
        if (service_text != serial_text) {
            ++mismatches;
            if (mismatches == 1) {
                std::printf("MISMATCH on case %s:\n-- service --\n%s\n"
                            "-- serial --\n%s\n",
                            catalog[i].id.c_str(), service_text.c_str(),
                            serial_text.c_str());
            }
        }
    }
    if (mismatches > 0) {
        std::printf("FAIL: %zu/%zu rendered results diverge\n", mismatches,
                    catalog.size());
        return 1;
    }
    std::printf("byte-identical: %zu/%zu rendered CaseResults match the "
                "serial sweep (%zu workers)\n\n",
                catalog.size(), catalog.size(), service.workers());
    return 0;
}

int usage(const char* argv0) {
    std::printf("usage: %s [--requests N] [--forged N] "
                "[--engine <id>] [--options k=v,...] "
                "[--deterministic-only]\n"
                "          [--open-loop] [--seed N] [--gap-ms X] "
                "[--burst-every N] [--burst-size N]\n"
                "          [--connections N] [--max-inflight N] "
                "[--max-queue-ms X]\n",
                argv0);
    return 2;
}

int bad_value(const char* argv0, const std::string& flag, const char* text) {
    std::printf("error: bad value '%s' for %s\n\n", text, flag.c_str());
    return usage(argv0);
}

}  // namespace

int main(int argc, char** argv) {
    std::size_t requests = 120;
    std::size_t forged = 12;
    bool deterministic_only = false;
    bool open_loop = false;
    OpenLoopConfig open_config;
    std::string engine = "rustbrain";
    std::string option_spec;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        bool valid = true;
        if (arg == "--requests" && i + 1 < argc) {
            valid = support::parse_unsigned(argv[++i], requests);
        } else if (arg == "--forged" && i + 1 < argc) {
            valid = support::parse_unsigned(argv[++i], forged);
        } else if (arg == "--engine" && i + 1 < argc) {
            engine = argv[++i];
        } else if (arg == "--options" && i + 1 < argc) {
            option_spec = argv[++i];
        } else if (arg == "--deterministic-only") {
            deterministic_only = true;
        } else if (arg == "--open-loop") {
            open_loop = true;
        } else if (arg == "--seed" && i + 1 < argc) {
            valid = support::parse_unsigned(argv[++i], open_config.seed);
        } else if (arg == "--gap-ms" && i + 1 < argc) {
            valid = support::parse_millis(argv[++i], open_config.gap_ms);
        } else if (arg == "--burst-every" && i + 1 < argc) {
            valid = support::parse_unsigned(argv[++i], open_config.burst_every);
        } else if (arg == "--burst-size" && i + 1 < argc) {
            valid = support::parse_unsigned(argv[++i], open_config.burst_size);
        } else if (arg == "--connections" && i + 1 < argc) {
            valid = support::parse_unsigned(argv[++i], open_config.connections);
        } else if (arg == "--max-inflight" && i + 1 < argc) {
            valid =
                support::parse_unsigned(argv[++i], open_config.max_inflight);
        } else if (arg == "--max-queue-ms" && i + 1 < argc) {
            valid = support::parse_millis(argv[++i], open_config.max_queue_ms);
        } else {
            return usage(argv[0]);
        }
        if (!valid) return bad_value(argv[0], arg, argv[i]);
    }

    const std::vector<dataset::UbCase> catalog = build_catalog(forged);
    std::printf("catalog: %zu cases (%zu standard + %zu forged), trace: %zu "
                "requests, engine: %s\n\n",
                catalog.size(), catalog.size() - forged, forged, requests,
                engine.c_str());

    if (open_loop) {
        open_config.requests = requests;
        if (open_config.connections == 0) open_config.connections = 1;
        return run_open_loop(catalog, open_config, engine, option_spec);
    }

    const int deterministic_rc =
        deterministic_check(catalog, engine, option_spec);
    if (deterministic_only || deterministic_rc != 0) return deterministic_rc;

    std::printf("== zipf skew sweep (%zu requests each, fresh service per "
                "row) ==\n",
                requests);
    support::TextTable table({"skew", "unique", "wall ms", "req/s",
                              "p50 ms", "p99 ms", "prompt hits",
                              "verify hits"});
    for (double skew : {0.0, 0.7, 1.4}) {
        serve::ServiceOptions service_options;
        service_options.knowledge_base = &bench::knowledge_base();
        serve::RepairService service(service_options);
        const std::vector<std::size_t> trace =
            make_trace(catalog.size(), requests, skew);
        const ReplayOutcome outcome =
            replay(service, catalog, trace, engine, option_spec);
        table.add_row(
            {support::format_double(skew, 1),
             std::to_string(outcome.unique_cases),
             support::format_double(outcome.wall_ms, 0),
             support::format_double(
                 1000.0 * static_cast<double>(requests) / outcome.wall_ms, 1),
             support::format_double(outcome.p50_ms, 1),
             support::format_double(outcome.p99_ms, 1),
             support::format_double(outcome.prompt_hit_rate, 1) + "%",
             support::format_double(outcome.report_hit_rate, 1) + "%"});
    }
    std::printf("%s\n", table.render().c_str());

    std::printf("== cold vs warm (identical trace, one service) ==\n");
    {
        serve::ServiceOptions service_options;
        service_options.knowledge_base = &bench::knowledge_base();
        serve::RepairService service(service_options);
        const std::vector<std::size_t> trace =
            make_trace(catalog.size(), requests, 1.0);
        const ReplayOutcome cold =
            replay(service, catalog, trace, engine, option_spec);
        const ReplayOutcome warm =
            replay(service, catalog, trace, engine, option_spec);
        std::printf("cold: %.0f ms (prompt %.1f%%, verify %.1f%%)\n",
                    cold.wall_ms, cold.prompt_hit_rate, cold.report_hit_rate);
        std::printf("warm: %.0f ms (prompt %.1f%%, verify %.1f%%) — %.2fx\n",
                    warm.wall_ms, warm.prompt_hit_rate, warm.report_hit_rate,
                    warm.wall_ms > 0.0 ? cold.wall_ms / warm.wall_ms : 0.0);
        const serve::ServiceStats stats = service.stats();
        std::printf("service: %llu completed, queue p. wait avg %.2f ms "
                    "(max %.2f) across %zu workers\n\n",
                    static_cast<unsigned long long>(stats.completed),
                    stats.completed > 0
                        ? stats.queue_ms_total /
                              static_cast<double>(stats.completed)
                        : 0.0,
                    stats.queue_ms_max, service.workers());
    }
    return 0;
}
