// repair_server: stand up the persistent repair service on a loopback
// socket and serve framed repair requests until stopped.
//
//   $ ./examples/repair_server --port 7411
//   $ ./examples/repair_server --port 0 --port-file /tmp/port --serve-once 40
//                                # CI shape: ephemeral port, bounded run
//   $ ./examples/repair_server --engine fixed-pipeline --workers 4
//
// --engine/--policy set the defaults applied to requests that leave those
// fields empty; both are validated against the registries at startup, so a
// typo prints the help tables instead of failing every request later.
// Numeric flags must be whole decimals in range for their field; anything
// else prints usage and exits 2. The knowledge base is seeded from the
// standard corpus (or --corpus <file>).
#include <cstdio>
#include <exception>
#include <fstream>
#include <string>

#include "core/engine_registry.hpp"
#include "core/thinking_policy.hpp"
#include "dataset/corpus.hpp"
#include "gen/corpus_io.hpp"
#include "kb/seed.hpp"
#include "serve/server.hpp"
#include "support/strings.hpp"

using namespace rustbrain;

namespace {

int usage(const char* argv0) {
    std::printf("usage: %s [--port N] [--port-file <path>] [--workers N]\n"
                "          [--engine <id>] [--policy <id>[,k=v...]]\n"
                "          [--serve-once N] [--corpus <file>]\n"
                "          [--max-inflight N] [--max-queue-ms X]\n"
                "          [--max-connections N]\n"
                "          [--stats]\n\n"
                "available engines:\n%s\navailable policies:\n%s",
                argv0, core::EngineRegistry::builtin().help().c_str(),
                core::PolicyRegistry::builtin().help().c_str());
    return 2;
}

int bad_value(const char* argv0, const std::string& flag, const char* text) {
    std::printf("error: bad value '%s' for %s\n\n", text, flag.c_str());
    return usage(argv0);
}

}  // namespace

int main(int argc, char** argv) {
    serve::ServerOptions options;
    std::string port_file;
    std::string corpus_path;
    bool print_stats = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--port" && i + 1 < argc) {
            if (!support::parse_unsigned(argv[++i], options.port)) {
                return bad_value(argv[0], arg, argv[i]);
            }
        } else if (arg == "--port-file" && i + 1 < argc) {
            port_file = argv[++i];
        } else if (arg == "--workers" && i + 1 < argc) {
            if (!support::parse_unsigned(argv[++i],
                                         options.service.workers)) {
                return bad_value(argv[0], arg, argv[i]);
            }
        } else if (arg == "--engine" && i + 1 < argc) {
            options.service.default_engine = argv[++i];
        } else if (arg == "--policy" && i + 1 < argc) {
            options.service.default_policy = argv[++i];
        } else if (arg == "--serve-once" && i + 1 < argc) {
            if (!support::parse_unsigned(argv[++i], options.max_requests)) {
                return bad_value(argv[0], arg, argv[i]);
            }
        } else if (arg == "--corpus" && i + 1 < argc) {
            corpus_path = argv[++i];
        } else if (arg == "--max-inflight" && i + 1 < argc) {
            if (!support::parse_unsigned(argv[++i],
                                         options.service.max_inflight)) {
                return bad_value(argv[0], arg, argv[i]);
            }
        } else if (arg == "--max-queue-ms" && i + 1 < argc) {
            if (!support::parse_millis(argv[++i],
                                       options.service.max_queue_ms)) {
                return bad_value(argv[0], arg, argv[i]);
            }
        } else if (arg == "--max-connections" && i + 1 < argc) {
            if (!support::parse_unsigned(argv[++i],
                                         options.max_connections)) {
                return bad_value(argv[0], arg, argv[i]);
            }
        } else if (arg == "--stats") {
            print_stats = true;
        } else {
            return usage(argv[0]);
        }
    }

    dataset::Corpus corpus;
    try {
        corpus = corpus_path.empty() ? dataset::Corpus::standard()
                                     : gen::load_corpus(corpus_path);
    } catch (const std::exception& error) {
        std::printf("error: %s\n", error.what());
        return 1;
    }
    try {
        kb::KnowledgeBase kbase;
        const kb::SeedStats seeded = kb::seed_from_corpus(corpus, kbase);
        options.service.knowledge_base = &kbase;
        serve::RepairServer server(options);
        std::printf("repair_server: listening on 127.0.0.1:%u (%zu workers, "
                    "default engine %s, kb %zu entries)\n",
                    server.port(), server.service().workers(),
                    options.service.default_engine.c_str(),
                    seeded.entries_added);
        std::fflush(stdout);
        if (!port_file.empty()) {
            std::ofstream out(port_file);
            out << server.port() << "\n";
            if (!out) {
                std::printf("error: cannot write port file %s\n",
                            port_file.c_str());
                return 1;
            }
        }
        server.wait();
        const serve::ServiceStats stats = server.service().stats();
        std::printf("repair_server: served %llu requests (%llu repaired, "
                    "%llu failed), prompt cache %.1f%% hits\n",
                    static_cast<unsigned long long>(server.requests_served()),
                    static_cast<unsigned long long>(stats.completed -
                                                    stats.failed),
                    static_cast<unsigned long long>(stats.failed),
                    100.0 * stats.prompt_cache.hit_rate());
        if (print_stats) {
            const serve::ServerStats frontend = server.stats();
            std::printf(
                "repair_server: queue_ms p50 %.3f p95 %.3f p99 %.3f, "
                "shed %llu\n"
                "repair_server: frontend accepted %llu rejected %llu "
                "accept_retries %llu loop_wakeups %llu frames %llu/%llu "
                "epollout_arms %llu max_pipeline_depth %llu\n",
                stats.queue_ms_p50, stats.queue_ms_p95, stats.queue_ms_p99,
                static_cast<unsigned long long>(stats.shed),
                static_cast<unsigned long long>(frontend.connections_accepted),
                static_cast<unsigned long long>(frontend.connections_rejected),
                static_cast<unsigned long long>(frontend.accept_retries),
                static_cast<unsigned long long>(frontend.loop_wakeups),
                static_cast<unsigned long long>(frontend.frames_read),
                static_cast<unsigned long long>(frontend.frames_written),
                static_cast<unsigned long long>(frontend.epollout_arms),
                static_cast<unsigned long long>(
                    frontend.max_pipeline_depth));
        }
    } catch (const std::invalid_argument& error) {
        // A bad --engine/--policy default or a typo'd RUSTBRAIN_* knob:
        // print the error and the registry tables.
        std::printf("error: %s\n\n", error.what());
        return usage(argv[0]);
    } catch (const std::exception& error) {
        std::printf("error: %s\n", error.what());
        return 1;
    }
    return 0;
}
