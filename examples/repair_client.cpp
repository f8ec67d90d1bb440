// repair_client: send repair requests to a running repair_server.
//
//   $ ./examples/repair_client --port 7411 --case danglingpointer/use_after_free_0
//   $ ./examples/repair_client --port 7411 --engine standalone --count 3
//   $ ./examples/repair_client --port 7411 --count 8 --pipeline 4
//                                # windowed pipelining: up to 4 in flight
//   $ ./examples/repair_client --port 7411 --dump-result   # raw wire render
//   $ ./examples/repair_client --port 7411 --bad-request   # error-path probe
//
// Cases come from the standard corpus (or --corpus <file>); --case selects
// by id, default is the first case. --dump-result prints the deterministic
// serve::render_case_result rendering, which is what CI byte-compares
// against a serial BatchRunner sweep. --bad-request ships a garbage frame
// and expects a well-formed ok=0 error response back. Numeric flags must be
// whole decimals in range for their field; anything else prints usage and
// exits 2.
#include <cstdio>
#include <exception>
#include <string>

#include "core/engine_registry.hpp"
#include "core/thinking_policy.hpp"
#include "dataset/corpus.hpp"
#include "gen/corpus_io.hpp"
#include "serve/client.hpp"
#include "serve/wire.hpp"
#include "support/strings.hpp"

using namespace rustbrain;

namespace {

int usage(const char* argv0) {
    std::printf("usage: %s --port N [--case <id>] [--corpus <file>]\n"
                "          [--engine <id>] [--options k=v,...]\n"
                "          [--policy <id>[,k=v...]] [--feedback]\n"
                "          [--count N] [--pipeline N] [--dump-result]\n"
                "          [--bad-request]\n\n"
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
    std::uint16_t port = 0;
    bool have_port = false;
    std::string case_id;
    std::string corpus_path;
    serve::RepairRequest request;
    std::size_t count = 1;
    std::size_t pipeline = 1;
    bool dump_result = false;
    bool bad_request = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--port" && i + 1 < argc) {
            if (!support::parse_unsigned(argv[++i], port)) {
                return bad_value(argv[0], arg, argv[i]);
            }
            have_port = true;
        } else if (arg == "--case" && i + 1 < argc) {
            case_id = argv[++i];
        } else if (arg == "--corpus" && i + 1 < argc) {
            corpus_path = argv[++i];
        } else if (arg == "--engine" && i + 1 < argc) {
            request.engine = argv[++i];
        } else if (arg == "--options" && i + 1 < argc) {
            request.options = argv[++i];
        } else if (arg == "--policy" && i + 1 < argc) {
            request.policy = argv[++i];
        } else if (arg == "--feedback") {
            request.use_feedback = true;
        } else if (arg == "--count" && i + 1 < argc) {
            if (!support::parse_unsigned(argv[++i], count)) {
                return bad_value(argv[0], arg, argv[i]);
            }
        } else if (arg == "--pipeline" && i + 1 < argc) {
            if (!support::parse_unsigned(argv[++i], pipeline)) {
                return bad_value(argv[0], arg, argv[i]);
            }
        } else if (arg == "--dump-result") {
            dump_result = true;
        } else if (arg == "--bad-request") {
            bad_request = true;
        } else {
            return usage(argv[0]);
        }
    }
    if (!have_port) return usage(argv[0]);

    try {
        serve::RepairClient client(port);
        if (bad_request) {
            const std::string raw =
                client.roundtrip_raw("this is not a rustbrain request");
            const serve::RepairResponse response =
                serve::parse_response(raw);
            if (response.ok) {
                std::printf("error: server accepted a garbage frame\n");
                return 1;
            }
            std::printf("bad request rejected as expected: %s\n",
                        response.error.c_str());
            return 0;
        }

        dataset::Corpus corpus = corpus_path.empty()
                                     ? dataset::Corpus::standard()
                                     : gen::load_corpus(corpus_path);
        const dataset::UbCase* ub_case =
            case_id.empty() ? &corpus.cases().front() : corpus.find(case_id);
        if (ub_case == nullptr) {
            std::printf("error: no case '%s' in the corpus (%zu cases)\n",
                        case_id.c_str(), corpus.size());
            return 1;
        }
        request.ub_case = *ub_case;

        // Pipelined: keep up to `pipeline` requests outstanding. The server
        // answers in request order per connection, so response i belongs to
        // ticket cli-i regardless of the window.
        if (pipeline == 0) pipeline = 1;
        std::size_t sent = 0;
        for (std::size_t i = 0; i < count; ++i) {
            while (sent < count && sent - i < pipeline) {
                request.ticket = "cli-" + std::to_string(sent);
                client.send_async(request);
                ++sent;
            }
            const serve::RepairResponse response = client.recv_one();
            if (response.shed) {
                // Overload shedding is an expected answer under pipelined
                // load, not a client failure: report and keep reading.
                std::printf("%s: SHED retry_after %.1f ms (%s)\n",
                            response.ticket.c_str(), response.retry_after_ms,
                            response.error.c_str());
                continue;
            }
            if (!response.ok) {
                std::printf("error response: %s\n", response.error.c_str());
                return 1;
            }
            if (dump_result) {
                std::printf("%s",
                            serve::render_case_result(response.result)
                                .c_str());
            } else {
                std::printf("%s: %s/%s rule=%s %.1f virtual s "
                            "(queue %.2f ms, service %.2f ms, worker %llu)\n",
                            response.result.case_id.c_str(),
                            response.result.pass ? "pass" : "FAIL",
                            response.result.exec ? "exec" : "div ",
                            response.result.winning_rule.c_str(),
                            response.result.time_ms / 1000.0,
                            response.queue_ms, response.service_ms,
                            static_cast<unsigned long long>(response.worker));
            }
        }
    } catch (const std::exception& error) {
        std::printf("error: %s\n", error.what());
        return 1;
    }
    return 0;
}
