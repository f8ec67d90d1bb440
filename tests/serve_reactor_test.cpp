// serve::Reactor — the epoll frontend serves the whole catalog over
// pipelined connections byte-identical to a serial BatchRunner sweep at 1
// and 4 workers, holds the per-connection response order under 32
// concurrent pipelined connections, sheds overload with framed well-typed
// responses while non-shed results stay bit-identical, refuses over-cap
// connections with a framed response instead of a silent drop, and drains
// pipelined requests past the request budget before shutting down.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <thread>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/batch_runner.hpp"
#include "core/engine_registry.hpp"
#include "dataset/corpus.hpp"
#include "kb/seed.hpp"
#include "serve/client.hpp"
#include "serve/reactor.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "serve/wire.hpp"

namespace rustbrain::serve {
namespace {

/// Shared fixtures: one standard corpus and one seeded knowledge base per
/// process (seeding verifies every rule — not free).
const dataset::Corpus& corpus() {
    static const dataset::Corpus c = dataset::Corpus::standard();
    return c;
}

const kb::KnowledgeBase& knowledge_base() {
    static const kb::KnowledgeBase kbase = [] {
        kb::KnowledgeBase fresh;
        kb::seed_from_corpus(corpus(), fresh);
        return fresh;
    }();
    return kbase;
}

/// The serial oracle: every corpus case rendered by a one-worker
/// BatchRunner, keyed by case id. Computed once per process.
const std::map<std::string, std::string>& serial_renderings() {
    static const std::map<std::string, std::string> renderings = [] {
        core::EngineBuildContext context;
        context.knowledge_base = &knowledge_base();
        const core::BatchRunner serial("rustbrain", {}, context,
                                       core::BatchOptions{1});
        const core::BatchReport report = serial.run(corpus());
        std::map<std::string, std::string> out;
        for (std::size_t i = 0; i < corpus().size(); ++i) {
            out[corpus().cases()[i].id] =
                render_case_result(report.results[i]);
        }
        return out;
    }();
    return renderings;
}

ServerOptions reactor_options(std::size_t workers) {
    ServerOptions options;
    options.service.workers = workers;
    options.service.knowledge_base = &knowledge_base();
    return options;
}

TEST(ServeReactorTest, TransientAcceptErrorsAreExactlyTheFdExhaustionClass) {
    EXPECT_TRUE(is_transient_accept_error(EMFILE));
    EXPECT_TRUE(is_transient_accept_error(ENFILE));
    EXPECT_TRUE(is_transient_accept_error(ENOBUFS));
    EXPECT_TRUE(is_transient_accept_error(ENOMEM));
    // Retried immediately by the accept loop, not via backoff:
    EXPECT_FALSE(is_transient_accept_error(EINTR));
    EXPECT_FALSE(is_transient_accept_error(ECONNABORTED));
    // Fatal:
    EXPECT_FALSE(is_transient_accept_error(EBADF));
    EXPECT_FALSE(is_transient_accept_error(EINVAL));
}

TEST(ServeReactorTest, FullCatalogPipelinedIsByteIdenticalToSerialSweep) {
    // The acceptance property: the reactor serves the whole catalog over
    // one fully pipelined connection (every request written before any
    // response is read), and the rendered results are byte-identical to
    // the serial sweep at both worker counts.
    for (std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
        RepairServer server(reactor_options(workers));
        RepairClient client(server.port());
        for (std::size_t i = 0; i < corpus().size(); ++i) {
            RepairRequest request;
            request.ticket = "t-" + std::to_string(i);
            request.ub_case = corpus().cases()[i];
            client.send_async(request);
        }
        for (std::size_t i = 0; i < corpus().size(); ++i) {
            const RepairResponse response = client.recv_one();
            ASSERT_TRUE(response.ok)
                << "workers=" << workers << ": " << response.error;
            // In-order responses: ticket i comes back ith.
            EXPECT_EQ(response.ticket, "t-" + std::to_string(i));
            EXPECT_EQ(render_case_result(response.result),
                      serial_renderings().at(corpus().cases()[i].id))
                << "workers=" << workers << " case "
                << corpus().cases()[i].id;
        }
        EXPECT_EQ(server.requests_served(), corpus().size());
        const ServerStats stats = server.stats();
        EXPECT_EQ(stats.frames_read, corpus().size());
        EXPECT_EQ(stats.frames_written, corpus().size());
        EXPECT_EQ(stats.connections_accepted, 1u);
        EXPECT_GE(stats.max_pipeline_depth, 1u);
        server.stop();
    }
}

TEST(ServeReactorTest, ThirtyTwoConcurrentPipelinedConnections) {
    // 32 connections, each pipelining its own interleaved slice of the
    // catalog before anyone reads: the per-connection response order and
    // the bytes must both hold with every connection in flight at once.
    const std::size_t kConnections = 32;
    const std::size_t kPerConnection = 4;
    RepairServer server(reactor_options(/*workers=*/4));
    std::vector<std::unique_ptr<RepairClient>> clients;
    for (std::size_t c = 0; c < kConnections; ++c) {
        clients.push_back(std::make_unique<RepairClient>(server.port()));
    }
    for (std::size_t k = 0; k < kPerConnection; ++k) {
        for (std::size_t c = 0; c < kConnections; ++c) {
            const std::size_t index =
                (c * kPerConnection + k) % corpus().size();
            RepairRequest request;
            request.ticket = std::to_string(c) + ":" + std::to_string(k);
            request.ub_case = corpus().cases()[index];
            clients[c]->send_async(request);
        }
    }
    for (std::size_t c = 0; c < kConnections; ++c) {
        for (std::size_t k = 0; k < kPerConnection; ++k) {
            const std::size_t index =
                (c * kPerConnection + k) % corpus().size();
            const RepairResponse response = clients[c]->recv_one();
            ASSERT_TRUE(response.ok) << response.error;
            EXPECT_EQ(response.ticket,
                      std::to_string(c) + ":" + std::to_string(k));
            EXPECT_EQ(render_case_result(response.result),
                      serial_renderings().at(corpus().cases()[index].id));
        }
    }
    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.connections_accepted, kConnections);
    EXPECT_EQ(stats.frames_read, kConnections * kPerConnection);
    server.stop();
}

TEST(ServeReactorTest, OverloadShedsFramedResponsesAndKeepsTheConnection) {
    // workers=1 and max_inflight=1 with 16 requests pipelined in one
    // burst: admission control must shed most of them. Every shed comes
    // back as a framed, well-typed response in its pipeline slot; every
    // non-shed result stays bit-identical to the serial sweep; and the
    // connection survives to serve a post-burst request.
    ServerOptions options = reactor_options(/*workers=*/1);
    options.service.max_inflight = 1;
    RepairServer server(options);
    RepairClient client(server.port());
    const std::size_t kBurst = 16;
    const dataset::UbCase& ub_case = corpus().cases().front();
    for (std::size_t i = 0; i < kBurst; ++i) {
        RepairRequest request;
        request.ticket = "b-" + std::to_string(i);
        request.ub_case = ub_case;
        client.send_async(request);
    }
    std::size_t ok = 0;
    std::size_t shed = 0;
    for (std::size_t i = 0; i < kBurst; ++i) {
        const RepairResponse response = client.recv_one();
        EXPECT_EQ(response.ticket, "b-" + std::to_string(i));
        if (response.shed) {
            ++shed;
            EXPECT_FALSE(response.ok);
            EXPECT_GE(response.retry_after_ms, 1.0);
            EXPECT_NE(response.error.find("overloaded"), std::string::npos)
                << response.error;
            // A shed request was never run: no result attached.
            EXPECT_EQ(response.result.case_id, "");
        } else {
            ASSERT_TRUE(response.ok) << response.error;
            ++ok;
            EXPECT_EQ(render_case_result(response.result),
                      serial_renderings().at(ub_case.id));
        }
    }
    EXPECT_EQ(ok + shed, kBurst);
    EXPECT_GE(ok, 1u);    // the first request always fits under the cap
    EXPECT_GE(shed, 1u);  // a 16-deep burst cannot all fit through cap 1

    // Shedding answered over the connection — it never dropped it.
    RepairRequest after;
    after.ticket = "after";
    after.ub_case = ub_case;
    const RepairResponse response = client.repair(after);
    ASSERT_TRUE(response.ok) << response.error;
    EXPECT_EQ(render_case_result(response.result),
              serial_renderings().at(ub_case.id));

    const ServiceStats stats = server.service().stats();
    EXPECT_EQ(stats.shed, shed);
    EXPECT_EQ(stats.submitted, kBurst + 1);
    EXPECT_EQ(stats.completed, ok + 1);
    server.stop();
}

TEST(ServeReactorTest, ConnectionCapRefusesWithAFramedShedResponse) {
    ServerOptions options = reactor_options(/*workers=*/1);
    options.max_connections = 1;
    RepairServer server(options);
    RepairClient first(server.port());
    // A completed round trip guarantees the reactor registered `first`
    // before the second connect is accepted.
    RepairRequest request;
    request.ub_case = corpus().cases().front();
    ASSERT_TRUE(first.repair(request).ok);

    RepairClient second(server.port());
    const RepairResponse refusal = second.recv_one();
    EXPECT_FALSE(refusal.ok);
    EXPECT_TRUE(refusal.shed);
    EXPECT_GT(refusal.retry_after_ms, 0.0);
    EXPECT_NE(refusal.error.find("connection cap"), std::string::npos)
        << refusal.error;
    EXPECT_EQ(server.stats().connections_rejected, 1u);

    // The capped-out connection never disturbed the first one.
    ASSERT_TRUE(first.repair(request).ok);
    server.stop();
}

TEST(ServeReactorTest, BudgetDrainsPipelinedRequestsBeforeShutdown) {
    // max_requests smaller than the pipeline depth: requests decoded
    // before the budget tripped are still answered, then wait() returns
    // without stop() ever being called externally.
    ServerOptions options = reactor_options(/*workers=*/1);
    options.max_requests = 2;
    RepairServer server(options);
    RepairClient client(server.port());
    const std::size_t kPipelined = 4;
    for (std::size_t i = 0; i < kPipelined; ++i) {
        RepairRequest request;
        request.ticket = "p-" + std::to_string(i);
        request.ub_case = corpus().cases().front();
        client.send_async(request);
    }
    // Frames decoded before the budget tripped are all answered, in
    // order; frames still in the socket when it tripped are not decoded,
    // and the server closes after the owed responses are flushed. Both
    // splits are legal — the invariant is "never fewer than the budget,
    // never a dropped owed response".
    std::size_t received = 0;
    try {
        for (; received < kPipelined; ++received) {
            const RepairResponse response = client.recv_one();
            ASSERT_TRUE(response.ok) << response.error;
            EXPECT_EQ(response.ticket, "p-" + std::to_string(received));
        }
    } catch (const std::runtime_error&) {
        // Clean close after the drain.
    }
    EXPECT_GE(received, 2u);
    server.wait();
    EXPECT_EQ(server.requests_served(), received);
}

TEST(ServeReactorTest, PartialVectoredWritesMidIovecKeepBytesExact) {
    // A tiny server send buffer plus a tiny-window client that reads
    // nothing until the whole catalog is in flight: multi-frame writev
    // batches must stop partway through an iovec, arm EPOLLOUT, and
    // resume across the partially written frame — and the byte stream
    // the client finally reads must still be exact and in order.
    ServerOptions options = reactor_options(/*workers=*/4);
    options.send_buffer_bytes = 4096;
    RepairServer server(options);

    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    int rcvbuf = 4096;  // set before connect so the window stays small
    ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf,
                           sizeof rcvbuf),
              0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server.port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof addr),
              0);

    for (std::size_t i = 0; i < corpus().size(); ++i) {
        RepairRequest request;
        request.ticket = "t-" + std::to_string(i);
        request.ub_case = corpus().cases()[i];
        write_frame(fd, render_request(request));
    }
    // Let responses pile up behind the stalled writer so flushes have
    // multi-frame batches to gather once reading starts.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (server.stats().epollout_arms == 0) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << "writer never stalled despite the 4 KiB buffers";
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    for (std::size_t i = 0; i < corpus().size(); ++i) {
        std::string payload;
        ASSERT_TRUE(read_frame(fd, payload)) << "short stream at " << i;
        const RepairResponse response = parse_response(payload);
        ASSERT_TRUE(response.ok) << response.error;
        EXPECT_EQ(response.ticket, "t-" + std::to_string(i));
        EXPECT_EQ(render_case_result(response.result),
                  serial_renderings().at(corpus().cases()[i].id));
    }
    ::close(fd);
    const ServerStats stats = server.stats();
    EXPECT_GE(stats.epollout_arms, 1u);
    EXPECT_GE(stats.writev_batches, 2u);
    EXPECT_GE(stats.frames_per_writev_max, 2u);
    EXPECT_EQ(stats.frames_written, corpus().size());
    server.stop();
}

}  // namespace
}  // namespace rustbrain::serve
