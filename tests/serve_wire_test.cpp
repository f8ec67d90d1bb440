// serve/wire — the framed text protocol: render/parse round-trip every
// field byte-exactly (hexfloat doubles included), malformed payloads fail
// naming the offending line, and framed fd I/O survives binary payloads,
// reports clean EOF, and rejects hostile length prefixes.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "dataset/corpus.hpp"
#include "serve/wire.hpp"

namespace rustbrain::serve {
namespace {

core::CaseResult full_result() {
    core::CaseResult result;
    result.case_id = "alloc/double_free_0";
    result.pass = true;
    result.exec = true;
    result.time_ms = 1234.5 + 1.0 / 3.0;  // not representable in decimal
    result.time_breakdown["llm"] = 0.1;
    result.time_breakdown["verify"] = 7.0 / 11.0;
    result.solutions_generated = 3;
    result.steps_executed = 5;
    result.rollbacks = 1;
    result.llm_calls = 9;
    result.kb_consulted = true;
    result.kb_skipped_by_feedback = false;
    result.thinking_switches = 2;
    result.escalations = 1;
    result.early_stops = 1;
    result.attempts_skipped = 4;
    result.error_trajectory = {3, 1, 0};
    result.winning_rule = "use-after-free/guard";
    // Multi-line source with a line that looks like the terminator — the
    // byte-counted block must carry it through untouched.
    result.final_source = "fn main() {\n    print_int(42);\n}\nend\n";
    return result;
}

TEST(ServeWireTest, CaseResultRoundTripsByteExactly) {
    const core::CaseResult original = full_result();
    const std::string rendered = render_case_result(original);
    const core::CaseResult parsed = parse_case_result(rendered);
    // Byte-exactness of the rendering is the property deterministic mode
    // byte-compares rest on: render(parse(render(x))) == render(x).
    EXPECT_EQ(render_case_result(parsed), rendered);
    EXPECT_EQ(parsed.case_id, original.case_id);
    EXPECT_EQ(parsed.pass, original.pass);
    EXPECT_EQ(parsed.exec, original.exec);
    EXPECT_EQ(parsed.time_ms, original.time_ms);  // exact, not NEAR
    EXPECT_EQ(parsed.time_breakdown, original.time_breakdown);
    EXPECT_EQ(parsed.solutions_generated, original.solutions_generated);
    EXPECT_EQ(parsed.steps_executed, original.steps_executed);
    EXPECT_EQ(parsed.rollbacks, original.rollbacks);
    EXPECT_EQ(parsed.llm_calls, original.llm_calls);
    EXPECT_EQ(parsed.kb_consulted, original.kb_consulted);
    EXPECT_EQ(parsed.kb_skipped_by_feedback, original.kb_skipped_by_feedback);
    EXPECT_EQ(parsed.thinking_switches, original.thinking_switches);
    EXPECT_EQ(parsed.escalations, original.escalations);
    EXPECT_EQ(parsed.early_stops, original.early_stops);
    EXPECT_EQ(parsed.attempts_skipped, original.attempts_skipped);
    EXPECT_EQ(parsed.error_trajectory, original.error_trajectory);
    EXPECT_EQ(parsed.winning_rule, original.winning_rule);
    EXPECT_EQ(parsed.final_source, original.final_source);
}

TEST(ServeWireTest, RequestRoundTripsIncludingTheCase) {
    const dataset::Corpus corpus = dataset::Corpus::standard();
    RepairRequest request;
    request.ticket = "ticket with spaces\nand a newline";
    request.engine = "rustbrain";
    request.options = "seed=7,temperature=0.25";
    request.policy = "feedback-guided,threshold=2";
    request.use_feedback = true;
    request.ub_case = corpus.cases().front();

    const std::string rendered = render_request(request);
    const RepairRequest parsed = parse_request(rendered);
    EXPECT_EQ(render_request(parsed), rendered);
    EXPECT_EQ(parsed.ticket, request.ticket);
    EXPECT_EQ(parsed.engine, request.engine);
    EXPECT_EQ(parsed.options, request.options);
    EXPECT_EQ(parsed.policy, request.policy);
    EXPECT_EQ(parsed.use_feedback, request.use_feedback);
    EXPECT_EQ(parsed.ub_case.id, request.ub_case.id);
    EXPECT_EQ(parsed.ub_case.buggy_source, request.ub_case.buggy_source);
    EXPECT_EQ(parsed.ub_case.reference_fix, request.ub_case.reference_fix);
    EXPECT_EQ(parsed.ub_case.inputs, request.ub_case.inputs);
    EXPECT_EQ(parsed.ub_case.category, request.ub_case.category);
    EXPECT_EQ(parsed.ub_case.difficulty, request.ub_case.difficulty);
}

TEST(ServeWireTest, ResponseRoundTripsBothOutcomes) {
    RepairResponse ok;
    ok.ticket = "t-1";
    ok.ok = true;
    ok.result = full_result();
    ok.worker = 3;
    ok.queue_ms = 0.125;
    ok.service_ms = 17.375;
    const std::string ok_rendered = render_response(ok);
    const RepairResponse ok_parsed = parse_response(ok_rendered);
    EXPECT_EQ(render_response(ok_parsed), ok_rendered);
    EXPECT_TRUE(ok_parsed.ok);
    EXPECT_EQ(ok_parsed.ticket, "t-1");
    EXPECT_EQ(ok_parsed.worker, 3u);
    EXPECT_EQ(ok_parsed.queue_ms, 0.125);
    EXPECT_EQ(ok_parsed.service_ms, 17.375);
    EXPECT_EQ(render_case_result(ok_parsed.result),
              render_case_result(ok.result));

    RepairResponse failed;
    failed.ticket = "t-2";
    failed.ok = false;
    failed.error = "unknown engine 'nope'\navailable: rustbrain, ...";
    const RepairResponse failed_parsed =
        parse_response(render_response(failed));
    EXPECT_FALSE(failed_parsed.ok);
    EXPECT_EQ(failed_parsed.error, failed.error);
    EXPECT_EQ(failed_parsed.result.case_id, "");
}

TEST(ServeWireTest, MalformedPayloadsThrowNamingTheLine) {
    try {
        (void)parse_case_result("this is not a case result\n");
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& error) {
        EXPECT_NE(std::string(error.what()).find("wire format error (line"),
                  std::string::npos)
            << error.what();
    }
    EXPECT_THROW((void)parse_request("garbage\n"), std::runtime_error);
    EXPECT_THROW((void)parse_response(""), std::runtime_error);
    // A truncated but well-prefixed rendering fails too.
    const std::string rendered = render_case_result(full_result());
    EXPECT_THROW((void)parse_case_result(
                     rendered.substr(0, rendered.size() / 2)),
                 std::runtime_error);
}

TEST(ServeWireTest, NonCanonicalIntegersAreRejected) {
    // std::stoull would happily take leading whitespace, '+' and leading
    // zeros, operator>> a doubled space, and a cast to int wraps a count
    // past INT_MAX; strtod takes a decimal double or leading whitespace.
    // The wire format is strict-canonical, so every one must fail to parse
    // — in single fields and in the multi-number lines, which must also
    // hold exactly the declared count. A retired line (the old `screens`
    // counters) is rejected the same way, never skipped.
    const std::string rendered = render_case_result(full_result());
    for (const auto& [from, to] :
         std::vector<std::pair<std::string, std::string>>{
             {"solutions 3", "solutions +3"},
             {"solutions 3", "solutions  3"},
             {"solutions 3", "solutions 4294967299"},
             {"solutions 3", "solutions 03"},
             {"0x1.999999999999ap-4", "0.1"},
             {"0x1.999999999999ap-4", "\t0x1.999999999999ap-4"},
             {"thinking 2 1 1 4", "thinking 2 1 1 4294967300"},
             {"thinking 2 1 1 4", "thinking 2 1 1 +4"},
             {"thinking 2 1 1 4", "thinking 2  1 1 4"},
             {"thinking 2 1 1 4", "thinking 2 1 1"},
             {"trajectory 3 3 1 0", "screens 0 0 0 0\ntrajectory 3 3 1 0"},
             {"trajectory 3 3 1 0", "trajectory 3 3 1 +0"},
             {"trajectory 3 3 1 0", "trajectory 4 3 1 0"},
             {"trajectory 3 3 1 0", "trajectory 99999999999 3 1 0"},
             {"trajectory 3 3 1 0", "trajectory 3 3 1 0 "}}) {
        std::string mutated = rendered;
        const std::size_t pos = mutated.find(from);
        ASSERT_NE(pos, std::string::npos) << from;
        mutated.replace(pos, from.size(), to);
        try {
            (void)parse_case_result(mutated);
            ADD_FAILURE() << "accepted '" << to << "'";
        } catch (const std::runtime_error& error) {
            EXPECT_NE(std::string(error.what()).find("wire format error (line"),
                      std::string::npos)
                << error.what();
        }
    }
    std::string charge = rendered;
    const std::size_t pos = charge.find("charge ");
    ASSERT_NE(pos, std::string::npos);
    charge.insert(charge.find(' ', pos + 7) + 1, "+");  // "+<bytes>"
    EXPECT_THROW((void)parse_case_result(charge), std::runtime_error);
}

TEST(ServeWireTest, FramePrefixIsBigEndianAndBounded) {
    const std::string framed = frame("abc");
    ASSERT_EQ(framed.size(), 7u);
    EXPECT_EQ(static_cast<unsigned char>(framed[0]), 0u);
    EXPECT_EQ(static_cast<unsigned char>(framed[1]), 0u);
    EXPECT_EQ(static_cast<unsigned char>(framed[2]), 0u);
    EXPECT_EQ(static_cast<unsigned char>(framed[3]), 3u);
    EXPECT_EQ(framed.substr(4), "abc");
    EXPECT_THROW((void)frame(std::string(kMaxFramePayload + 1, 'x')),
                 std::invalid_argument);
}

TEST(ServeWireTest, FramedFdIoRoundTripsBinaryAndReportsCleanEof) {
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    const std::string binary("\x00\xff\x01\nnot a line\x00tail", 19);
    write_frame(fds[1], binary);
    write_frame(fds[1], "");  // empty payloads are legal frames
    ::close(fds[1]);
    std::string payload;
    ASSERT_TRUE(read_frame(fds[0], payload));
    EXPECT_EQ(payload, binary);
    ASSERT_TRUE(read_frame(fds[0], payload));
    EXPECT_EQ(payload, "");
    EXPECT_FALSE(read_frame(fds[0], payload));  // clean EOF, no throw
    ::close(fds[0]);
}

TEST(ServeWireTest, WriteToDisconnectedPeerThrowsInsteadOfSigpipe) {
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    ::close(fds[0]);  // client gone before the response is written
    // Without MSG_NOSIGNAL this raises SIGPIPE and kills the whole test
    // binary; the contract is a catchable exception instead. Two writes:
    // the first may be absorbed by the send buffer.
    EXPECT_THROW(
        {
            write_frame(fds[1], std::string(1 << 20, 'x'));
            write_frame(fds[1], std::string(1 << 20, 'x'));
        },
        std::runtime_error);
    ::close(fds[1]);
}

TEST(ServeWireTest, TruncatedFrameThrowsInsteadOfReturningEof) {
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    // Prefix promises 10 bytes; only 3 arrive before EOF.
    const unsigned char prefix[4] = {0, 0, 0, 10};
    ASSERT_EQ(::write(fds[1], prefix, 4), 4);
    ASSERT_EQ(::write(fds[1], "abc", 3), 3);
    ::close(fds[1]);
    std::string payload;
    EXPECT_THROW((void)read_frame(fds[0], payload), std::runtime_error);
    ::close(fds[0]);
}

TEST(ServeWireTest, OversizedLengthPrefixIsRejectedBeforeAllocating) {
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    const unsigned char prefix[4] = {0xff, 0xff, 0xff, 0xff};  // ~4 GiB
    ASSERT_EQ(::write(fds[1], prefix, 4), 4);
    ::close(fds[1]);
    std::string payload;
    EXPECT_THROW((void)read_frame(fds[0], payload), std::runtime_error);
    ::close(fds[0]);
}

TEST(ServeWireTest, FrameReaderDecodesByteAtATime) {
    // The reactor's incremental decoder must produce the same frames no
    // matter how the stream is fragmented — here, maximally: one byte per
    // feed, across three frames including an empty payload and binary.
    const std::string binary("\x00\xff\x01\nnot a line\x00tail", 19);
    const std::string stream =
        frame("first payload") + frame("") + frame(binary);
    FrameReader reader;
    std::vector<std::string> frames;
    std::string payload;
    for (const char byte : stream) {
        reader.feed(&byte, 1);
        while (reader.next(payload)) frames.push_back(payload);
    }
    ASSERT_EQ(frames.size(), 3u);
    EXPECT_EQ(frames[0], "first payload");
    EXPECT_EQ(frames[1], "");
    EXPECT_EQ(frames[2], binary);
    EXPECT_EQ(reader.frames_decoded(), 3u);
    EXPECT_EQ(reader.buffered(), 0u);
}

TEST(ServeWireTest, FrameReaderSurvivesEverySplitBoundary) {
    // Two frames split at every possible position, including inside the
    // second frame's length prefix — the decoder never loses or reorders.
    const std::string stream = frame("alpha") + frame("beta-payload");
    for (std::size_t split = 0; split <= stream.size(); ++split) {
        FrameReader reader;
        std::vector<std::string> frames;
        std::string payload;
        reader.feed(stream.data(), split);
        while (reader.next(payload)) frames.push_back(payload);
        reader.feed(stream.data() + split, stream.size() - split);
        while (reader.next(payload)) frames.push_back(payload);
        ASSERT_EQ(frames.size(), 2u) << "split at " << split;
        EXPECT_EQ(frames[0], "alpha") << "split at " << split;
        EXPECT_EQ(frames[1], "beta-payload") << "split at " << split;
    }
}

TEST(ServeWireTest, FrameReaderDrainsManyFramesFromOneFeed) {
    std::string stream;
    for (int i = 0; i < 50; ++i) stream += frame("payload " + std::to_string(i));
    FrameReader reader;
    reader.feed(stream.data(), stream.size());
    std::string payload;
    for (int i = 0; i < 50; ++i) {
        ASSERT_TRUE(reader.next(payload)) << "frame " << i;
        EXPECT_EQ(payload, "payload " + std::to_string(i));
    }
    EXPECT_FALSE(reader.next(payload));
    EXPECT_EQ(reader.frames_decoded(), 50u);
}

TEST(ServeWireTest, FrameReaderRejectsOversizedPrefix) {
    FrameReader reader;
    const unsigned char prefix[4] = {0xff, 0xff, 0xff, 0xff};  // ~4 GiB
    reader.feed(reinterpret_cast<const char*>(prefix), 4);
    std::string payload;
    EXPECT_THROW((void)reader.next(payload), std::runtime_error);
}

TEST(ServeWireTest, FrameReaderReportsPartialFrameAsBuffered) {
    const std::string framed = frame("0123456789");
    FrameReader reader;
    reader.feed(framed.data(), 7);  // prefix + 3 payload bytes
    std::string payload;
    EXPECT_FALSE(reader.next(payload));
    EXPECT_EQ(reader.buffered(), 7u);
    reader.feed(framed.data() + 7, framed.size() - 7);
    ASSERT_TRUE(reader.next(payload));
    EXPECT_EQ(payload, "0123456789");
}

TEST(ServeWireTest, ResponseShedFieldsRoundTrip) {
    RepairResponse shed;
    shed.ticket = "t-3";
    shed.ok = false;
    shed.shed = true;
    shed.retry_after_ms = 12.5 + 1.0 / 3.0;  // not representable in decimal
    shed.error = "service overloaded; retry later";
    const std::string rendered = render_response(shed);
    const RepairResponse parsed = parse_response(rendered);
    EXPECT_EQ(render_response(parsed), rendered);
    EXPECT_FALSE(parsed.ok);
    EXPECT_TRUE(parsed.shed);
    EXPECT_EQ(parsed.retry_after_ms, shed.retry_after_ms);  // exact, not NEAR
    EXPECT_EQ(parsed.error, shed.error);
}

}  // namespace
}  // namespace rustbrain::serve
