#include "serve/wire.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "dataset/corpus.hpp"
#include "gen/corpus_io.hpp"
#include "support/line_reader.hpp"

namespace rustbrain::serve {

namespace {

const char* kRequestMagic = "rustbrain-request";
const char* kResponseMagic = "rustbrain-response";
const char* kResultMagic = "case-result";

/// %a hexfloat: renders every finite double so that strtod reads the
/// identical bit pattern back — the round-trip the byte-compare needs.
std::string render_double(double value) {
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%a", value);
    return buffer;
}

/// Byte-counted block: "<key> <bytes>\n<raw bytes>\n" — raw text is never
/// escaped, so any payload (newlines included) round-trips exactly.
void write_block(std::ostringstream& out, const char* key,
                 const std::string& payload) {
    out << key << ' ' << payload.size() << '\n' << payload << '\n';
}

using Reader = support::LineReader;

const char* kFormatError = "wire format error";

void check_header(Reader& reader, const char* magic) {
    const std::string header = reader.read_line();
    const std::string expected =
        std::string(magic) + " v" + std::to_string(kWireFormatVersion);
    if (header != expected) {
        reader.fail("expected '" + expected + "' but found '" + header + "'");
    }
}

void expect_end(Reader& reader) {
    if (reader.read_line() != "end") reader.fail("expected 'end'");
    if (!reader.at_end()) reader.fail("trailing content after 'end'");
}

/// A line of exactly `N` canonical unsigned integers after `key`.
template <std::size_t N>
std::array<int, N> read_ints(Reader& reader, const char* key) {
    const std::vector<std::string> words = reader.read_words(key);
    if (words.size() != N) {
        reader.fail(std::string("malformed ") + key + " line");
    }
    std::array<int, N> values{};
    for (std::size_t i = 0; i < N; ++i) {
        values[i] = reader.parse_int(words[i], key);
    }
    return values;
}

void header(std::ostringstream& out, const char* magic) {
    out << magic << " v" << kWireFormatVersion << '\n';
}

}  // namespace

std::string frame(const std::string& payload) {
    if (payload.size() > kMaxFramePayload) {
        throw std::invalid_argument(
            "frame payload exceeds the 16 MiB wire limit (" +
            std::to_string(payload.size()) + " bytes)");
    }
    const auto size = static_cast<std::uint32_t>(payload.size());
    std::string framed;
    framed.reserve(payload.size() + 4);
    framed.push_back(static_cast<char>((size >> 24) & 0xFF));
    framed.push_back(static_cast<char>((size >> 16) & 0xFF));
    framed.push_back(static_cast<char>((size >> 8) & 0xFF));
    framed.push_back(static_cast<char>(size & 0xFF));
    framed.append(payload);
    return framed;
}

std::string render_case_result(const core::CaseResult& result) {
    std::ostringstream out;
    header(out, kResultMagic);
    write_block(out, "case_id", result.case_id);
    out << "pass " << (result.pass ? 1 : 0) << '\n';
    out << "exec " << (result.exec ? 1 : 0) << '\n';
    out << "time_ms " << render_double(result.time_ms) << '\n';
    out << "breakdown " << result.time_breakdown.size() << '\n';
    for (const auto& [category, charge] : result.time_breakdown) {
        // std::map iterates in key order, so the rendering is canonical.
        out << "charge " << render_double(charge) << ' ' << category.size()
            << '\n'
            << category << '\n';
    }
    out << "solutions " << result.solutions_generated << '\n';
    out << "steps " << result.steps_executed << '\n';
    out << "rollbacks " << result.rollbacks << '\n';
    out << "llm_calls " << result.llm_calls << '\n';
    out << "kb_consulted " << (result.kb_consulted ? 1 : 0) << '\n';
    out << "kb_skipped " << (result.kb_skipped_by_feedback ? 1 : 0) << '\n';
    out << "thinking " << result.thinking_switches << ' ' << result.escalations
        << ' ' << result.early_stops << ' ' << result.attempts_skipped << '\n';
    out << "trajectory " << result.error_trajectory.size();
    for (std::size_t errors : result.error_trajectory) out << ' ' << errors;
    out << '\n';
    write_block(out, "winning_rule", result.winning_rule);
    write_block(out, "final_source", result.final_source);
    out << "end\n";
    return out.str();
}

core::CaseResult parse_case_result(const std::string& text) {
    Reader reader(text, kFormatError);
    check_header(reader, kResultMagic);
    core::CaseResult result;
    result.case_id = reader.read_block("case_id");
    result.pass = reader.parse_bool(reader.read_field("pass"), "pass");
    result.exec = reader.parse_bool(reader.read_field("exec"), "exec");
    result.time_ms =
        reader.parse_double(reader.read_field("time_ms"), "time_ms");
    const std::uint64_t breakdown =
        reader.parse_u64(reader.read_field("breakdown"), "breakdown count");
    for (std::uint64_t i = 0; i < breakdown; ++i) {
        const std::vector<std::string> words = reader.read_words("charge");
        if (words.size() != 2) reader.fail("malformed charge line");
        const double charge = reader.parse_double(words[0], "charge");
        const std::string category = reader.read_block_body(
            reader.parse_u64(words[1], "charge byte count"));
        result.time_breakdown[category] = charge;
    }
    result.solutions_generated =
        reader.parse_int(reader.read_field("solutions"), "solutions");
    result.steps_executed =
        reader.parse_int(reader.read_field("steps"), "steps");
    result.rollbacks =
        reader.parse_int(reader.read_field("rollbacks"), "rollbacks");
    result.llm_calls =
        reader.parse_u64(reader.read_field("llm_calls"), "llm_calls");
    result.kb_consulted =
        reader.parse_bool(reader.read_field("kb_consulted"), "kb_consulted");
    result.kb_skipped_by_feedback =
        reader.parse_bool(reader.read_field("kb_skipped"), "kb_skipped");
    const std::array<int, 4> thinking = read_ints<4>(reader, "thinking");
    result.thinking_switches = thinking[0];
    result.escalations = thinking[1];
    result.early_stops = thinking[2];
    result.attempts_skipped = thinking[3];
    for (const std::string& word : reader.read_list("trajectory")) {
        result.error_trajectory.push_back(
            reader.parse_u64(word, "trajectory entry"));
    }
    result.winning_rule = reader.read_block("winning_rule");
    result.final_source = reader.read_block("final_source");
    expect_end(reader);
    return result;
}

std::string render_request(const RepairRequest& request) {
    std::ostringstream out;
    header(out, kRequestMagic);
    write_block(out, "ticket", request.ticket);
    write_block(out, "engine", request.engine);
    write_block(out, "options", request.options);
    write_block(out, "policy", request.policy);
    out << "feedback " << (request.use_feedback ? 1 : 0) << '\n';
    // The case travels as a single-case corpus: corpus_io already
    // round-trips every program byte-exactly and validates eagerly.
    const std::string corpus_text =
        gen::corpus_to_string(dataset::Corpus({request.ub_case}));
    write_block(out, "case", corpus_text);
    out << "end\n";
    return out.str();
}

RepairRequest parse_request(const std::string& text) {
    Reader reader(text, kFormatError);
    check_header(reader, kRequestMagic);
    RepairRequest request;
    request.ticket = reader.read_block("ticket");
    request.engine = reader.read_block("engine");
    request.options = reader.read_block("options");
    request.policy = reader.read_block("policy");
    request.use_feedback =
        reader.parse_bool(reader.read_field("feedback"), "feedback");
    const std::string corpus_text = reader.read_block("case");
    dataset::Corpus corpus;
    try {
        corpus = gen::corpus_from_string(corpus_text);
    } catch (const std::exception& error) {
        reader.fail(std::string("embedded case does not parse: ") +
                    error.what());
    }
    if (corpus.size() != 1) {
        reader.fail("request must carry exactly one case, got " +
                    std::to_string(corpus.size()));
    }
    request.ub_case = corpus.cases().front();
    expect_end(reader);
    return request;
}

std::string render_response(const RepairResponse& response) {
    std::ostringstream out;
    header(out, kResponseMagic);
    write_block(out, "ticket", response.ticket);
    out << "ok " << (response.ok ? 1 : 0) << '\n';
    out << "shed " << (response.shed ? 1 : 0) << '\n';
    out << "retry_after_ms " << render_double(response.retry_after_ms) << '\n';
    write_block(out, "error", response.error);
    out << "worker " << response.worker << '\n';
    out << "queue_ms " << render_double(response.queue_ms) << '\n';
    out << "service_ms " << render_double(response.service_ms) << '\n';
    write_block(out, "result", render_case_result(response.result));
    out << "end\n";
    return out.str();
}

RepairResponse parse_response(const std::string& text) {
    Reader reader(text, kFormatError);
    check_header(reader, kResponseMagic);
    RepairResponse response;
    response.ticket = reader.read_block("ticket");
    response.ok = reader.parse_bool(reader.read_field("ok"), "ok");
    response.shed = reader.parse_bool(reader.read_field("shed"), "shed");
    response.retry_after_ms = reader.parse_double(
        reader.read_field("retry_after_ms"), "retry_after_ms");
    response.error = reader.read_block("error");
    response.worker = reader.parse_u64(reader.read_field("worker"), "worker");
    response.queue_ms =
        reader.parse_double(reader.read_field("queue_ms"), "queue_ms");
    response.service_ms =
        reader.parse_double(reader.read_field("service_ms"), "service_ms");
    const std::string result_text = reader.read_block("result");
    try {
        response.result = parse_case_result(result_text);
    } catch (const std::exception& error) {
        reader.fail(std::string("embedded result does not parse: ") +
                    error.what());
    }
    expect_end(reader);
    return response;
}

void write_frame(int fd, const std::string& payload) {
    const std::string framed = frame(payload);
    std::size_t written = 0;
    while (written < framed.size()) {
        // MSG_NOSIGNAL: a peer that disconnects before the response lands
        // must surface as EPIPE (an exception the caller catches), not as
        // a SIGPIPE that kills the whole process.
        ssize_t n = ::send(fd, framed.data() + written,
                           framed.size() - written, MSG_NOSIGNAL);
        if (n < 0 && errno == ENOTSOCK) {
            // Not a socket (the wire tests frame over plain pipes).
            n = ::write(fd, framed.data() + written, framed.size() - written);
        }
        if (n < 0) {
            if (errno == EINTR) continue;
            throw std::runtime_error(std::string("frame write failed: ") +
                                     std::strerror(errno));
        }
        written += static_cast<std::size_t>(n);
    }
}

namespace {

/// Reads exactly `want` bytes. Returns false on EOF before the first byte
/// when `eof_ok`; throws on I/O errors or a mid-buffer EOF.
bool read_exact(int fd, char* buffer, std::size_t want, bool eof_ok) {
    std::size_t got = 0;
    while (got < want) {
        const ssize_t n = ::read(fd, buffer + got, want - got);
        if (n < 0) {
            if (errno == EINTR) continue;
            throw std::runtime_error(std::string("frame read failed: ") +
                                     std::strerror(errno));
        }
        if (n == 0) {
            if (got == 0 && eof_ok) return false;
            throw std::runtime_error("connection closed mid-frame");
        }
        got += static_cast<std::size_t>(n);
    }
    return true;
}

}  // namespace

namespace {

/// Decode the 4-byte big-endian length prefix, enforcing the payload cap.
std::uint32_t decode_prefix(const char* prefix) {
    const std::uint32_t size =
        (static_cast<std::uint32_t>(static_cast<unsigned char>(prefix[0]))
         << 24) |
        (static_cast<std::uint32_t>(static_cast<unsigned char>(prefix[1]))
         << 16) |
        (static_cast<std::uint32_t>(static_cast<unsigned char>(prefix[2]))
         << 8) |
        static_cast<std::uint32_t>(static_cast<unsigned char>(prefix[3]));
    if (size > kMaxFramePayload) {
        throw std::runtime_error(
            "frame length prefix exceeds the 16 MiB wire limit (" +
            std::to_string(size) + " bytes)");
    }
    return size;
}

}  // namespace

bool read_frame(int fd, std::string& payload) {
    char prefix[4];
    if (!read_exact(fd, prefix, sizeof prefix, /*eof_ok=*/true)) return false;
    const std::uint32_t size = decode_prefix(prefix);
    payload.resize(size);
    if (size > 0) {
        (void)read_exact(fd, payload.data(), size, /*eof_ok=*/false);
    }
    return true;
}

void FrameReader::feed(const char* data, std::size_t n) {
    buffer_.append(data, n);
}

bool FrameReader::next(std::string& payload) {
    const std::size_t available = buffer_.size() - pos_;
    if (available < 4) {
        // Everything buffered is a partial prefix; compact so a stream of
        // tiny frames never grows the buffer without bound.
        if (pos_ > 0) {
            buffer_.erase(0, pos_);
            pos_ = 0;
        }
        return false;
    }
    const std::uint32_t size = decode_prefix(buffer_.data() + pos_);
    if (available < 4 + static_cast<std::size_t>(size)) {
        if (pos_ > 0) {
            buffer_.erase(0, pos_);
            pos_ = 0;
        }
        return false;
    }
    payload.assign(buffer_, pos_ + 4, size);
    pos_ += 4 + static_cast<std::size_t>(size);
    ++frames_;
    if (pos_ == buffer_.size()) {
        buffer_.clear();
        pos_ = 0;
    }
    return true;
}

}  // namespace rustbrain::serve
