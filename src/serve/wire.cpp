#include "serve/wire.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "dataset/corpus.hpp"
#include "gen/corpus_io.hpp"

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

/// Cursor over a payload with line-accurate error reporting — the
/// corpus_io Reader shape, shared by every parse_* below.
class Reader {
  public:
    explicit Reader(const std::string& text) : text_(text) {}

    [[noreturn]] void fail(const std::string& message) const {
        throw std::runtime_error("wire format error (line " +
                                 std::to_string(line_) + "): " + message);
    }

    [[nodiscard]] bool at_end() const { return pos_ >= text_.size(); }

    std::string read_line() {
        ++line_;
        if (at_end()) fail("unexpected end of input");
        const std::size_t newline = text_.find('\n', pos_);
        if (newline == std::string::npos) fail("missing final newline");
        std::string line = text_.substr(pos_, newline - pos_);
        pos_ = newline + 1;
        return line;
    }

    std::string read_field(const std::string& key) {
        const std::string line = read_line();
        if (line == key) return "";
        if (line.rfind(key + " ", 0) != 0) {
            fail("expected '" + key + " ...' but found '" + line + "'");
        }
        return line.substr(key.size() + 1);
    }

    std::uint64_t parse_u64(const std::string& text, const char* what) {
        // All-digits only: stoull alone would also accept leading
        // whitespace and '+'/'-' signs, which are not canonical wire form.
        bool digits = !text.empty();
        for (const char c : text) {
            if (c < '0' || c > '9') {
                digits = false;
                break;
            }
        }
        if (digits) {
            try {
                return std::stoull(text);
            } catch (...) {  // out of range
            }
        }
        fail(std::string(what) + " is not an unsigned integer: '" + text +
             "'");
    }

    double parse_double(const std::string& text, const char* what) {
        const char* begin = text.c_str();
        char* end = nullptr;
        const double value = std::strtod(begin, &end);
        if (end != begin + text.size() || text.empty()) {
            fail(std::string(what) + " is not a number: '" + text + "'");
        }
        return value;
    }

    bool parse_bool(const std::string& text, const char* what) {
        if (text == "1") return true;
        if (text == "0") return false;
        fail(std::string(what) + " must be 0 or 1, got '" + text + "'");
    }

    /// Exactly `bytes` raw bytes followed by one '\n'.
    std::string read_block_body(std::uint64_t bytes) {
        const std::uint64_t remaining = text_.size() - pos_;
        if (remaining == 0 || bytes >= remaining) {
            fail("block runs past end of input");
        }
        std::string block = text_.substr(pos_, bytes);
        pos_ += bytes;
        if (text_[pos_] != '\n') {
            fail("block is not terminated by a newline (byte count is "
                 "wrong)");
        }
        ++pos_;
        for (char c : block) {
            if (c == '\n') ++line_;
        }
        ++line_;
        return block;
    }

    std::string read_block(const char* key) {
        return read_block_body(parse_u64(read_field(key), key));
    }

    void expect_end() {
        if (read_line() != "end") fail("expected 'end'");
        if (!at_end()) fail("trailing content after 'end'");
    }

    void check_header(const char* magic) {
        const std::string header = read_line();
        const std::string expected =
            std::string(magic) + " v" + std::to_string(kWireFormatVersion);
        if (header != expected) {
            fail("expected '" + expected + "' but found '" + header + "'");
        }
    }

  private:
    const std::string& text_;
    std::size_t pos_ = 0;
    std::size_t line_ = 0;
};

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
    out << "screens " << result.screens << ' ' << result.screen_proven_safe
        << ' ' << result.screen_likely_ub << ' ' << result.screen_unknown
        << '\n';
    out << "trajectory " << result.error_trajectory.size();
    for (std::size_t errors : result.error_trajectory) out << ' ' << errors;
    out << '\n';
    write_block(out, "winning_rule", result.winning_rule);
    write_block(out, "final_source", result.final_source);
    out << "end\n";
    return out.str();
}

core::CaseResult parse_case_result(const std::string& text) {
    Reader reader(text);
    reader.check_header(kResultMagic);
    core::CaseResult result;
    result.case_id = reader.read_block("case_id");
    result.pass = reader.parse_bool(reader.read_field("pass"), "pass");
    result.exec = reader.parse_bool(reader.read_field("exec"), "exec");
    result.time_ms =
        reader.parse_double(reader.read_field("time_ms"), "time_ms");
    const std::uint64_t breakdown =
        reader.parse_u64(reader.read_field("breakdown"), "breakdown count");
    for (std::uint64_t i = 0; i < breakdown; ++i) {
        std::istringstream line(reader.read_field("charge"));
        std::string value_text;
        std::uint64_t bytes = 0;
        if (!(line >> value_text >> bytes)) {
            reader.fail("malformed charge line");
        }
        const double charge = reader.parse_double(value_text, "charge");
        const std::string category = reader.read_block_body(bytes);
        result.time_breakdown[category] = charge;
    }
    result.solutions_generated = static_cast<int>(
        reader.parse_u64(reader.read_field("solutions"), "solutions"));
    result.steps_executed = static_cast<int>(
        reader.parse_u64(reader.read_field("steps"), "steps"));
    result.rollbacks = static_cast<int>(
        reader.parse_u64(reader.read_field("rollbacks"), "rollbacks"));
    result.llm_calls =
        reader.parse_u64(reader.read_field("llm_calls"), "llm_calls");
    result.kb_consulted =
        reader.parse_bool(reader.read_field("kb_consulted"), "kb_consulted");
    result.kb_skipped_by_feedback =
        reader.parse_bool(reader.read_field("kb_skipped"), "kb_skipped");
    {
        std::istringstream line(reader.read_field("thinking"));
        if (!(line >> result.thinking_switches >> result.escalations >>
              result.early_stops >> result.attempts_skipped)) {
            reader.fail("malformed thinking line");
        }
    }
    {
        std::istringstream line(reader.read_field("screens"));
        if (!(line >> result.screens >> result.screen_proven_safe >>
              result.screen_likely_ub >> result.screen_unknown)) {
            reader.fail("malformed screens line");
        }
    }
    {
        std::istringstream line(reader.read_field("trajectory"));
        std::uint64_t length = 0;
        if (!(line >> length)) reader.fail("malformed trajectory line");
        for (std::uint64_t i = 0; i < length; ++i) {
            std::size_t errors = 0;
            if (!(line >> errors)) {
                reader.fail("trajectory shorter than declared");
            }
            result.error_trajectory.push_back(errors);
        }
    }
    result.winning_rule = reader.read_block("winning_rule");
    result.final_source = reader.read_block("final_source");
    reader.expect_end();
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
    Reader reader(text);
    reader.check_header(kRequestMagic);
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
    reader.expect_end();
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
    Reader reader(text);
    reader.check_header(kResponseMagic);
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
    reader.expect_end();
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
