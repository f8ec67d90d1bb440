#include "support/line_reader.hpp"

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <utility>

#include "support/strings.hpp"

namespace rustbrain::support {

namespace {

/// Canonical decimal digits only: no sign, no leading zero but "0" itself,
/// no embedded NUL (parse_unsigned stops at one), in range.
bool parse_canonical(const std::string& text, std::uint64_t& value) {
    return text.find('\0') == std::string::npos &&
           (text.size() == 1 || text[0] != '0') &&
           parse_unsigned(text.c_str(), value);
}

}  // namespace

LineReader::LineReader(const std::string& text, std::string prefix)
    : text_(text), prefix_(std::move(prefix)) {}

void LineReader::fail(const std::string& message) const {
    throw std::runtime_error(prefix_ + " (line " + std::to_string(line_) +
                             "): " + message);
}

std::string LineReader::read_line() {
    ++line_;
    if (at_end()) fail("unexpected end of input");
    const std::size_t newline = text_.find('\n', pos_);
    if (newline == std::string::npos) fail("missing final newline");
    std::string line = text_.substr(pos_, newline - pos_);
    pos_ = newline + 1;
    return line;
}

std::string LineReader::read_field(const std::string& key) {
    const std::string line = read_line();
    if (line == key) return "";
    if (line.rfind(key + " ", 0) != 0) {
        fail("expected '" + key + " ...' but found '" + line + "'");
    }
    return line.substr(key.size() + 1);
}

std::vector<std::string> LineReader::read_words(const std::string& key) {
    return split(read_field(key), ' ');
}

std::vector<std::string> LineReader::read_list(const std::string& key) {
    std::vector<std::string> words = read_words(key);
    const std::uint64_t count = parse_u64(words.front(), "list length");
    if (count != words.size() - 1) {
        fail("'" + key + "' declares " + std::to_string(count) +
             " values but holds " + std::to_string(words.size() - 1));
    }
    words.erase(words.begin());
    return words;
}

std::uint64_t LineReader::parse_u64(const std::string& text,
                                    const char* what) const {
    std::uint64_t value = 0;
    if (!parse_canonical(text, value)) {
        fail(std::string(what) + " is not an unsigned integer: '" + text +
             "'");
    }
    return value;
}

int LineReader::parse_int(const std::string& text, const char* what) const {
    const std::uint64_t value = parse_u64(text, what);
    if (value > static_cast<std::uint64_t>(std::numeric_limits<int>::max())) {
        fail(std::string(what) + " is out of range: '" + text + "'");
    }
    return static_cast<int>(value);
}

std::int64_t LineReader::parse_i64(const std::string& text,
                                   const char* what) const {
    const bool negative = !text.empty() && text[0] == '-';
    std::uint64_t magnitude = 0;
    const std::uint64_t limit =
        static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max()) +
        (negative ? 1 : 0);
    const std::string digits = negative ? text.substr(1) : text;
    if (!parse_canonical(digits, magnitude) || magnitude > limit ||
        (negative && magnitude == 0)) {
        fail(std::string(what) + " is not an integer: '" + text + "'");
    }
    // Two's complement negation of the magnitude, defined for INT64_MIN.
    return static_cast<std::int64_t>(negative ? ~magnitude + 1 : magnitude);
}

double LineReader::parse_double(const std::string& text,
                                const char* what) const {
    // Only the value's own %a rendering: strtod alone would also take
    // decimal forms and leading whitespace.
    const double value = std::strtod(text.c_str(), nullptr);
    char canonical[64];
    std::snprintf(canonical, sizeof canonical, "%a", value);
    if (text != canonical) {
        fail(std::string(what) + " is not a %a hexfloat: '" + text + "'");
    }
    return value;
}

bool LineReader::parse_bool(const std::string& text, const char* what) const {
    if (text == "1") return true;
    if (text == "0") return false;
    fail(std::string(what) + " must be 0 or 1, got '" + text + "'");
}

std::string LineReader::read_block(const std::string& key) {
    return read_block_body(parse_u64(read_field(key), key.c_str()));
}

std::string LineReader::read_block_body(std::uint64_t bytes) {
    // Overflow-safe form of pos_ + bytes + 1 > size(): a corrupt byte count
    // near UINT64_MAX must fail here, not wrap and "fit".
    const std::uint64_t remaining = text_.size() - pos_;
    if (remaining == 0 || bytes >= remaining) {
        fail("block runs past end of input");
    }
    std::string block = text_.substr(pos_, bytes);
    pos_ += bytes;
    if (text_[pos_] != '\n') {
        fail("block is not terminated by a newline (byte count is wrong)");
    }
    ++pos_;
    for (char c : block) {
        if (c == '\n') ++line_;
    }
    ++line_;
    return block;
}

}  // namespace rustbrain::support
