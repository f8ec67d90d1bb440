// LineReader — the cursor both text codecs parse with: the corpus format
// (gen/corpus_io) and the service wire format (serve/wire).
//
// Both formats are line-oriented: "<key> <payload>" fields, byte-counted
// raw blocks ("<key> <bytes>\n<raw bytes>\n"), and numbers in canonical
// form only — integers as all digits, no leading zero, and a leading '-'
// only on a negative signed value; doubles as their %a hexfloat — so that
// render(parse(x)) == x for every accepted input. Every error throws
// std::runtime_error as "<prefix> (line N): <message>", naming the line
// being read.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace rustbrain::support {

class LineReader {
  public:
    /// `text` must outlive the reader; `prefix` names the format in errors
    /// (e.g. "corpus format error").
    LineReader(const std::string& text, std::string prefix);

    [[noreturn]] void fail(const std::string& message) const;

    [[nodiscard]] bool at_end() const { return pos_ >= text_.size(); }

    /// Next line without its trailing '\n'.
    std::string read_line();
    /// A line of the exact form "<key> <payload>" (or just "<key>");
    /// returns the payload.
    std::string read_field(const std::string& key);
    /// read_field split on single spaces (an empty word is kept, so a
    /// doubled space fails the number parse that follows).
    std::vector<std::string> read_words(const std::string& key);
    /// A "<key> <n> <w1> ... <wn>" line: the n words after the count. The
    /// count must be canonical and match the words the line holds, so a
    /// corrupt count can never size anything.
    std::vector<std::string> read_list(const std::string& key);

    /// All digits, no leading zero (but "0"), in range.
    std::uint64_t parse_u64(const std::string& text, const char* what) const;
    /// parse_u64, at most INT_MAX (for the formats' int counters).
    int parse_int(const std::string& text, const char* what) const;
    /// parse_u64's digits with an optional leading '-' (not "-0"), in
    /// range.
    std::int64_t parse_i64(const std::string& text, const char* what) const;
    /// A double exactly as printf's %a renders it.
    double parse_double(const std::string& text, const char* what) const;
    /// "1" or "0".
    bool parse_bool(const std::string& text, const char* what) const;

    /// A "<key> <bytes>" line followed by the block body.
    std::string read_block(const std::string& key);
    /// Exactly `bytes` raw bytes followed by one '\n'.
    std::string read_block_body(std::uint64_t bytes);

  private:
    const std::string& text_;
    std::string prefix_;
    std::size_t pos_ = 0;
    std::size_t line_ = 0;  // the line currently being processed (1-based)
};

}  // namespace rustbrain::support
