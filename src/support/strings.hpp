// Small string helpers used across the toolchain.
#pragma once

#include <cerrno>
#include <cstdlib>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace rustbrain::support {

std::vector<std::string> split(std::string_view text, char delimiter);
std::string_view trim(std::string_view text);
std::string join(const std::vector<std::string>& parts, std::string_view separator);
bool starts_with(std::string_view text, std::string_view prefix);
bool ends_with(std::string_view text, std::string_view suffix);
bool contains(std::string_view text, std::string_view needle);
std::string to_lower(std::string_view text);
std::string replace_all(std::string_view text, std::string_view from, std::string_view to);
/// Indent every line of `text` by `spaces` spaces.
std::string indent(std::string_view text, int spaces);
/// Format a double with fixed precision (locale-independent).
std::string format_double(double value, int precision);

/// Parses all of `text` as a decimal in [0, max of T]. Rejects signs,
/// whitespace, trailing junk and out-of-range values, which strtoul alone
/// would wrap or truncate. `out` is left untouched on failure.
template <typename T>
bool parse_unsigned(const char* text, T& out) {
    if (*text < '0' || *text > '9') return false;
    errno = 0;
    char* end = nullptr;
    const unsigned long long value = std::strtoull(text, &end, 10);
    if (errno != 0 || *end != '\0' || value > std::numeric_limits<T>::max()) {
        return false;
    }
    out = static_cast<T>(value);
    return true;
}

/// Parses all of `text` as a finite, non-negative decimal. `out` is left
/// untouched on failure.
bool parse_millis(const char* text, double& out);

}  // namespace rustbrain::support
