// Small string utilities. GCC 12 ships no std::format, so we provide the
// handful of formatting helpers the project needs.
#pragma once

#include <sstream>
#include <string>
#include <vector>

namespace spdistal {

// Joins elements of `items` (streamed via operator<<) with `sep`.
template <typename Container>
std::string join(const Container& items, const std::string& sep) {
  std::ostringstream os;
  bool first = true;
  for (const auto& it : items) {
    if (!first) os << sep;
    os << it;
    first = false;
  }
  return os.str();
}

// printf-style formatting into std::string.
std::string strprintf(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

// Splits `s` on `delim`, trimming ASCII whitespace from each piece; empty
// pieces are kept (so "a,,b" -> {"a","","b"}).
std::vector<std::string> split(const std::string& s, char delim);

// Trims leading/trailing ASCII whitespace.
std::string trim(const std::string& s);

// True if `s` starts with `prefix`.
bool starts_with(const std::string& s, const std::string& prefix);

// Escapes `s` for use inside a JSON string literal (quotes not included):
// `"` and `\` are backslash-escaped, `\n` and `\t` use their short forms,
// and every other control character becomes `\u00XX`.
std::string json_escape(const std::string& s);

// Renders a byte count as a human-readable string ("1.5 GB").
std::string human_bytes(double bytes);

// Renders seconds as a human-readable duration ("12.3 ms").
std::string human_seconds(double seconds);

}  // namespace spdistal
