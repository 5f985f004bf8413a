#include "common/str_util.h"

#include <cstdarg>
#include <cstdio>

namespace spdistal {

std::string strprintf(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args2;
  va_copy(args2, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out(static_cast<size_t>(n), '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, args2);
  va_end(args2);
  return out;
}

std::string trim(const std::string& s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::vector<std::string> split(const std::string& s, char delim) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == delim) {
      out.push_back(trim(cur));
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  out.push_back(trim(cur));
  return out;
}

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() &&
         s.compare(0, prefix.size(), prefix) == 0;
}

std::string human_bytes(double bytes) {
  const char* units[] = {"B", "KB", "MB", "GB", "TB"};
  int u = 0;
  while (bytes >= 1024.0 && u < 4) {
    bytes /= 1024.0;
    ++u;
  }
  return strprintf("%.2f %s", bytes, units[u]);
}

std::string human_seconds(double seconds) {
  if (seconds < 1e-6) return strprintf("%.1f ns", seconds * 1e9);
  if (seconds < 1e-3) return strprintf("%.2f us", seconds * 1e6);
  if (seconds < 1.0) return strprintf("%.2f ms", seconds * 1e3);
  return strprintf("%.3f s", seconds);
}

}  // namespace spdistal
