#include "common/str_util.h"

#include <cstdarg>
#include <cstdint>
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

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += strprintf("\\u%04x", static_cast<unsigned>(c));
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

// Reads four hex digits at s[*p] into *v.
bool read_hex4(const std::string& s, size_t* p, uint32_t* v) {
  if (s.size() - *p < 4) return false;
  *v = 0;
  for (int k = 0; k < 4; ++k) {
    const char h = s[(*p)++];
    *v <<= 4;
    if (h >= '0' && h <= '9') {
      *v |= static_cast<uint32_t>(h - '0');
    } else if (h >= 'a' && h <= 'f') {
      *v |= static_cast<uint32_t>(h - 'a' + 10);
    } else if (h >= 'A' && h <= 'F') {
      *v |= static_cast<uint32_t>(h - 'A' + 10);
    } else {
      return false;
    }
  }
  return true;
}

void append_utf8(std::string& out, uint32_t cp) {
  if (cp < 0x80) {
    out += static_cast<char>(cp);
  } else if (cp < 0x800) {
    out += static_cast<char>(0xC0 | (cp >> 6));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else if (cp < 0x10000) {
    out += static_cast<char>(0xE0 | (cp >> 12));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else {
    out += static_cast<char>(0xF0 | (cp >> 18));
    out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  }
}

}  // namespace

bool json_read_string(const std::string& s, size_t* pos, std::string* out) {
  size_t p = *pos;
  if (p >= s.size() || s[p] != '"') return false;
  ++p;
  std::string text;
  while (p < s.size()) {
    const char c = s[p++];
    if (c == '"') {
      *pos = p;
      if (out != nullptr) *out = std::move(text);
      return true;
    }
    if (static_cast<unsigned char>(c) < 0x20) return false;
    if (c != '\\') {
      text += c;
      continue;
    }
    if (p >= s.size()) return false;
    switch (s[p++]) {
      case '"': text += '"'; break;
      case '\\': text += '\\'; break;
      case '/': text += '/'; break;
      case 'b': text += '\b'; break;
      case 'f': text += '\f'; break;
      case 'n': text += '\n'; break;
      case 'r': text += '\r'; break;
      case 't': text += '\t'; break;
      case 'u': {
        uint32_t cp = 0;
        if (!read_hex4(s, &p, &cp)) return false;
        if (cp >= 0xDC00 && cp <= 0xDFFF) return false;
        if (cp >= 0xD800 && cp <= 0xDBFF) {
          // A high surrogate must pair with an escaped low surrogate.
          uint32_t lo = 0;
          if (s.compare(p, 2, "\\u") != 0) return false;
          p += 2;
          if (!read_hex4(s, &p, &lo) || lo < 0xDC00 || lo > 0xDFFF) {
            return false;
          }
          cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
        }
        append_utf8(text, cp);
        break;
      }
      default:
        return false;
    }
  }
  return false;  // unterminated
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
