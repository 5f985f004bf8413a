#include "common/json.h"

#include <charconv>
#include <cmath>
#include <cstring>
#include <system_error>

#include "common/str_util.h"

namespace spdistal {

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

namespace json {

std::optional<bool> Value::boolean() const {
  if (type_ != Type::Bool) return std::nullopt;
  return bool_;
}

std::optional<double> Value::number() const {
  if (type_ != Type::Number) return std::nullopt;
  return number_;
}

std::optional<int64_t> Value::integer(int64_t lo, int64_t hi) const {
  if (type_ != Type::Number || std::trunc(number_) != number_) {
    return std::nullopt;
  }
  // Range-check in double first: casting a double outside [-2^63, 2^63)
  // to int64_t is undefined behaviour.
  if (number_ < -0x1p63 || number_ >= 0x1p63) return std::nullopt;
  const auto n = static_cast<int64_t>(number_);
  if (n < lo || n > hi) return std::nullopt;
  return n;
}

const std::string* Value::string() const {
  return type_ == Type::String ? &string_ : nullptr;
}

const std::vector<Value>* Value::array() const {
  return type_ == Type::Array ? &array_ : nullptr;
}

const Value::Members* Value::members() const {
  return type_ == Type::Object ? &members_ : nullptr;
}

const Value* Value::find(const std::string& key) const {
  if (type_ != Type::Object) return nullptr;
  for (auto it = members_.rbegin(); it != members_.rend(); ++it) {
    if (it->first == key) return &it->second;
  }
  return nullptr;
}

// Recursive descent over one document. `depth` counts the arrays and
// objects open around the value being read; recursion stops at kMaxDepth.
class Parser {
 public:
  explicit Parser(const std::string& s) : s_(s) {}

  bool document(Value* v) {
    if (!value(v, 0)) return false;
    ws();
    return p_ == s_.size();
  }

 private:
  bool at(char c) const { return p_ < s_.size() && s_[p_] == c; }

  void ws() {
    while (at(' ') || at('\n') || at('\t') || at('\r')) ++p_;
  }

  // Consumes `c` after optional whitespace.
  bool eat(char c) {
    ws();
    if (!at(c)) return false;
    ++p_;
    return true;
  }

  bool literal(const char* word) {
    const size_t n = std::strlen(word);
    if (s_.compare(p_, n, word) != 0) return false;
    p_ += n;
    return true;
  }

  bool value(Value* v, int depth) {
    ws();
    if (p_ >= s_.size()) return false;
    switch (s_[p_]) {
      case '{':
        return object(v, depth + 1);
      case '[':
        return array(v, depth + 1);
      case '"':
        v->type_ = Value::Type::String;
        return json_read_string(s_, &p_, &v->string_);
      case 't':
        v->type_ = Value::Type::Bool;
        v->bool_ = true;
        return literal("true");
      case 'f':
        v->type_ = Value::Type::Bool;
        return literal("false");
      case 'n':
        return literal("null");
      default:
        v->type_ = Value::Type::Number;
        return number(&v->number_);
    }
  }

  bool array(Value* v, int depth) {
    if (depth > kMaxDepth) return false;
    ++p_;  // '['
    v->type_ = Value::Type::Array;
    if (eat(']')) return true;
    do {
      v->array_.emplace_back();
      if (!value(&v->array_.back(), depth)) return false;
    } while (eat(','));
    return eat(']');
  }

  bool object(Value* v, int depth) {
    if (depth > kMaxDepth) return false;
    ++p_;  // '{'
    v->type_ = Value::Type::Object;
    if (eat('}')) return true;
    do {
      ws();
      std::string key;
      if (!json_read_string(s_, &p_, &key) || !eat(':')) return false;
      v->members_.emplace_back(std::move(key), Value());
      if (!value(&v->members_.back().second, depth)) return false;
    } while (eat(','));
    return eat('}');
  }

  // -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, converted by
  // from_chars, which ignores the locale and reports a value outside
  // double's range (1e999, or 1e-400, which would round to 0) as an error.
  bool number(double* out) {
    const size_t start = p_;
    auto digits = [&] {
      const size_t from = p_;
      while (p_ < s_.size() && s_[p_] >= '0' && s_[p_] <= '9') ++p_;
      return p_ > from;
    };
    if (at('-')) ++p_;
    if (at('0')) {
      ++p_;
    } else if (!digits()) {
      return false;
    }
    if (at('.')) {
      ++p_;
      if (!digits()) return false;
    }
    if (at('e') || at('E')) {
      ++p_;
      if (at('+') || at('-')) ++p_;
      if (!digits()) return false;
    }
    const char* last = s_.data() + p_;
    const auto [end, ec] = std::from_chars(s_.data() + start, last, *out);
    return ec == std::errc() && end == last;
  }

  const std::string& s_;
  size_t p_ = 0;
};

std::optional<Value> parse(const std::string& doc) {
  Value v;
  if (!Parser(doc).document(&v)) return std::nullopt;
  return v;
}

}  // namespace json
}  // namespace spdistal
