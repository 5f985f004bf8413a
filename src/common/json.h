// The one JSON reader, and the string codec every JSON writer shares.
//
// json::parse is a strict RFC 8259 reader: it turns a whole document into a
// small value tree or rejects it. It rejects tokens JSON does not have
// (`nan`, `inf`, `+1`, `01`, `0x10`, trailing commas), a number outside the
// range of double (`1e999`), text after the document, and arrays and
// objects nested deeper than kMaxDepth, so a hostile document can neither
// smuggle a non-finite number in nor exhaust the stack. The library reads
// no JSON itself: the tests parse every trace and metrics document it
// writes with json::parse, so each is checked to be strict JSON.
//
// Writers are hand-formatted on purpose: each is a few strprintf lines over
// json_escape, which a writer layer would only lengthen.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace spdistal {

// Escapes `s` for use inside a JSON string literal (quotes not included):
// `"` and `\` are backslash-escaped, `\n` and `\t` use their short forms,
// and every other control character becomes `\u00XX`.
std::string json_escape(const std::string& s);

// Decodes the JSON string literal that starts at s[*pos] (the opening `"`),
// the inverse of json_escape. On success stores the text in *out (when
// non-null), moves *pos past the closing quote and returns true. Strict: a
// raw control character, an unknown escape, a malformed `\u` escape or
// unpaired surrogate, or a missing closing quote returns false and leaves
// *pos and *out untouched. `\u` escapes decode to UTF-8.
bool json_read_string(const std::string& s, size_t* pos, std::string* out);

namespace json {

// Deepest array/object nesting parse() accepts. The deepest document this
// library writes (the metrics snapshot) nests 5 levels.
constexpr int kMaxDepth = 64;

class Value {
 public:
  enum class Type { Null, Bool, Number, String, Array, Object };
  using Members = std::vector<std::pair<std::string, Value>>;

  Type type() const { return type_; }

  // Typed views: empty (or nullptr) when the value has another type.
  std::optional<bool> boolean() const;
  std::optional<double> number() const;
  // The number as an integer, if it is integral and lies in [lo, hi]:
  // 3.7, 1e300 and out-of-range counts are rejected here, never cast.
  std::optional<int64_t> integer(int64_t lo, int64_t hi) const;
  const std::string* string() const;
  const std::vector<Value>* array() const;
  const Members* members() const;  // an object's members, in document order

  // The object member named `key` (the last one if the name repeats);
  // nullptr if this is not an object or has no such member.
  const Value* find(const std::string& key) const;

 private:
  friend class Parser;

  Type type_ = Type::Null;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  std::vector<Value> array_;
  Members members_;
};

// Parses a whole document; empty if `doc` is not exactly one JSON value
// (surrounding whitespace allowed) within the limits above.
std::optional<Value> parse(const std::string& doc);

}  // namespace json
}  // namespace spdistal
