// Tests for the one JSON reader (src/common/json.*): it builds the value
// tree of a well-formed document, rejects every token JSON does not have,
// numbers outside double's range, trailing text and unterminated input,
// stops at its nesting limit without recursing into a hostile document, and
// its integer access never casts a fraction or an out-of-range number.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "common/json.h"

namespace spdistal {
namespace {

using json::Value;

TEST(Json, ParsesEveryValueType) {
  const auto doc = json::parse(
      " {\"n\": null, \"t\": true, \"f\": false, \"x\": -12.5e-1,\n"
      "  \"s\": \"a\\\"b\\u00e9\", \"a\": [1, [], {}], \"o\": {\"k\": 0},\n"
      "  \"dup\": 1, \"dup\": 2}\r\n");
  ASSERT_TRUE(doc.has_value());
  ASSERT_NE(doc->members(), nullptr);
  EXPECT_EQ(doc->members()->size(), 9u);
  EXPECT_EQ(doc->members()->front().first, "n");  // document order

  EXPECT_EQ(doc->find("n")->type(), Value::Type::Null);
  EXPECT_EQ(doc->find("t")->boolean(), true);
  EXPECT_EQ(doc->find("f")->boolean(), false);
  EXPECT_EQ(doc->find("x")->number(), -1.25);
  EXPECT_EQ(*doc->find("s")->string(), "a\"b\xc3\xa9");
  const auto* arr = doc->find("a")->array();
  ASSERT_NE(arr, nullptr);
  ASSERT_EQ(arr->size(), 3u);
  EXPECT_EQ((*arr)[0].number(), 1.0);
  EXPECT_TRUE((*arr)[1].array()->empty());
  EXPECT_TRUE((*arr)[2].members()->empty());
  EXPECT_EQ(doc->find("o")->find("k")->integer(0, 0), 0);
  // A repeated name reads as its last value; a missing one as nullptr.
  EXPECT_EQ(doc->find("dup")->number(), 2.0);
  EXPECT_EQ(doc->find("missing"), nullptr);

  // Typed views of another type are empty, never a conversion.
  const Value& t = *doc->find("t");
  EXPECT_FALSE(t.number().has_value());
  EXPECT_FALSE(t.integer(0, 1).has_value());
  EXPECT_EQ(t.string(), nullptr);
  EXPECT_EQ(t.array(), nullptr);
  EXPECT_EQ(t.members(), nullptr);
  EXPECT_EQ(t.find("k"), nullptr);
  EXPECT_FALSE(doc->find("s")->number().has_value());
  EXPECT_FALSE(doc->find("x")->boolean().has_value());

  // Any value may be the whole document.
  EXPECT_EQ(json::parse("7")->number(), 7.0);
  EXPECT_EQ(*json::parse("\"\"")->string(), "");
  EXPECT_EQ(json::parse(" null ")->type(), Value::Type::Null);
}

TEST(Json, RejectsTokensJsonDoesNotHave) {
  for (const std::string bad :
       {"nan", "NaN", "-nan", "inf", "-inf", "Infinity", "+1", "01", "-01",
        "0x10", "1.", ".5", "1e", "1e+", "-", "1.e3", "tru", "nul", "falsey",
        "'a'", "[1,]", "{\"a\": 1,}", "[,1]", "{\"a\" 1}", "{a: 1}",
        "{\"a\": 1 \"b\": 2}", "[1 2]", "// c\n1", "\"a\\qb\"", "\"a\tb\""}) {
    EXPECT_FALSE(json::parse(bad).has_value()) << bad;
    // Nor inside a container.
    EXPECT_FALSE(json::parse("{\"k\": [" + bad + "]}").has_value()) << bad;
  }
}

TEST(Json, RejectsNumbersOutsideDoubleRange) {
  for (const std::string bad : {"1e999", "-1e999", "1e-400", "[2e308]"}) {
    EXPECT_FALSE(json::parse(bad).has_value()) << bad;
  }
  EXPECT_EQ(json::parse("1.7976931348623157e308")->number(),
            std::numeric_limits<double>::max());
  EXPECT_EQ(json::parse("4.9406564584124654e-324")->number(),
            std::numeric_limits<double>::denorm_min());
  EXPECT_EQ(json::parse("-0")->number(), 0.0);
}

TEST(Json, RejectsTrailingTextAndUnterminatedInput) {
  for (const std::string bad :
       {"", " ", "{}x", "{} {}", "1 2", "[1] ]", "nullx", "{\"a\": 1",
        "[1, 2", "\"abc", "{\"a\"", "{\"a\":", "[", "{", "{\"a\": [1, {"}) {
    EXPECT_FALSE(json::parse(bad).has_value()) << bad;
  }
  EXPECT_FALSE(json::parse(std::string("1\0", 2)).has_value());
}

TEST(Json, NestingLimitRejectsDeepDocumentsWithoutCrashing) {
  auto nested = [](size_t depth, char open, char close) {
    return std::string(depth, open) + std::string(depth, close);
  };
  const auto limit = static_cast<size_t>(json::kMaxDepth);
  EXPECT_TRUE(json::parse(nested(limit, '[', ']')).has_value());
  EXPECT_FALSE(json::parse(nested(limit + 1, '[', ']')).has_value());
  // 100,000 levels would overflow the stack of a reader that recursed.
  EXPECT_FALSE(json::parse(nested(100000, '[', ']')).has_value());
  EXPECT_FALSE(json::parse(std::string(100000, '[')).has_value());

  std::string objects;
  for (size_t d = 0; d < 100000; ++d) objects += "{\"k\": ";
  objects += "1" + std::string(100000, '}');
  EXPECT_FALSE(json::parse(objects).has_value());
}

TEST(Json, IntegerAccessIsRangeChecked) {
  auto integer = [](const std::string& text, int64_t lo, int64_t hi) {
    return json::parse(text)->integer(lo, hi);
  };
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  EXPECT_EQ(integer("3", 0, 10), 3);
  EXPECT_EQ(integer("-3", -5, 0), -3);
  // Integral spellings are integers.
  EXPECT_EQ(integer("3.0", 0, 10), 3);
  EXPECT_EQ(integer("1e2", 0, 1000), 100);
  // Fractions, and values outside the requested range or outside int64,
  // are rejected rather than cast.
  EXPECT_FALSE(integer("3.7", 0, 10).has_value());
  EXPECT_FALSE(integer("-0.5", -1, 1).has_value());
  EXPECT_FALSE(integer("1e300", kMin, kMax).has_value());
  EXPECT_FALSE(integer("-1e300", kMin, kMax).has_value());
  EXPECT_FALSE(integer("9223372036854775808", kMin, kMax).has_value());
  EXPECT_EQ(integer("-9223372036854775808", kMin, kMax), kMin);
  EXPECT_FALSE(integer("2147483648", INT32_MIN, INT32_MAX).has_value());
  EXPECT_FALSE(integer("-2147483649", INT32_MIN, INT32_MAX).has_value());
  EXPECT_EQ(integer("2147483647", INT32_MIN, INT32_MAX), INT32_MAX);
  EXPECT_FALSE(integer("0", 1, 10).has_value());
  EXPECT_FALSE(integer("11", 1, 10).has_value());
}

}  // namespace
}  // namespace spdistal
