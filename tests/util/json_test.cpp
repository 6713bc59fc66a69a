#include "util/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>

namespace vanet::json {
namespace {

double reparse(double x) { return parse(num(x)).asDouble(); }

TEST(JsonNumTest, ShortestRoundTripIsExact) {
  for (const double x : {0.0, 1.0, -1.5, 0.1, 1.0 / 3.0, 6.02214076e23,
                         5e-324, std::numeric_limits<double>::max()}) {
    const double back = reparse(x);
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    std::memcpy(&a, &x, sizeof a);
    std::memcpy(&b, &back, sizeof b);
    EXPECT_EQ(a, b) << "value " << x << " rendered as " << num(x);
  }
}

TEST(JsonNumTest, NonFiniteTokensParse) {
  EXPECT_TRUE(std::isinf(reparse(std::numeric_limits<double>::infinity())));
  EXPECT_TRUE(std::isinf(reparse(-std::numeric_limits<double>::infinity())));
  EXPECT_TRUE(std::isnan(reparse(std::numeric_limits<double>::quiet_NaN())));
}

TEST(JsonParseTest, ScalarsAndContainers) {
  const Value v = parse(
      R"({"name":"urban","count":3,"on":true,"off":false,"none":null,)"
      R"("list":[1,2.5,-3],"nested":{"k":"v"}})");
  EXPECT_EQ(v.at("name").asString(), "urban");
  EXPECT_EQ(v.at("count").asInt64(), 3);
  EXPECT_TRUE(v.at("on").asBool());
  EXPECT_FALSE(v.at("off").asBool());
  EXPECT_TRUE(v.at("none").isNull());
  ASSERT_EQ(v.at("list").asArray().size(), 3u);
  EXPECT_DOUBLE_EQ(v.at("list").asArray()[1].asDouble(), 2.5);
  EXPECT_EQ(v.at("list").asArray()[2].asInt64(), -3);
  EXPECT_EQ(v.at("nested").at("k").asString(), "v");
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_THROW(v.at("missing"), std::runtime_error);
}

TEST(JsonParseTest, UInt64KeepsFullPrecision) {
  // 2^64 - 1 is not representable as a double; the raw token must be
  // used for exact integer recovery (master seeds, sample counts).
  const Value v = parse("{\"seed\":18446744073709551615}");
  EXPECT_EQ(v.at("seed").asUInt64(), 18446744073709551615ull);
  EXPECT_THROW(parse("-4").asUInt64(), std::runtime_error);
  EXPECT_EQ(parse("-4").asInt64(), -4);
}

TEST(JsonParseTest, StringEscapesRoundTrip) {
  const std::string original = "a\"b\\c\nd\te\rf\x01g";
  const Value v = parse(quote(original));
  EXPECT_EQ(v.asString(), original);
}

TEST(JsonParseTest, WhitespaceTolerated) {
  const Value v = parse(" {\n \"a\" : [ 1 , 2 ] \t}\n");
  EXPECT_EQ(v.at("a").asArray().size(), 2u);
}

TEST(JsonParseTest, MalformedInputThrows) {
  EXPECT_THROW(parse(""), std::runtime_error);
  EXPECT_THROW(parse("{"), std::runtime_error);
  EXPECT_THROW(parse("{\"a\":}"), std::runtime_error);
  EXPECT_THROW(parse("[1,]"), std::runtime_error);
  EXPECT_THROW(parse("\"unterminated"), std::runtime_error);
  EXPECT_THROW(parse("12 34"), std::runtime_error);  // trailing garbage
  EXPECT_THROW(parse("tru"), std::runtime_error);
}

TEST(JsonParseTest, HostileNestingThrowsInsteadOfOverflowingTheStack) {
  const std::string deep(200000, '[');
  try {
    parse(deep);
    FAIL() << "200k nested arrays parsed";
  } catch (const std::runtime_error& error) {
    const std::string expected =
        "json: nesting deeper than " + std::to_string(kMaxNestingDepth) +
        " at offset " + std::to_string(kMaxNestingDepth);
    EXPECT_EQ(error.what(), expected);
  }
  std::string objects;
  for (int i = 0; i <= kMaxNestingDepth; ++i) objects += "{\"a\":";
  EXPECT_THROW(parse(objects), std::runtime_error);
}

TEST(JsonParseTest, NestingExactlyAtTheLimitParses) {
  const std::size_t depth = static_cast<std::size_t>(kMaxNestingDepth);
  const Value v = parse(std::string(depth, '[') + std::string(depth, ']'));
  const Value* level = &v;
  for (std::size_t i = 1; i < depth; ++i) {
    ASSERT_EQ(level->asArray().size(), 1u);
    level = &level->asArray()[0];
  }
  EXPECT_TRUE(level->asArray().empty());
  EXPECT_THROW(
      parse(std::string(depth + 1, '[') + std::string(depth + 1, ']')),
      std::runtime_error);
}

TEST(JsonParseTest, TypeMismatchThrows) {
  const Value v = parse("{\"a\":1}");
  EXPECT_THROW(v.at("a").asString(), std::runtime_error);
  EXPECT_THROW(v.at("a").asArray(), std::runtime_error);
  EXPECT_THROW(v.asDouble(), std::runtime_error);
}

}  // namespace
}  // namespace vanet::json
