#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <limits>
#include <sstream>
#include <string>

#include "common/json.hpp"

namespace am {
namespace {

TEST(JsonEscape, EscapesControlAndStructuralCharacters) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST(JsonWriter, WritesNestedDocument) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.kv("name", "bench");
  w.kv("count", std::uint64_t{42});
  w.kv("ratio", 0.5);
  w.kv("ok", true);
  w.kv_null("missing");
  w.key("list").begin_array();
  w.value(std::uint64_t{1});
  w.value(std::uint64_t{2});
  w.end_array();
  w.end_object();
  EXPECT_EQ(w.depth(), 0);
  EXPECT_EQ(os.str(),
            "{\"name\":\"bench\",\"count\":42,\"ratio\":0.5,\"ok\":true,"
            "\"missing\":null,\"list\":[1,2]}");
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_array();
  w.value(std::numeric_limits<double>::quiet_NaN());
  w.value(std::numeric_limits<double>::infinity());
  w.value(1.0);
  w.end_array();
  EXPECT_EQ(os.str(), "[null,null,1]");
}

TEST(JsonWriter, PrettyOutputStaysParseable) {
  std::ostringstream os;
  JsonWriter w(os, /*pretty=*/true);
  w.begin_object();
  w.key("rows").begin_array();
  w.begin_object();
  w.kv("x", std::uint64_t{1});
  w.end_object();
  w.end_array();
  w.end_object();
  const auto doc = JsonValue::parse(os.str());
  ASSERT_TRUE(doc.has_value());
  const JsonValue* rows = doc->find("rows");
  ASSERT_NE(rows, nullptr);
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ(rows->at(0)->find("x")->as_number(), 1.0);
}

TEST(JsonValue, ParsesScalarsAndStructure) {
  const auto doc = JsonValue::parse(
      R"({"s":"aA\n","n":-2.5e2,"b":false,"z":null,"a":[1,{"k":2}]})");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("s")->as_string(), "aA\n");
  EXPECT_DOUBLE_EQ(doc->find("n")->as_number(), -250.0);
  EXPECT_FALSE(doc->find("b")->as_bool());
  EXPECT_TRUE(doc->find("z")->is_null());
  const JsonValue* a = doc->find("a");
  ASSERT_EQ(a->size(), 2u);
  EXPECT_EQ(a->at(0)->as_number(), 1.0);
  EXPECT_EQ(a->at(1)->find("k")->as_number(), 2.0);
  EXPECT_EQ(doc->find("nope"), nullptr);
  EXPECT_EQ(a->at(7), nullptr);
}

TEST(JsonValue, RejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(JsonValue::parse("{", &error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(JsonValue::parse("[1,]").has_value());
  EXPECT_FALSE(JsonValue::parse("{\"a\":1} trailing").has_value());
  EXPECT_FALSE(JsonValue::parse("\"unterminated").has_value());
  EXPECT_FALSE(JsonValue::parse("").has_value());
}

TEST(JsonValue, RejectsDuplicateMemberNames) {
  std::string error;
  EXPECT_FALSE(JsonValue::parse(R"({"a":1,"b":2,"a":3})", &error).has_value());
  EXPECT_NE(error.find("duplicate object key \"a\""), std::string::npos)
      << error;
  // Nested objects are checked too; equal names in sibling objects are fine.
  EXPECT_FALSE(JsonValue::parse(R"({"o":{"x":1,"x":1}})").has_value());
  EXPECT_TRUE(JsonValue::parse(R"([{"x":1},{"x":2}])").has_value());
  EXPECT_TRUE(JsonValue::parse(R"({"x":{"x":1}})").has_value());
}

TEST(JsonValue, ManyDistinctMemberNamesParseQuickly) {
  // A request line of up to 1 MiB can carry ~100k short names; the
  // duplicate check must not scan them pairwise.
  constexpr int kMembers = 100000;
  std::string text = "{";
  for (int i = 0; i < kMembers; ++i) {
    if (i > 0) text += ',';
    text += "\"k" + std::to_string(i) + "\":0";
  }
  text += '}';
  const auto start = std::chrono::steady_clock::now();
  const auto doc = JsonValue::parse(text);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->size(), static_cast<std::size_t>(kMembers));
  EXPECT_LT(elapsed, std::chrono::seconds(5));
  // A duplicate at the far end is still caught.
  text.back() = ',';
  text += "\"k7\":1}";
  std::string error;
  EXPECT_FALSE(JsonValue::parse(text, &error).has_value());
  EXPECT_NE(error.find("duplicate object key \"k7\""), std::string::npos)
      << error;
}

TEST(JsonWriter, NaNAndInfinityInKeyedValuesBecomeNull) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.kv("nan", std::numeric_limits<double>::quiet_NaN());
  w.kv("ninf", -std::numeric_limits<double>::infinity());
  w.end_object();
  EXPECT_EQ(os.str(), "{\"nan\":null,\"ninf\":null}");
  const auto doc = JsonValue::parse(os.str());
  ASSERT_TRUE(doc.has_value());
  EXPECT_TRUE(doc->find("nan")->is_null());
}

TEST(JsonEscape, MultiByteUtf8PassesThroughUnescaped) {
  // Escaping operates on bytes >= 0x20; multi-byte UTF-8 sequences must
  // survive verbatim (machine names and table headers use them).
  const std::string utf8 = "caf\xC3\xA9 \xE2\x9C\x93 \xF0\x9F\x94\xA5";
  EXPECT_EQ(json_escape(utf8), utf8);
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.kv("s", utf8);
  w.end_object();
  const auto doc = JsonValue::parse(os.str());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("s")->as_string(), utf8);
}

TEST(JsonRoundTrip, EveryControlCharacterSurvives) {
  std::string all;
  for (int c = 1; c < 0x20; ++c) all += static_cast<char>(c);
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.kv("ctl", all);
  w.end_object();
  // Nothing below 0x20 may appear raw in the document.
  for (const char c : os.str()) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
  }
  const auto doc = JsonValue::parse(os.str());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("ctl")->as_string(), all);
}

TEST(JsonValue, DecodesUnicodeEscapes) {
  const auto doc = JsonValue::parse(R"(["\u0041\u00e9\u2713"])");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->at(0)->as_string(), "A\xC3\xA9\xE2\x9C\x93");
  EXPECT_FALSE(JsonValue::parse(R"(["\u12"])").has_value());
  EXPECT_FALSE(JsonValue::parse(R"(["\uZZZZ"])").has_value());
}

TEST(JsonValue, DeepNestingIsRejectedNotACrash) {
  // Within the parser's depth budget: fine.
  const int kOk = 200;
  std::string ok(static_cast<std::size_t>(kOk), '[');
  ok += "1";
  ok.append(static_cast<std::size_t>(kOk), ']');
  EXPECT_TRUE(JsonValue::parse(ok).has_value());

  // Past the budget: a parse error naming the nesting, not a stack overflow.
  std::string error;
  std::string deep(300, '[');
  deep += "1";
  deep.append(300, ']');
  EXPECT_FALSE(JsonValue::parse(deep, &error).has_value());
  EXPECT_NE(error.find("nesting"), std::string::npos);

  // A hostile input deep enough to smash the stack without the limit.
  const std::string hostile(200'000, '[');
  EXPECT_FALSE(JsonValue::parse(hostile).has_value());
  const std::string hostile_obj(100'000, '{');
  EXPECT_FALSE(JsonValue::parse(hostile_obj).has_value());

  // Depth is measured against the open stack, not totals: many shallow
  // siblings must still parse.
  std::string wide = "[";
  for (int i = 0; i < 1000; ++i) wide += "[1],";
  wide += "[1]]";
  EXPECT_TRUE(JsonValue::parse(wide).has_value());
}

TEST(JsonValue, MalformedCorpusIsRejectedWithoutCrashing) {
  const char* corpus[] = {
      "{",          "}",           "[",           "]",
      "[1,]",       "[,1]",        "{\"a\"}",     "{\"a\":}",
      "{\"a\":1,}", "{:1}",        "{1:2}",       "tru",
      "falsehood",  "nul",         "nan",
      "--1",        "1e",          "1e+",
      "0x10",       "\"\\x\"",     "\"\\u123\"",  "\"open",
      "[\"\\\"]",   "{\"a\":1 \"b\":2}",          "[1 2]",
      "\x01",       "[tru]",       "{\"k\":01x}",
  };
  for (const char* text : corpus) {
    std::string error;
    EXPECT_FALSE(JsonValue::parse(text, &error).has_value())
        << "accepted malformed input: " << text;
    EXPECT_FALSE(error.empty());
  }
  // Truncations of a valid document never crash and never parse.
  const std::string valid =
      R"({"a":[1,2.5,{"b":"x\n"}],"c":null,"d":true})";
  for (std::size_t len = 0; len < valid.size(); ++len) {
    EXPECT_FALSE(JsonValue::parse(valid.substr(0, len)).has_value())
        << "truncation at " << len << " parsed";
  }
  EXPECT_TRUE(JsonValue::parse(valid).has_value());
}

TEST(JsonRoundTrip, AllSingleByteStringsSurvive) {
  // Every possible byte, including NUL and bytes >= 0x80 (which must not
  // sign-extend through json_escape's \u formatting into "￿ff80").
  for (int b = 0; b < 256; ++b) {
    const std::string s(1, static_cast<char>(b));
    const std::string escaped = json_escape(s);
    if (b < 0x20) {
      // Control bytes escape to exactly one short sequence ("\n", "").
      EXPECT_LE(escaped.size(), 6u) << "byte " << b << " -> " << escaped;
    }
    std::ostringstream os;
    JsonWriter w(os);
    w.begin_array();
    w.value(s);
    w.end_array();
    std::string error;
    const auto doc = JsonValue::parse(os.str(), &error);
    ASSERT_TRUE(doc.has_value()) << "byte " << b << ": " << error;
    EXPECT_EQ(doc->at(0)->as_string(), s) << "byte " << b;
  }
}

TEST(JsonRoundTrip, EmbeddedNulAndControlsInsideLongerStrings) {
  std::string s = "head";
  s += '\0';
  s += "\x01\x1f\x7f";
  s += static_cast<char>(0x80);
  s += static_cast<char>(0xff);
  s += "tail";
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.kv("s", s);
  w.end_object();
  // NUL must be escaped, not emitted raw (it would truncate C consumers).
  EXPECT_EQ(os.str().find('\0'), std::string::npos);
  EXPECT_NE(os.str().find("\\u0000"), std::string::npos);
  const auto doc = JsonValue::parse(os.str());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("s")->as_string(), s);
}

TEST(JsonRoundTrip, WriterOutputParsesBackIdentically) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.kv("text", "quote \" backslash \\ newline \n");
  w.kv("big", std::uint64_t{1} << 52);
  w.kv("neg", std::int64_t{-7});
  w.kv("pi", 3.14159265358979);
  w.end_object();
  const auto doc = JsonValue::parse(os.str());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("text")->as_string(), "quote \" backslash \\ newline \n");
  EXPECT_EQ(doc->find("big")->as_number(),
            static_cast<double>(std::uint64_t{1} << 52));
  EXPECT_EQ(doc->find("neg")->as_number(), -7.0);
  EXPECT_NEAR(doc->find("pi")->as_number(), 3.14159265358979, 1e-12);
}

}  // namespace
}  // namespace am
