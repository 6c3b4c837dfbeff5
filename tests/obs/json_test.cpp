#include "obs/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "mini_json.hpp"

namespace tlb::obs {
namespace {

TEST(JsonEscape, ControlAndQuoteCharacters) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string_view{"\x01", 1}), "\\u0001");
}

TEST(JsonNumber, FiniteAndNonFinite) {
  EXPECT_EQ(json_number(1.5), "1.5");
  EXPECT_EQ(json_number(0.0), "0");
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_number(std::nan("")), "null");
}

TEST(JsonWriter, NestedArraysAndObjectsRoundTrip) {
  // Regression: end_array() must pop what begin_array() pushed; this
  // exact shape (array of arrays inside an object) once tripped the
  // writer's balance check.
  std::ostringstream os;
  JsonWriter w{os, 0};
  w.begin_object();
  w.key("rows").begin_array();
  for (int r = 0; r < 2; ++r) {
    w.begin_array();
    w.value(r);
    w.value("x");
    w.end_array();
  }
  w.end_array();
  w.key("meta").begin_object();
  w.kv("n", 2);
  w.end_object();
  w.end_object();

  auto const doc = test::parse_json(os.str());
  ASSERT_TRUE(doc.is_object());
  auto const& rows = doc.at("rows").array();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1].array()[0].num(), 1.0);
  EXPECT_EQ(rows[1].array()[1].str(), "x");
  EXPECT_EQ(doc.at("meta").at("n").num(), 2.0);
}

TEST(JsonWriter, IndentedOutputStillParses) {
  std::ostringstream os;
  JsonWriter w{os, 2};
  w.begin_object();
  w.key("list").begin_array();
  w.value(1);
  w.value(2);
  w.end_array();
  w.end_object();
  auto const doc = test::parse_json(os.str());
  EXPECT_EQ(doc.at("list").array().size(), 2u);
}

TEST(JsonWriter, EscapesKeysAndValues) {
  std::ostringstream os;
  JsonWriter w{os, 0};
  w.begin_object();
  w.kv("a\"key", "line\nbreak");
  w.end_object();
  auto const doc = test::parse_json(os.str());
  EXPECT_EQ(doc.at("a\"key").str(), "line\nbreak");
}

std::string nested_arrays(std::size_t depth) {
  return std::string(depth, '[') + std::string(depth, ']');
}

TEST(JsonParserDepth, AcceptsNestingUpToTheCap) {
  auto doc = test::parse_json(nested_arrays(JsonParser::kMaxDepth));
  std::size_t depth = 1;
  while (!doc.array().empty()) {
    JsonValue const inner = doc.array()[0];
    doc = inner;
    ++depth;
  }
  EXPECT_EQ(depth, JsonParser::kMaxDepth);
}

TEST(JsonParserDepth, RejectsNestingPastTheCap) {
  auto const too_deep = nested_arrays(JsonParser::kMaxDepth + 1);
  EXPECT_THROW((void)test::parse_json(too_deep), std::runtime_error);
  // Objects count toward the same cap.
  EXPECT_THROW((void)test::parse_json("{\"a\":" +
                                      nested_arrays(JsonParser::kMaxDepth) +
                                      "}"),
               std::runtime_error);
  // Deep enough to overflow the stack without the cap.
  EXPECT_THROW((void)test::parse_json(std::string(100000, '[')),
               std::runtime_error);
}

TEST(JsonParserDepth, GoldenFileStillParses) {
  std::ifstream in{std::string{TLB_SOURCE_DIR} +
                   "/tests/obs/golden/lb_report_64.json"};
  ASSERT_TRUE(in.good());
  std::stringstream text;
  text << in.rdbuf();
  auto const doc = test::parse_json(text.str());
  EXPECT_FALSE(doc.at("lb_reports").array().empty());
}

TEST(OpenOutputFile, MissingDirectoryNamesPathAndErrno) {
  std::string const path = "/tmp/tlb-no-such-dir-obs/x.json";
  try {
    (void)open_output_file(path);
    FAIL() << "expected std::runtime_error";
  } catch (std::runtime_error const& e) {
    std::string const what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("No such file or directory"), std::string::npos)
        << what;
  }
}

} // namespace
} // namespace tlb::obs
