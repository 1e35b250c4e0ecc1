// Statistics and table formatting used by the experiment harnesses, plus
// the JSON layer (writer hardening + the recursive-descent reader).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string_view>
#include <thread>

#include "analysis/json.hpp"
#include "analysis/stats.hpp"
#include "analysis/table.hpp"
#include "util/executor.hpp"

namespace protest {
namespace {

TEST(Stats, PerfectCorrelation) {
  const double x[] = {0.1, 0.2, 0.3, 0.9};
  const double y[] = {0.2, 0.4, 0.6, 1.8};
  EXPECT_NEAR(pearson_correlation(x, y), 1.0, 1e-12);
  const double z[] = {-0.1, -0.2, -0.3, -0.9};
  EXPECT_NEAR(pearson_correlation(x, z), -1.0, 1e-12);
}

TEST(Stats, ZeroForConstantSeries) {
  const double x[] = {0.5, 0.5, 0.5};
  const double y[] = {0.1, 0.9, 0.3};
  EXPECT_DOUBLE_EQ(pearson_correlation(x, y), 0.0);
}

TEST(Stats, UncorrelatedNearZero) {
  std::vector<double> x, y;
  // A deterministic "checkerboard" with zero linear relation.
  for (int i = 0; i < 1000; ++i) {
    x.push_back(i % 2);
    y.push_back((i / 2) % 2);
  }
  EXPECT_NEAR(pearson_correlation(x, y), 0.0, 0.01);
}

TEST(Stats, CompareEstimatesFields) {
  const double est[] = {0.5, 0.2, 0.9};
  const double ref[] = {0.4, 0.2, 1.0};
  const ErrorStats s = compare_estimates(est, ref);
  EXPECT_NEAR(s.max_abs_error, 0.1, 1e-12);
  EXPECT_NEAR(s.mean_abs_error, 0.2 / 3, 1e-12);
  EXPECT_NEAR(s.mean_signed_error, 0.0, 1e-12);
  EXPECT_EQ(s.count, 3u);
}

TEST(Stats, SignedErrorShowsUnderestimationBias) {
  // est systematically below ref, like fig. 6 (P_SIM > P_PROT).
  const double est[] = {0.1, 0.2, 0.3};
  const double ref[] = {0.3, 0.4, 0.5};
  EXPECT_NEAR(compare_estimates(est, ref).mean_signed_error, -0.2, 1e-12);
}

TEST(Stats, ScatterSeriesFormat) {
  const double x[] = {0.25};
  const double y[] = {0.75};
  EXPECT_EQ(scatter_series(x, y), "0.25 0.75\n");
}

TEST(Stats, AsciiScatterMarksPoints) {
  const double x[] = {0.0, 1.0};
  const double y[] = {0.0, 1.0};
  const std::string plot = ascii_scatter(x, y, 11, 5);
  EXPECT_NE(plot.find('.'), std::string::npos);
  EXPECT_NE(plot.find("P_PROT"), std::string::npos);
}

TEST(Stats, Validation) {
  const double x[] = {0.1};
  const double y2[] = {0.1, 0.2};
  EXPECT_THROW(pearson_correlation(x, y2), std::invalid_argument);
  EXPECT_THROW(compare_estimates(x, y2), std::invalid_argument);
}

TEST(Table, AlignsColumns) {
  TextTable t({"circuit", "N"});
  t.add_row({"ALU", "212"});
  t.add_row({"MULT", "607"});
  const std::string s = t.str();
  EXPECT_NE(s.find("| circuit | N   |"), std::string::npos);
  EXPECT_NE(s.find("| ALU     | 212 |"), std::string::npos);
}

TEST(Table, RejectsBadRows) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
  EXPECT_THROW(TextTable({}), std::invalid_argument);
}

TEST(Table, Formatters) {
  EXPECT_EQ(fmt(0.12345, 3), "0.123");
  EXPECT_EQ(fmt(2.0, 1), "2.0");
  EXPECT_EQ(fmt_int(1234567), "1 234 567");
  EXPECT_EQ(fmt_int(42), "42");
}

// --- JsonWriter hardening ---------------------------------------------------

TEST(JsonWriter, EscapesControlCharacters) {
  // Every control character < 0x20 must come out escaped — either as the
  // short form or as \u00XX — so NDJSON consumers never see a raw
  // control byte inside a string.
  EXPECT_EQ(JsonWriter::quote("a\nb\tc\rd"), "\"a\\nb\\tc\\rd\"");
  EXPECT_EQ(JsonWriter::quote(std::string_view("x\x01y\x1f", 4)),
            "\"x\\u0001y\\u001f\"");
  EXPECT_EQ(JsonWriter::quote("quote\" back\\slash"),
            "\"quote\\\" back\\\\slash\"");
}

TEST(JsonWriter, NonFiniteDoublesEmitNull) {
  JsonWriter w(0);
  w.begin_array();
  w.value(std::numeric_limits<double>::quiet_NaN());
  w.value(std::numeric_limits<double>::infinity());
  w.value(-std::numeric_limits<double>::infinity());
  w.value(1.5);
  w.end_array();
  EXPECT_EQ(w.str(), "[null,null,null,1.5]");
}

TEST(JsonWriter, DoublesRoundTripShortest) {
  JsonWriter w(0);
  w.begin_array();
  w.value(0.1);
  w.value(1.0 / 3.0);
  w.value(1e-300);
  w.end_array();
  const JsonValue doc = parse_json(w.str());
  const JsonValue::Array& a = doc.as_array();
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(a[0].as_number(), 0.1);
  EXPECT_EQ(a[1].as_number(), 1.0 / 3.0);
  EXPECT_EQ(a[2].as_number(), 1e-300);
}

TEST(JsonWriter, RawSplicesVerbatim) {
  JsonWriter w(0);
  w.begin_object();
  w.key("result").raw("{\"p\":0.25}");
  w.end_object();
  EXPECT_EQ(w.str(), "{\"result\":{\"p\":0.25}}");
}

/// Where two documents first differ, or "" when they are equal: a failure
/// message that does not print whole payloads.
std::string first_difference(std::string_view a, std::string_view b) {
  if (a == b) return "";
  const std::size_t at = static_cast<std::size_t>(
      std::mismatch(a.begin(), a.end(), b.begin(), b.end()).first -
      a.begin());
  return "sizes " + std::to_string(a.size()) + " and " +
         std::to_string(b.size()) + ", first difference at byte " +
         std::to_string(at) + ": \"" + std::string(a.substr(at, 40)) +
         "\" vs \"" + std::string(b.substr(at, 40)) + "\"";
}

TEST(JsonWriter, ElementsMatchTheSerialLoopAtEveryWorkerCount) {
  // elements() against the loop it replaces: array lengths on both sides
  // of each chunk edge, skipped elements, a chunk whose elements are all
  // skipped, an array that already holds an element, nested containers,
  // and both indents.
  constexpr std::size_t kChunk = JsonWriter::kElementsPerChunk;
  const auto elem = [](JsonWriter& w, std::size_t i) {
    if (i % 7 == 3 || (i >= kChunk && i < 2 * kChunk)) return;
    w.begin_object();
    w.key("i").value(i);
    w.key("x").value(0.25 * static_cast<double>(i % 4));
    w.key("v").begin_array().value(i % 2 == 0).null().end_array();
    w.end_object();
  };
  const auto document = [&](std::size_t n, int indent, Executor* exec,
                            bool plain_loop) {
    const auto rows = [&](JsonWriter& w) {
      if (plain_loop) {
        for (std::size_t i = 0; i < n; ++i) elem(w, i);
      } else {
        w.elements(n, exec, elem);
      }
    };
    JsonWriter w(indent);
    w.begin_object();
    w.key("fresh").begin_array();
    rows(w);
    w.end_array();
    w.key("after_lead").begin_array().value("lead");
    rows(w);
    w.end_array();
    w.key("nested").begin_array().begin_object().key("rows").begin_array();
    rows(w);
    w.end_array().end_object().end_array();
    w.end_object();
    return w.str();
  };
  Executor one(1u);
  Executor four(4u);
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, kChunk - 1, kChunk, kChunk + 1,
        2 * kChunk - 1, 2 * kChunk, 2 * kChunk + 1, 3 * kChunk + 5})
    for (const int indent : {0, 2}) {
      const std::string serial = document(n, indent, nullptr, true);
      const std::string what =
          "n=" + std::to_string(n) + " indent=" + std::to_string(indent);
      EXPECT_EQ(first_difference(document(n, indent, &four, false), serial),
                "")
          << what;
      EXPECT_EQ(first_difference(document(n, indent, &one, false), serial), "")
          << what;
      EXPECT_EQ(
          first_difference(document(n, indent, nullptr, false), serial), "")
          << what;
    }

  // Every element skipped: no stray comma, whatever the chunking.
  JsonWriter none(0);
  none.begin_array();
  none.elements(3 * kChunk, &four, [](JsonWriter&, std::size_t) {});
  none.end_array();
  EXPECT_EQ(none.str(), "[]");

  // One chunk never reaches the executor: every element is written on the
  // calling thread.
  std::vector<std::thread::id> writers;
  JsonWriter small(0);
  small.begin_array();
  small.elements(kChunk, &four, [&](JsonWriter& w, std::size_t i) {
    writers.push_back(std::this_thread::get_id());
    w.value(i);
  });
  small.end_array();
  ASSERT_EQ(writers.size(), kChunk);
  for (const std::thread::id& id : writers)
    EXPECT_EQ(id, std::this_thread::get_id());
}

TEST(JsonWriter, ElementsNeedAnOpenArray) {
  const auto skip = [](JsonWriter&, std::size_t) {};
  JsonWriter top(0);
  EXPECT_THROW(top.elements(1, nullptr, skip), std::logic_error);
  JsonWriter in_object(0);
  in_object.begin_object();
  EXPECT_THROW(in_object.elements(1, nullptr, skip), std::logic_error);
}

// --- JsonValue / parse_json -------------------------------------------------

TEST(JsonReader, ParsesScalars) {
  EXPECT_TRUE(parse_json("null").is_null());
  EXPECT_EQ(parse_json("true").as_bool(), true);
  EXPECT_EQ(parse_json("false").as_bool(), false);
  EXPECT_EQ(parse_json("42").as_number(), 42.0);
  EXPECT_EQ(parse_json("-0.5e2").as_number(), -50.0);
  EXPECT_EQ(parse_json("\"hi\"").as_string(), "hi");
  EXPECT_TRUE(parse_json("  [ ]\n").as_array().empty());
  EXPECT_TRUE(parse_json("{}").as_object().empty());
}

TEST(JsonReader, ParsesNestedAndPreservesOrder) {
  const JsonValue doc =
      parse_json("{\"b\":[1,2,{\"c\":null}],\"a\":{\"x\":true}}");
  const JsonValue::Object& o = doc.as_object();
  ASSERT_EQ(o.size(), 2u);
  EXPECT_EQ(o[0].first, "b");  // insertion order, not sorted
  EXPECT_EQ(o[1].first, "a");
  EXPECT_EQ(doc.at("b").as_array()[1].as_number(), 2.0);
  EXPECT_TRUE(doc.at("b").as_array()[2].at("c").is_null());
  EXPECT_EQ(doc.find("missing"), nullptr);
  EXPECT_THROW(doc.at("missing"), std::runtime_error);
}

TEST(JsonReader, DecodesEscapes) {
  EXPECT_EQ(parse_json("\"a\\n\\t\\\\\\\"\\/\"").as_string(), "a\n\t\\\"/");
  EXPECT_EQ(parse_json("\"\\u0041\\u00e9\"").as_string(), "A\xc3\xa9");
  // Surrogate pair U+1F600 -> 4-byte UTF-8.
  EXPECT_EQ(parse_json("\"\\ud83d\\ude00\"").as_string(),
            "\xf0\x9f\x98\x80");
  // Writer's control-character form decodes back.
  EXPECT_EQ(parse_json(JsonWriter::quote("x\x01y")).as_string(), "x\x01y");
}

TEST(JsonReader, RejectsMalformedInput) {
  EXPECT_THROW(parse_json(""), JsonParseError);
  EXPECT_THROW(parse_json("{\"a\":1,}"), JsonParseError);   // trailing comma
  EXPECT_THROW(parse_json("{\"a\" 1}"), JsonParseError);    // missing colon
  EXPECT_THROW(parse_json("[1 2]"), JsonParseError);
  EXPECT_THROW(parse_json("\"unterminated"), JsonParseError);
  EXPECT_THROW(parse_json("\"bad\\q\""), JsonParseError);
  EXPECT_THROW(parse_json("\"\\ud83d\""), JsonParseError);  // lone surrogate
  EXPECT_THROW(parse_json("\"raw\ntab\""), JsonParseError); // bare control
  EXPECT_THROW(parse_json("01"), JsonParseError);           // leading zero
  EXPECT_THROW(parse_json("1."), JsonParseError);
  EXPECT_THROW(parse_json("nul"), JsonParseError);
  EXPECT_THROW(parse_json("{} trailing"), JsonParseError);
  try {
    parse_json("[1,");
    FAIL() << "expected JsonParseError";
  } catch (const JsonParseError& e) {
    EXPECT_EQ(e.offset(), 3u);  // failure position is reported
  }
}

TEST(JsonReader, DepthBombFailsCleanly) {
  // 100k unclosed arrays must raise JsonParseError, not overflow the
  // stack — the parser caps nesting.
  const std::string bomb(100'000, '[');
  EXPECT_THROW(parse_json(bomb), JsonParseError);
}

TEST(JsonReader, TypeMismatchesThrowDescriptively) {
  const JsonValue v = parse_json("[1]");
  EXPECT_THROW(v.as_bool(), std::runtime_error);
  EXPECT_THROW(v.as_string(), std::runtime_error);
  EXPECT_THROW(v.as_object(), std::runtime_error);
  EXPECT_THROW(v.find("k"), std::runtime_error);  // not an object
  try {
    v.as_number();
    FAIL() << "expected type error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("array"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("number"), std::string::npos);
  }
}

TEST(JsonReader, ParseWriteRoundTripIsByteIdentical) {
  // Writer output -> parse -> write must reproduce the exact bytes (the
  // property the service protocol's embedded payloads rely on).
  JsonWriter w(0);
  w.begin_object();
  w.key("engine").value("protest");
  w.key("probs").begin_array();
  w.value(0.1);
  w.value(1.0 / 3.0);
  w.value(true);
  w.null();
  w.end_array();
  w.key("count").value(std::uint64_t{123456789});
  w.key("text").value("line\nbreak \x01 end");
  w.end_object();
  const std::string original = w.str();
  EXPECT_EQ(to_json(parse_json(original), 0), original);
  // Indented output parses to the same tree as compact.
  JsonWriter wi(2);
  write_value(wi, parse_json(original));
  EXPECT_EQ(to_json(parse_json(wi.str()), 0), original);
}

}  // namespace
}  // namespace protest
