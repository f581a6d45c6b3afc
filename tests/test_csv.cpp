#include "util/csv.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace carbonedge::util {
namespace {

TEST(CsvParse, SimpleDocument) {
  const auto doc = parse_csv("zone,ci\nMiami,243\nTampa,611\n");
  ASSERT_EQ(doc.header.size(), 2u);
  EXPECT_EQ(doc.header[0], "zone");
  ASSERT_EQ(doc.rows.size(), 2u);
  EXPECT_EQ(doc.rows[1][0], "Tampa");
  EXPECT_EQ(doc.rows[1][1], "611");
}

TEST(CsvParse, ColumnLookup) {
  const auto doc = parse_csv("a,b,c\n1,2,3\n");
  EXPECT_EQ(doc.column("b"), 1u);
  EXPECT_EQ(doc.column("missing"), CsvDocument::npos);
}

TEST(CsvParse, QuotedCellsWithCommasAndNewlines) {
  const auto doc = parse_csv("name,notes\n\"Salt Lake City\",\"no green, nearby\"\nx,\"line1\nline2\"\n");
  ASSERT_EQ(doc.rows.size(), 2u);
  EXPECT_EQ(doc.rows[0][1], "no green, nearby");
  EXPECT_EQ(doc.rows[1][1], "line1\nline2");
}

TEST(CsvParse, EscapedQuotes) {
  const auto doc = parse_csv("a\n\"he said \"\"hi\"\"\"\n");
  ASSERT_EQ(doc.rows.size(), 1u);
  EXPECT_EQ(doc.rows[0][0], "he said \"hi\"");
}

TEST(CsvParse, CrLfTolerated) {
  const auto doc = parse_csv("a,b\r\n1,2\r\n");
  ASSERT_EQ(doc.rows.size(), 1u);
  EXPECT_EQ(doc.rows[0][1], "2");
}

TEST(CsvParse, RaggedRowThrows) {
  EXPECT_THROW(parse_csv("a,b\n1\n"), std::runtime_error);
}

TEST(CsvParse, UnterminatedQuoteThrows) {
  EXPECT_THROW(parse_csv("a\n\"oops\n"), std::runtime_error);
}

TEST(CsvParse, EmptyInput) {
  const auto doc = parse_csv("");
  EXPECT_TRUE(doc.header.empty());
  EXPECT_TRUE(doc.rows.empty());
}

TEST(CsvParse, NoHeaderMode) {
  const auto doc = parse_csv("1,2\n3,4\n", /*has_header=*/false);
  EXPECT_TRUE(doc.header.empty());
  ASSERT_EQ(doc.rows.size(), 2u);
}

TEST(CsvEscape, QuotesWhenNeeded) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(CsvWriter, RoundTripsThroughParser) {
  std::ostringstream os;
  CsvWriter writer(os);
  writer.header({"zone", "note"});
  writer.row({"Miami", "warm, humid"});
  writer.row({format_double(1.5, 3), format_double(2.0, 3)});
  const auto doc = parse_csv(os.str());
  ASSERT_EQ(doc.rows.size(), 2u);
  EXPECT_EQ(doc.rows[0][1], "warm, humid");
  EXPECT_EQ(doc.rows[1][0], "1.5");
  EXPECT_EQ(doc.rows[1][1], "2");
}

TEST(FormatDouble, TrimsTrailingZeros) {
  EXPECT_EQ(format_double(1.5, 6), "1.5");
  EXPECT_EQ(format_double(2.0, 6), "2");
  EXPECT_EQ(format_double(0.125, 2), "0.12");  // round-half-to-even

}

}  // namespace
}  // namespace carbonedge::util
