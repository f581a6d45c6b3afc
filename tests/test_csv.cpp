#include "util/csv.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace carbonedge::util {
namespace {

TEST(CsvEscape, QuotesWhenNeeded) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(CsvWriter, WritesHeaderAndQuotedRows) {
  std::ostringstream os;
  CsvWriter writer(os);
  writer.header({"zone", "note"});
  writer.row({"Miami", "warm, humid"});
  writer.row({format_double(1.5, 3), format_double(2.0, 3)});
  EXPECT_EQ(os.str(), "zone,note\nMiami,\"warm, humid\"\n1.5,2\n");
}

TEST(FormatDouble, TrimsTrailingZeros) {
  EXPECT_EQ(format_double(1.5, 6), "1.5");
  EXPECT_EQ(format_double(2.0, 6), "2");
  EXPECT_EQ(format_double(0.125, 2), "0.12");  // round-half-to-even

}

}  // namespace
}  // namespace carbonedge::util
