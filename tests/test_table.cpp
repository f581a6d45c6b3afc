#include "util/table.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace carbonedge::util {
namespace {

TEST(Table, RendersHeaderAndRows) {
  Table t({"Zone", "gCO2"});
  t.add_row({"Miami", "243"});
  t.add_row({"Tampa", "611"});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("Zone"), std::string::npos);
  EXPECT_NE(out.find("Miami"), std::string::npos);
  EXPECT_NE(out.find("611"), std::string::npos);
}

TEST(Table, TitleIsPrinted) {
  Table t({"a"});
  t.set_title("Figure 3a");
  EXPECT_NE(t.to_string().find("Figure 3a"), std::string::npos);
}

TEST(Table, NumericRowFormatsPrecision) {
  Table t({"label", "v1", "v2"});
  t.add_row("row", {1.234, 5.0}, 1);
  const std::string out = t.to_string();
  EXPECT_NE(out.find("1.2"), std::string::npos);
  EXPECT_NE(out.find("5.0"), std::string::npos);
}

TEST(Table, ShortRowsArePadded) {
  Table t({"a", "b", "c"});
  t.add_row({"only"});
  EXPECT_EQ(t.rows(), 1u);
  EXPECT_NO_THROW(t.to_string());
}

TEST(Table, ColumnsAreAligned) {
  Table t({"n", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22222"});
  std::istringstream in(t.to_string());
  std::string line;
  std::size_t width = 0;
  while (std::getline(in, line)) {
    if (width == 0) width = line.size();
    EXPECT_EQ(line.size(), width) << line;
  }
}

TEST(Table, CsvExportParses) {
  Table t({"zone", "ci"});
  t.add_row({"Miami", "243"});
  t.add_row({"Salt Lake City, UT", "611"});
  EXPECT_EQ(t.to_csv(), "zone,ci\nMiami,243\n\"Salt Lake City, UT\",611\n");
}

TEST(Formatting, Percent) {
  EXPECT_EQ(format_percent(0.787), "78.7%");
  EXPECT_EQ(format_percent(0.5, 0), "50%");
}

TEST(Formatting, Fixed) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
}

TEST(Formatting, Bar) {
  EXPECT_EQ(format_bar(5.0, 10.0, 10), "#####.....");
  EXPECT_EQ(format_bar(0.0, 10.0, 4), "....");
  EXPECT_EQ(format_bar(20.0, 10.0, 4), "####");  // clamped
  EXPECT_TRUE(format_bar(1.0, 0.0, 4).empty());  // degenerate max
}

}  // namespace
}  // namespace carbonedge::util
