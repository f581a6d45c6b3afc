// Minimal CSV writing, used by the trace export and the bench harness (every
// bench can dump its rows as CSV next to the ASCII table). Cells are quoted
// RFC-4180 style.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace carbonedge::util {

/// Incremental CSV writer.
class CsvWriter {
 public:
  explicit CsvWriter(std::ostream& out) : out_(&out) {}

  void header(const std::vector<std::string>& names);
  void row(const std::vector<std::string>& cells);

 private:
  void write_cells(const std::vector<std::string>& cells);
  std::ostream* out_;
};

/// Quote a cell if it contains separators, quotes, or newlines.
[[nodiscard]] std::string csv_escape(std::string_view cell);

/// Format a double with fixed precision, trimming trailing zeros.
[[nodiscard]] std::string format_double(double value, int precision = 6);

}  // namespace carbonedge::util
