// Minimal CSV writing, used by the trace export and the bench harness (every
// bench can dump its rows as CSV next to the ASCII table), and the matching
// parser. RFC-4180-style quoting is supported on both paths.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace carbonedge::util {

/// A parsed CSV document: a header row plus data rows of equal arity.
struct CsvDocument {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;

  /// Index of a named column, or npos if absent.
  [[nodiscard]] std::size_t column(std::string_view name) const noexcept;
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
};

/// Parse CSV text. Throws std::runtime_error on ragged rows or unterminated
/// quotes. An empty input yields an empty document.
[[nodiscard]] CsvDocument parse_csv(std::string_view text, bool has_header = true);

/// 1-based text line of data row `row` (0-based) under a header on line 1.
/// (Quoted cells with embedded newlines would shift this, but no exporter
/// in this repo emits them.)
[[nodiscard]] constexpr std::size_t data_line(std::size_t row) noexcept { return row + 2; }

/// Strict full-cell parse of a finite, non-negative number. Trailing
/// garbage ("3.5ms"), empty cells, NaN/inf and negatives all throw
/// std::runtime_error "<source> line <line>: invalid|non-finite|negative
/// <column> '<cell>'".
[[nodiscard]] double parse_nonnegative(const std::string& cell, std::string_view source,
                                       std::size_t line, std::string_view column);

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
