// ASCII table rendering for the benchmark harness. Every bench prints the
// rows/series the paper's tables and figures report; this keeps the output
// aligned and diff-friendly.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace carbonedge::util {

/// A simple column-aligned ASCII table: the first column is left-aligned,
/// every other column right-aligned.
///
///   Table t({"Zone", "gCO2/kWh"});
///   t.add_row({"Miami", "112.4"});
///   t.print(std::cout);
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  void add_row(std::vector<std::string> cells);

  /// Convenience: first cell is a label, the rest are numbers.
  void add_row(const std::string& label, const std::vector<double>& values, int precision = 2);

  /// Append one column filled with `value` in every existing row (rows
  /// added later size themselves to the widened header).
  void append_column(std::string header, const std::string& value);

  void set_title(std::string title) { title_ = std::move(title); }

  [[nodiscard]] std::size_t rows() const noexcept { return rows_.size(); }

  void print(std::ostream& out) const;
  [[nodiscard]] std::string to_string() const;

  /// Render the same content as CSV (used with --csv bench flag).
  [[nodiscard]] std::string to_csv() const;

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Format helper: "12.3%" style percentage.
[[nodiscard]] std::string format_percent(double fraction, int precision = 1);

/// Format helper: fixed-precision number.
[[nodiscard]] std::string format_fixed(double value, int precision = 2);

/// Tiny horizontal bar (unicode-free) for inline sparkline-ish output.
[[nodiscard]] std::string format_bar(double value, double max_value, int width = 24);

}  // namespace carbonedge::util
