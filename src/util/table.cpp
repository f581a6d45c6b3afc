#include "util/table.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <sstream>

#include "util/csv.hpp"

namespace carbonedge::util {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {}

void Table::add_row(std::vector<std::string> cells) {
  cells.resize(header_.size());
  rows_.push_back(std::move(cells));
}

void Table::add_row(const std::string& label, const std::vector<double>& values, int precision) {
  std::vector<std::string> cells;
  cells.reserve(values.size() + 1);
  cells.push_back(label);
  for (const double v : values) cells.push_back(format_fixed(v, precision));
  add_row(std::move(cells));
}

void Table::append_column(std::string header, const std::string& value) {
  header_.push_back(std::move(header));
  for (auto& row : rows_) row.push_back(value);
}

void Table::print(std::ostream& out) const { out << to_string(); }

std::string Table::to_string() const {
  std::vector<std::size_t> widths(header_.size(), 0);
  for (std::size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) widths[c] = std::max(widths[c], row[c].size());
  }

  const auto pad = [&](const std::string& cell, std::size_t c) {
    const std::string fill(widths[c] - cell.size(), ' ');
    return c == 0 ? cell + fill : fill + cell;
  };

  std::ostringstream os;
  const auto rule = [&] {
    os << '+';
    for (const std::size_t w : widths) os << std::string(w + 2, '-') << '+';
    os << '\n';
  };

  if (!title_.empty()) os << "== " << title_ << " ==\n";
  rule();
  os << '|';
  for (std::size_t c = 0; c < header_.size(); ++c) os << ' ' << pad(header_[c], c) << " |";
  os << '\n';
  rule();
  for (const auto& row : rows_) {
    os << '|';
    for (std::size_t c = 0; c < row.size(); ++c) os << ' ' << pad(row[c], c) << " |";
    os << '\n';
  }
  rule();
  return os.str();
}

std::string Table::to_csv() const {
  std::ostringstream os;
  CsvWriter writer(os);
  writer.header(header_);
  for (const auto& row : rows_) writer.row(row);
  return os.str();
}

std::string format_percent(double fraction, int precision) {
  return format_fixed(fraction * 100.0, precision) + "%";
}

std::string format_fixed(double value, int precision) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(precision);
  os << value;
  return os.str();
}

std::string format_bar(double value, double max_value, int width) {
  if (max_value <= 0.0 || width <= 0) return {};
  const double frac = std::clamp(value / max_value, 0.0, 1.0);
  const int filled = static_cast<int>(std::lround(frac * width));
  return std::string(static_cast<std::size_t>(filled), '#') +
         std::string(static_cast<std::size_t>(width - filled), '.');
}

}  // namespace carbonedge::util
