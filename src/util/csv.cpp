#include "util/csv.hpp"

#include <ostream>
#include <sstream>

namespace carbonedge::util {

std::string csv_escape(std::string_view cell) {
  const bool needs_quotes = cell.find_first_of(",\"\n\r") != std::string_view::npos;
  if (!needs_quotes) return std::string(cell);
  std::string out;
  out.reserve(cell.size() + 2);
  out.push_back('"');
  for (const char c : cell) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

std::string format_double(double value, int precision) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(precision);
  os << value;
  std::string s = os.str();
  if (s.find('.') != std::string::npos) {
    while (!s.empty() && s.back() == '0') s.pop_back();
    if (!s.empty() && s.back() == '.') s.pop_back();
  }
  return s;
}

void CsvWriter::header(const std::vector<std::string>& names) { write_cells(names); }

void CsvWriter::row(const std::vector<std::string>& cells) { write_cells(cells); }

void CsvWriter::write_cells(const std::vector<std::string>& cells) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i != 0) *out_ << ',';
    *out_ << csv_escape(cells[i]);
  }
  *out_ << '\n';
}

}  // namespace carbonedge::util
