#include "util/csv.hpp"

#include <cmath>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace carbonedge::util {
namespace {

std::vector<std::vector<std::string>> tokenize(std::string_view text) {
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> current_row;
  std::string cell;
  bool in_quotes = false;
  bool row_has_content = false;

  const auto end_cell = [&] {
    current_row.push_back(std::move(cell));
    cell.clear();
  };
  const auto end_row = [&] {
    if (row_has_content || !current_row.empty()) {
      end_cell();
      rows.push_back(std::move(current_row));
      current_row.clear();
    }
    row_has_content = false;
  };

  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          cell.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        cell.push_back(c);
      }
      continue;
    }
    switch (c) {
      case '"':
        in_quotes = true;
        row_has_content = true;
        break;
      case ',':
        end_cell();
        row_has_content = true;
        break;
      case '\r':
        break;  // tolerate CRLF
      case '\n':
        end_row();
        break;
      default:
        cell.push_back(c);
        row_has_content = true;
        break;
    }
  }
  if (in_quotes) throw std::runtime_error("csv: unterminated quoted cell");
  end_row();
  return rows;
}

}  // namespace

std::size_t CsvDocument::column(std::string_view name) const noexcept {
  for (std::size_t i = 0; i < header.size(); ++i) {
    if (header[i] == name) return i;
  }
  return npos;
}

CsvDocument parse_csv(std::string_view text, bool has_header) {
  CsvDocument doc;
  auto rows = tokenize(text);
  if (rows.empty()) return doc;
  std::size_t start = 0;
  if (has_header) {
    doc.header = std::move(rows.front());
    start = 1;
  }
  const std::size_t arity = has_header ? doc.header.size() : rows.front().size();
  for (std::size_t r = start; r < rows.size(); ++r) {
    if (rows[r].size() != arity) {
      throw std::runtime_error("csv: ragged row " + std::to_string(r) + " (expected " +
                               std::to_string(arity) + " cells, got " +
                               std::to_string(rows[r].size()) + ")");
    }
    doc.rows.push_back(std::move(rows[r]));
  }
  return doc;
}

double parse_nonnegative(const std::string& cell, std::string_view source, std::size_t line,
                         std::string_view column) {
  const auto fail = [&](std::string_view what) {
    throw std::runtime_error(std::string(source) + " line " + std::to_string(line) + ": " +
                             std::string(what) + " " + std::string(column) + " '" + cell + "'");
  };
  double value = 0.0;
  try {
    std::size_t consumed = 0;
    value = std::stod(cell, &consumed);
    if (consumed != cell.size()) throw std::invalid_argument("trailing characters");
  } catch (const std::exception&) {
    fail("invalid");
  }
  // NaN/inf would silently poison every mean and every `rtt > limit` test
  // downstream (NaN compares false), and a negative value is physically
  // meaningless: reject them at the door instead of ingesting them.
  if (!std::isfinite(value)) fail("non-finite");
  if (value < 0.0) fail("negative");
  return value;
}

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
