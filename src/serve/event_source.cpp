#include "serve/event_source.hpp"

#include <cmath>
#include <istream>
#include <limits>
#include <stdexcept>

#include "util/flags.hpp"

namespace carbonedge::serve {

// ---------------------------------------------------- TraceReplaySource --

TraceReplaySource::TraceReplaySource(const sim::WorkloadParams& params,
                                     const sim::EdgeCluster& cluster, std::uint32_t epochs,
                                     double epoch_hours)
    : generator_(params, cluster), epochs_(epochs), epoch_hours_(epoch_hours) {}

std::optional<Event> TraceReplaySource::next() {
  while (cursor_ >= pending_.size()) {
    if (epoch_ >= epochs_) return std::nullopt;
    // One generator call per epoch, in epoch order — the identical RNG
    // consumption as the batch driver's generator.arrivals(epoch) loop.
    pending_ = generator_.arrivals(epoch_);
    cursor_ = 0;
    ++epoch_;
  }
  const double time = static_cast<double>(epoch_ - 1) * epoch_hours_;
  return make_arrival(time, pending_[cursor_++]);
}

// ------------------------------------------------------- CsvEventSource --

namespace {

[[noreturn]] void line_fail(std::size_t line, const std::string& what) {
  throw std::runtime_error("serve events line " + std::to_string(line) + ": " + what);
}

std::vector<std::string> split_cells(const std::string& line) {
  std::vector<std::string> cells;
  std::size_t start = 0;
  while (true) {
    const std::size_t comma = line.find(',', start);
    if (comma == std::string::npos) {
      cells.push_back(line.substr(start));
      break;
    }
    cells.push_back(line.substr(start, comma - start));
    start = comma + 1;
  }
  return cells;
}

// Strict full-cell numeric parses: trailing garbage, empty cells, and
// non-finite or negative values are rejected with the offending line and
// cell.
double parse_number(const std::string& cell, std::size_t line, const char* column) {
  double value = 0.0;
  try {
    std::size_t consumed = 0;
    value = std::stod(cell, &consumed);
    if (consumed != cell.size()) throw std::invalid_argument("trailing characters");
  } catch (const std::exception&) {
    line_fail(line, std::string("invalid ") + column + " '" + cell + "'");
  }
  if (!std::isfinite(value)) {
    line_fail(line, std::string("non-finite ") + column + " '" + cell + "'");
  }
  if (value < 0.0) line_fail(line, std::string("negative ") + column + " '" + cell + "'");
  return value;
}

// A decimal count cell no larger than T's maximum (util::parse_count): a
// sign, a suffix, an empty cell or a value that would wrap is rejected.
template <typename T>
T parse_count_cell(const std::string& cell, std::size_t line, const char* column) {
  try {
    return static_cast<T>(util::parse_count(cell, column, std::numeric_limits<T>::max()));
  } catch (const std::logic_error& error) {  // invalid_argument, out_of_range
    line_fail(line, std::string(error.what()) + " '" + cell + "'");
  }
}

sim::ModelType parse_model(const std::string& cell, std::size_t line) {
  for (const sim::ModelType model : sim::kAllModels) {
    if (cell == sim::to_string(model)) return model;
  }
  line_fail(line, "unknown model '" + cell + "'");
}

}  // namespace

CsvEventSource::CsvEventSource(std::istream& in, ErrorPolicy policy)
    : in_(&in), policy_(policy) {}

std::optional<Event> CsvEventSource::parse_line(const std::string& line) {
  const std::vector<std::string> cells = split_cells(line);
  if (cells.size() != 11) {
    line_fail(line_number_, "expected 11 cells, got " + std::to_string(cells.size()));
  }
  const double time_hours = parse_number(cells[0], line_number_, "time_hours");
  const std::string& type = cells[1];
  if (type == "arrival") {
    sim::Application app;
    app.id = next_id_++;
    app.origin_site = parse_count_cell<std::size_t>(cells[2], line_number_, "origin_site");
    app.model = parse_model(cells[3], line_number_);
    app.rps = parse_number(cells[4], line_number_, "rps");
    if (app.rps <= 0.0) line_fail(line_number_, "rps must be positive");
    app.latency_limit_rtt_ms = parse_number(cells[5], line_number_, "latency_limit_rtt_ms");
    app.remaining_epochs =
        parse_count_cell<std::uint32_t>(cells[6], line_number_, "lifetime_epochs");
    app.state_size_mb = parse_number(cells[7], line_number_, "state_mb");
    app.max_defer_epochs =
        parse_count_cell<std::uint32_t>(cells[8], line_number_, "max_defer_epochs");
    return make_arrival(time_hours, app);
  }
  if (type == "failure") {
    const auto site = parse_count_cell<std::size_t>(cells[9], line_number_, "site");
    const auto server = parse_count_cell<std::uint32_t>(cells[10], line_number_, "server");
    return make_failure(time_hours, site, server);
  }
  line_fail(line_number_, "unknown event type '" + type + "'");
}

std::optional<Event> CsvEventSource::next() {
  std::string line;
  while (std::getline(*in_, line)) {
    ++line_number_;
    if (!line.empty() && line.back() == '\r') line.pop_back();  // CRLF feeds
    if (!header_checked_) {
      header_checked_ = true;
      if (line != kCsvHeader) line_fail(line_number_, "bad or missing header");
      continue;
    }
    if (line.empty()) continue;
    if (policy_ == ErrorPolicy::kThrow) return parse_line(line);
    try {
      return parse_line(line);
    } catch (const std::runtime_error& error) {
      ++rejected_;
      last_error_ = error.what();
    }
  }
  if (!header_checked_) {
    // An empty feed has no header either; treat as an empty stream.
    header_checked_ = true;
  }
  return std::nullopt;
}

}  // namespace carbonedge::serve
