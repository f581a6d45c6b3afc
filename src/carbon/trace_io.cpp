#include "carbon/trace_io.hpp"

#include <fstream>
#include <map>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "util/csv.hpp"

namespace carbonedge::carbon {
namespace {

void write_rows(util::CsvWriter& writer, const CarbonTrace& trace) {
  for (std::size_t h = 0; h < trace.hours(); ++h) {
    writer.row({trace.zone(), std::to_string(h),
                util::format_double(trace.at(static_cast<HourIndex>(h)), 4)});
  }
}

[[noreturn]] void parse_fail(std::size_t row, const std::string& what) {
  throw std::runtime_error("trace csv line " + std::to_string(util::data_line(row)) + ": " +
                           what);
}

// Strict full-cell hour parse: trailing garbage ("12abc"), empty cells, and
// out-of-range values all fail with the offending line and cell.
std::size_t parse_hour(const std::string& cell, std::size_t row) {
  try {
    std::size_t consumed = 0;
    const unsigned long value = std::stoul(cell, &consumed);
    if (consumed != cell.size()) throw std::invalid_argument("trailing characters");
    return static_cast<std::size_t>(value);
  } catch (const std::exception&) {
    parse_fail(row, "invalid hour '" + cell + "'");
  }
}

}  // namespace

void write_trace_csv(std::ostream& out, const CarbonTrace& trace) {
  util::CsvWriter writer(out);
  writer.header({"zone", "hour", "intensity_g_kwh"});
  write_rows(writer, trace);
}

void write_traces_csv(std::ostream& out, const std::vector<CarbonTrace>& traces) {
  util::CsvWriter writer(out);
  writer.header({"zone", "hour", "intensity_g_kwh"});
  for (const CarbonTrace& trace : traces) write_rows(writer, trace);
}

std::vector<CarbonTrace> read_traces_csv(const std::string& text) {
  const util::CsvDocument doc = util::parse_csv(text);
  const std::size_t zone_col = doc.column("zone");
  const std::size_t hour_col = doc.column("hour");
  const std::size_t ci_col = doc.column("intensity_g_kwh");
  if (zone_col == util::CsvDocument::npos || hour_col == util::CsvDocument::npos ||
      ci_col == util::CsvDocument::npos) {
    throw std::runtime_error("trace csv: missing zone/hour/intensity_g_kwh columns");
  }
  std::array<std::size_t, kSourceCount> mix_cols{};
  bool with_mix = true;
  for (const EnergySource s : kAllSources) {
    mix_cols[index_of(s)] = doc.column(to_string(s));
    with_mix = with_mix && mix_cols[index_of(s)] != util::CsvDocument::npos;
  }

  // Preserve first-appearance order of zones. Mix columns are summed per
  // zone in hour order and normalized once at the end: only the average is
  // kept.
  std::vector<std::string> order;
  std::map<std::string, std::vector<double>> intensity;
  std::map<std::string, GenerationMix> mix_sums;
  for (std::size_t r = 0; r < doc.rows.size(); ++r) {
    const auto& row = doc.rows[r];
    const std::string& zone = row[zone_col];
    if (zone.empty()) parse_fail(r, "empty zone name");
    auto [it, inserted] = intensity.try_emplace(zone);
    if (inserted) order.push_back(zone);
    const std::size_t hour = parse_hour(row[hour_col], r);
    if (hour != it->second.size()) {
      parse_fail(r, "non-contiguous hours for zone " + zone + " (expected " +
                        std::to_string(it->second.size()) + ", got " + std::to_string(hour) +
                        ")");
    }
    it->second.push_back(
        util::parse_nonnegative(row[ci_col], "trace csv", util::data_line(r), "intensity"));
    if (with_mix) {
      GenerationMix& sum = mix_sums[zone];
      for (const EnergySource s : kAllSources) {
        sum.add(s, util::parse_nonnegative(row[mix_cols[index_of(s)]], "trace csv",
                                           util::data_line(r), "mix share"));
      }
    }
  }

  std::vector<CarbonTrace> traces;
  traces.reserve(order.size());
  for (const std::string& zone : order) {
    std::optional<GenerationMix> average;
    if (with_mix) {
      average = mix_sums.at(zone);
      average->normalize();
    }
    traces.emplace_back(zone, std::move(intensity.at(zone)), average);
  }
  return traces;
}

void save_traces(const std::filesystem::path& path, const std::vector<CarbonTrace>& traces) {
  std::ofstream file(path, std::ios::binary);
  if (!file) throw std::runtime_error("trace csv: cannot write " + path.string());
  write_traces_csv(file, traces);
}

std::vector<CarbonTrace> load_traces(const std::filesystem::path& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) throw std::runtime_error("trace csv: cannot read " + path.string());
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return read_traces_csv(buffer.str());
}

}  // namespace carbonedge::carbon
