#include "geo/latency_io.hpp"

#include <fstream>
#include <map>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "util/csv.hpp"

namespace carbonedge::geo {

void write_latency_csv(std::ostream& out, std::span<const City> cities,
                       const LatencyModel& model) {
  util::CsvWriter writer(out);
  writer.header({"from", "to", "distance_km", "one_way_ms", "rtt_ms"});
  for (std::size_t i = 0; i < cities.size(); ++i) {
    for (std::size_t j = i + 1; j < cities.size(); ++j) {
      const double one_way = model.one_way_ms(cities[i], cities[j]);
      writer.row({cities[i].name, cities[j].name,
                  util::format_double(haversine_km(cities[i].location, cities[j].location), 1),
                  util::format_double(one_way, 4), util::format_double(2.0 * one_way, 4)});
    }
  }
}

LatencyProvider read_latency_csv(const std::string& text, std::span<const City> cities) {
  const util::CsvDocument doc = util::parse_csv(text);
  const std::size_t from_col = doc.column("from");
  const std::size_t to_col = doc.column("to");
  const std::size_t ms_col = doc.column("one_way_ms");
  if (from_col == util::CsvDocument::npos || to_col == util::CsvDocument::npos ||
      ms_col == util::CsvDocument::npos) {
    throw std::runtime_error("latency csv: missing from/to/one_way_ms columns");
  }
  std::map<std::pair<std::string, std::string>, double> pairs;
  for (std::size_t r = 0; r < doc.rows.size(); ++r) {
    const auto& row = doc.rows[r];
    const double ms =
        util::parse_nonnegative(row[ms_col], "latency csv", util::data_line(r), "one_way_ms");
    pairs[{std::min(row[from_col], row[to_col]), std::max(row[from_col], row[to_col])}] = ms;
  }
  std::vector<double> values(cities.size() * cities.size(), 0.0);
  for (std::size_t i = 0; i < cities.size(); ++i) {
    for (std::size_t j = i + 1; j < cities.size(); ++j) {
      const auto key = std::pair{std::min(cities[i].name, cities[j].name),
                                 std::max(cities[i].name, cities[j].name)};
      const auto it = pairs.find(key);
      if (it == pairs.end()) {
        throw std::runtime_error("latency csv: missing pair " + cities[i].name + " - " +
                                 cities[j].name);
      }
      values[i * cities.size() + j] = it->second;
      values[j * cities.size() + i] = it->second;
    }
  }
  return LatencyProvider(cities.size(), std::move(values));
}

void save_latency(const std::filesystem::path& path, std::span<const City> cities,
                  const LatencyModel& model) {
  std::ofstream file(path, std::ios::binary);
  if (!file) throw std::runtime_error("latency csv: cannot write " + path.string());
  write_latency_csv(file, cities, model);
}

LatencyProvider load_latency(const std::filesystem::path& path, std::span<const City> cities) {
  std::ifstream file(path, std::ios::binary);
  if (!file) throw std::runtime_error("latency csv: cannot read " + path.string());
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return read_latency_csv(buffer.str(), cities);
}

}  // namespace carbonedge::geo
