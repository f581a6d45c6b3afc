#include "geo/catalog_io.hpp"

#include <charconv>
#include <cmath>
#include <stdexcept>
#include <string>
#include <unordered_set>

namespace carbonedge::geo {
namespace {

[[noreturn]] void fail(std::size_t line_no, const std::string& what) {
  throw std::runtime_error("sites tsv line " + std::to_string(line_no) + ": " +
                           what);
}

double parse_double(std::string_view field, std::size_t line_no,
                    const char* label) {
  double value = 0.0;
  const auto [ptr, ec] =
      std::from_chars(field.data(), field.data() + field.size(), value);
  if (ec != std::errc{} || ptr != field.data() + field.size()) {
    fail(line_no, std::string("malformed ") + label + " '" +
                      std::string(field) + "'");
  }
  // from_chars reads "nan" and "inf", which every range check below lets
  // through.
  if (!std::isfinite(value)) {
    fail(line_no, std::string("non-finite ") + label + " '" +
                      std::string(field) + "'");
  }
  return value;
}

std::vector<std::string_view> split_tabs(std::string_view line) {
  std::vector<std::string_view> fields;
  std::size_t start = 0;
  while (true) {
    const std::size_t tab = line.find('\t', start);
    if (tab == std::string_view::npos) {
      fields.push_back(line.substr(start));
      return fields;
    }
    fields.push_back(line.substr(start, tab - start));
    start = tab + 1;
  }
}

}  // namespace

std::vector<City> parse_sites_tsv(std::string_view text) {
  std::vector<City> sites;
  // deterministic: only membership queries, never iterated
  std::unordered_set<std::string> seen_names;
  std::size_t line_no = 0;
  while (!text.empty()) {
    ++line_no;
    const std::size_t eol = text.find('\n');
    std::string_view line =
        eol == std::string_view::npos ? text : text.substr(0, eol);
    text = eol == std::string_view::npos ? std::string_view{}
                                         : text.substr(eol + 1);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty() || line.front() == '#') continue;

    const std::vector<std::string_view> fields = split_tabs(line);
    if (fields.size() != 6) {
      fail(line_no, "expected 6 tab-separated columns, got " +
                        std::to_string(fields.size()));
    }
    City c;
    c.id = static_cast<SiteId>(sites.size());
    c.name = std::string(fields[0]);
    c.country = std::string(fields[1]);
    if (c.name.empty()) fail(line_no, "empty site name");
    if (c.country.size() != 2) {
      fail(line_no, "country must be ISO-3166 alpha-2, got '" +
                        std::string(fields[1]) + "'");
    }
    if (fields[2] == "NA") {
      c.continent = Continent::kNorthAmerica;
    } else if (fields[2] == "EU") {
      c.continent = Continent::kEurope;
    } else {
      fail(line_no,
           "unknown continent '" + std::string(fields[2]) + "' (want NA|EU)");
    }
    c.location.lat_deg = parse_double(fields[3], line_no, "latitude");
    c.location.lon_deg = parse_double(fields[4], line_no, "longitude");
    c.population_k = parse_double(fields[5], line_no, "population");
    if (c.location.lat_deg < -90.0 || c.location.lat_deg > 90.0) {
      fail(line_no, "latitude out of range [-90, 90]");
    }
    if (c.location.lon_deg < -180.0 || c.location.lon_deg > 180.0) {
      fail(line_no, "longitude out of range [-180, 180]");
    }
    if (c.population_k < 0.0) fail(line_no, "negative population");
    if (!seen_names.insert(c.name).second) {
      fail(line_no, "duplicate site name '" + c.name + "'");
    }
    sites.push_back(std::move(c));
  }
  return sites;
}

}  // namespace carbonedge::geo
