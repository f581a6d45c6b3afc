// Table 1: pairwise one-way network latency (ms) within Florida and within
// Central Europe. Paper: Florida pairs 1.86-7.2 ms; Central EU 3.99-16.2 ms.
//
// Pure geometry — there are no simulation cells to hand to the
// ScenarioRunner, so this bench is not grid-dispatched; the two region
// tables are built concurrently on lanes leased from the process budget and
// printed in order.
#include "bench_util.hpp"

#include "geo/latency.hpp"
#include "geo/region.hpp"
#include "util/parallelism.hpp"
#include "util/table.hpp"

using namespace carbonedge;

namespace {

struct RegionReport {
  util::Table table{{"Location"}};
  std::string takeaway;
};

RegionReport build_report(const geo::Region& region, const char* table_id) {
  const auto cities = region.resolve();
  const geo::LatencyModel model;
  std::vector<std::string> header = {"Location"};
  for (std::size_t j = 1; j < cities.size(); ++j) header.push_back(cities[j].name);
  RegionReport report;
  report.table = util::Table(header);
  report.table.set_title(std::string(table_id) + ": " + region.name + " one-way latency (ms)");
  double lo = 1e18;
  double hi = 0.0;
  for (std::size_t i = 0; i + 1 < cities.size(); ++i) {
    std::vector<std::string> row = {cities[i].name};
    for (std::size_t j = 1; j < cities.size(); ++j) {
      if (j <= i) {
        row.push_back("-");
        continue;
      }
      const double ms = model.one_way_ms(cities[i], cities[j]);
      lo = std::min(lo, ms);
      hi = std::max(hi, ms);
      row.push_back(util::format_fixed(ms, 2));
    }
    report.table.add_row(std::move(row));
  }
  report.takeaway = region.name + " one-way range: " + util::format_fixed(lo, 2) + " - " +
                    util::format_fixed(hi, 2) +
                    " ms (paper: 1.86-7.2 Florida, 3.99-16.2 Central EU)";
  return report;
}

}  // namespace

int main() {
  bench::print_header("Table 1", "One-way network latency within mesoscale regions");

  const std::vector<std::pair<geo::Region, const char*>> regions = {
      {geo::florida_region(), "Table 1a"}, {geo::central_eu_region(), "Table 1b"}};
  std::vector<RegionReport> reports(regions.size());
  util::parallel_for(util::global_budget(), regions.size(), [&](std::size_t i) {
    reports[i] = build_report(regions[i].first, regions[i].second);
  });
  for (const RegionReport& report : reports) {
    report.table.print(std::cout);
    bench::print_takeaway(report.takeaway);
  }
  return 0;
}
