// Carbon explorer: the paper's Section 3 mesoscale analysis as a CLI tool.
// For a region it prints each zone's generation mix, yearly intensity
// statistics, the pairwise latency matrix, and the best "shift partner"
// (largest intensity drop within the latency budget) per zone.
//
//   $ ./carbon_explorer                 # all four mesoscale regions
//   $ ./carbon_explorer florida 10      # one region, 10 ms one-way budget
#include <iostream>
#include <stdexcept>
#include <string>

#include <algorithm>
#include <cctype>

#include "carbon/caltime.hpp"
#include "carbon/service.hpp"
#include "carbon/trace.hpp"
#include "geo/coord.hpp"
#include "geo/latency.hpp"
#include "geo/region.hpp"
#include "geo/site.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

using namespace carbonedge;

namespace {

void explore(const geo::Region& region, double budget_one_way_ms) {
  carbon::CarbonIntensityService service;
  service.add_region(region);
  const auto cities = region.resolve();
  const geo::LatencyModel latency;
  const geo::BoundingBox box = region.bounds();

  std::cout << "\n### " << region.name << " (" << util::format_fixed(box.width_km(), 0)
            << "km x " << util::format_fixed(box.height_km(), 0) << "km)\n";

  util::Table zones({"Zone", "low-carbon share", "mean g/kWh", "min", "max", "daily swing"});
  for (const geo::City& city : cities) {
    const carbon::CarbonTrace& trace = service.trace(city.name);
    // Mean intra-day swing.
    std::array<double, 24> shape{};
    for (carbon::HourIndex h = 0; h < trace.hours(); ++h) {
      shape[carbon::hour_of_day(h)] += trace.at(h) / 365.0;
    }
    const double swing = *std::max_element(shape.begin(), shape.end()) -
                         *std::min_element(shape.begin(), shape.end());
    zones.add_row({city.name,
                   util::format_percent(trace.average_mix().low_carbon_share(), 0),
                   util::format_fixed(trace.yearly_mean(), 0),
                   util::format_fixed(trace.yearly_min(), 0),
                   util::format_fixed(trace.yearly_max(), 0), util::format_fixed(swing, 0)});
  }
  zones.print(std::cout);

  util::Table partners({"Zone", "best partner", "distance (km)", "one-way (ms)",
                        "intensity drop"});
  partners.set_title("Best shift partner within " +
                     util::format_fixed(budget_one_way_ms, 0) + " ms one-way");
  for (const geo::City& from : cities) {
    const double own = service.trace(from.name).yearly_mean();
    const geo::City* best = nullptr;
    double best_drop = 0.0;
    for (const geo::City& to : cities) {
      if (to.id == from.id) continue;
      if (latency.one_way_ms(from, to) > budget_one_way_ms) continue;
      const double drop = (own - service.trace(to.name).yearly_mean()) / std::max(own, 1e-9);
      if (drop > best_drop) {
        best_drop = drop;
        best = &to;
      }
    }
    if (best != nullptr) {
      partners.add_row({from.name, best->name,
                        util::format_fixed(geo::haversine_km(from.location, best->location), 0),
                        util::format_fixed(latency.one_way_ms(from, *best), 2),
                        util::format_percent(best_drop)});
    } else {
      partners.add_row({from.name, "(none within budget)", "-", "-", "-"});
    }
  }
  partners.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  double budget = 15.0;
  try {
    if (argc > 2) budget = util::parse_flag_double(argv[2]);
  } catch (const std::invalid_argument& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
  if (argc > 1) {
    const std::string name = argv[1];
    for (const geo::Region& region : geo::mesoscale_regions()) {
      std::string key = region.name;
      for (char& c : key) c = c == ' ' ? '_' : static_cast<char>(std::tolower(c));
      if (key == name) {
        explore(region, budget);
        return 0;
      }
    }
    std::cerr << "unknown region '" << name << "' (try: florida west_us italy central_eu)\n";
    return 1;
  }
  for (const geo::Region& region : geo::mesoscale_regions()) explore(region, budget);
  return 0;
}
