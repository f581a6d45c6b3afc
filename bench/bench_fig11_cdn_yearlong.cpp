// Figure 11: year-long CDN-scale evaluation for the US and Europe — carbon
// savings vs Latency-aware (a), round-trip latency increases (b), and the
// CDF of load-weighted carbon intensity (c). Paper: 49.5% (US) and 67.8%
// (EU) savings at <11 ms RTT increase; CarbonEdge shifts load mass toward
// low-intensity zones; isolated sites (e.g. Salt Lake City) keep their load.
//
// Expressed as a ScenarioGrid (continent x policy, four year-long cells)
// dispatched across all cores by the ScenarioRunner; tables are rebuilt from
// the row-major outcome order, byte-identical to the former serial loops.
#include "bench_util.hpp"
#include "core/policy.hpp"
#include "core/simulation.hpp"
#include "geo/coord.hpp"
#include "geo/region.hpp"
#include "runner/scenario_grid.hpp"

#include "runner/scenario_runner.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace carbonedge;

int main(int argc, char** argv) {
  bench::print_header("Figure 11", "Year-long CDN evaluation (US and Europe)");
  // --store: resume the four year-long cells from the persistent artifact
  // store (and publish fresh ones into it); traces load from its L2 tier.
  const auto sweep_store = bench::init_store(argc, argv);
  const std::string metrics_path = bench::init_metrics(argc, argv);

  const std::vector<geo::Continent> continents = {geo::Continent::kNorthAmerica,
                                                  geo::Continent::kEurope};
  const std::vector<core::PolicyConfig> policies = {core::PolicyConfig::latency_aware(),
                                                    core::PolicyConfig::carbon_edge()};
  std::vector<geo::Region> regions;
  for (const geo::Continent continent : continents) {
    regions.push_back(geo::cdn_region(continent, 40));
  }

  runner::ScenarioGrid grid(bench::apply_smoke_epochs(bench::cdn_config()));
  grid.with_regions(regions).with_policies(policies);
  const auto outcomes =
      runner::ScenarioRunner(runner::ScenarioRunnerOptions{.sweep_store = sweep_store})
          .run(grid);

  util::Table summary({"Continent", "Sites", "Latency-aware (kg)", "CarbonEdge (kg)",
                       "Saving", "dRTT (ms)"});
  summary.set_title("Figure 11a/b: savings and latency increases (20 ms RTT limit)");

  struct LoadCdf {
    std::string name;
    util::EmpiricalCdf baseline;
    util::EmpiricalCdf carbonedge;
  };
  std::vector<LoadCdf> cdfs;

  for (std::size_t c = 0; c < continents.size(); ++c) {
    // Row-major expansion with policies innermost: [LA, CE] per continent.
    const core::SimulationResult& base = outcomes[c * policies.size()].result;
    const core::SimulationResult& ce = outcomes[c * policies.size() + 1].result;
    const geo::Region& region = regions[c];
    summary.add_row({continents[c] == geo::Continent::kNorthAmerica ? "US" : "Europe",
                     std::to_string(region.cities.size()),
                     util::format_fixed(base.telemetry.total_carbon_kg(), 1),
                     util::format_fixed(ce.telemetry.total_carbon_kg(), 1),
                     util::format_percent(core::carbon_saving(base, ce)),
                     util::format_fixed(core::latency_increase_ms(base, ce), 1)});
    cdfs.push_back({continents[c] == geo::Continent::kNorthAmerica ? "US" : "EU",
                    util::EmpiricalCdf(base.telemetry.load_intensity_sample()),
                    util::EmpiricalCdf(ce.telemetry.load_intensity_sample())});

    // Per-site load retention: sites far from greener neighbors keep their
    // load (the paper's Salt Lake City example). Count such sites and name
    // the largest one.
    const auto base_apps = base.telemetry.apps_by_site(0, base.telemetry.size());
    const auto ce_apps = ce.telemetry.apps_by_site(0, ce.telemetry.size());
    const auto cities = region.resolve();
    std::size_t retained = 0;
    std::string example;
    for (std::size_t s = 0; s < cities.size(); ++s) {
      if (base_apps[s] > 0.0 && ce_apps[s] >= 0.9 * base_apps[s]) {
        ++retained;
        if (example.empty()) example = cities[s].name;
      }
    }
    bench::print_takeaway(std::to_string(retained) + " of " + std::to_string(cities.size()) +
                          " sites keep >=90% of their baseline load" +
                          (example.empty() ? "" : " (e.g. " + example + ")") +
                          " - sites without greener neighbors do not offload (paper: Salt "
                          "Lake City).");
  }
  summary.print(std::cout);

  util::Table cdf_table({"Intensity (g/kWh)", "LA (US)", "CE (US)", "LA (EU)", "CE (EU)"});
  cdf_table.set_title("Figure 11c: CDF of load-weighted carbon intensity");
  for (double x = 0.0; x <= 800.0; x += 100.0) {
    cdf_table.add_row(util::format_fixed(x, 0),
                      {cdfs[0].baseline.at(x), cdfs[0].carbonedge.at(x), cdfs[1].baseline.at(x),
                       cdfs[1].carbonedge.at(x)},
                      2);
  }
  cdf_table.print(std::cout);
  bench::print_takeaway(
      "CarbonEdge shifts the load distribution toward low-carbon zones; Europe saves more "
      "than the US (paper: 67.8% vs 49.5%).");
  bench::print_store_stats(sweep_store);
  return bench::write_metrics_json(metrics_path) ? 0 : 1;
}
