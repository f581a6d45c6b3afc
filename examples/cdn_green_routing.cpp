// CDN green routing scenario (paper Section 6.3): a continental CDN hosts
// edge AI services across many metro PoPs; CarbonEdge shifts load to
// low-carbon zones within the latency budget. Runs a one-month trace-driven
// simulation and reports savings, latency overhead, and the load-weighted
// intensity distribution.
//
//   $ ./cdn_green_routing            # Europe (default), 20 ms RTT budget
//   $ ./cdn_green_routing us 30      # US, 30 ms RTT budget
#include <iostream>
#include <stdexcept>
#include <string>

#include "carbon/service.hpp"
#include "core/policy.hpp"
#include "core/simulation.hpp"
#include "geo/coord.hpp"
#include "geo/region.hpp"
#include "sim/datacenter.hpp"
#include "sim/device.hpp"
#include "util/flags.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace carbonedge;

int main(int argc, char** argv) {
  const std::string where = argc > 1 ? argv[1] : "eu";
  double rtt_budget = 20.0;
  try {
    if (argc > 2) rtt_budget = util::parse_flag_double(argv[2]);
  } catch (const std::invalid_argument& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
  const geo::Continent continent =
      where == "us" ? geo::Continent::kNorthAmerica : geo::Continent::kEurope;

  const geo::Region region = geo::cdn_region(continent, 35);
  std::cout << "CDN green routing: " << region.name << ", " << region.cities.size()
            << " PoPs, RTT budget " << rtt_budget << " ms, one month\n";

  carbon::CarbonIntensityService carbon_service;
  carbon_service.add_region(region);
  core::EdgeSimulation simulation(
      sim::make_uniform_cluster(region, 1, sim::DeviceType::kA2), carbon_service);

  core::SimulationConfig config;
  config.epochs = 31 * 24 / 3;
  config.epoch_hours = 3.0;
  config.workload.arrivals_per_site = 0.25;
  config.workload.mean_lifetime_epochs = 16.0;
  config.workload.model_weights = {1.0, 1.0, 1.0, 0.0};
  config.workload.latency_limit_rtt_ms = rtt_budget;

  const auto results =
      core::run_policies(simulation, config,
                         {core::PolicyConfig::latency_aware(), core::PolicyConfig::carbon_edge()});

  util::Table table({"Policy", "Carbon (kg)", "Mean RTT (ms)", "Placed", "Rejected"});
  for (std::size_t p = 0; p < 2; ++p) {
    table.add_row({p == 0 ? "Latency-aware" : "CarbonEdge",
                   util::format_fixed(results[p].telemetry.total_carbon_kg(), 2),
                   util::format_fixed(results[p].telemetry.mean_rtt_ms(), 2),
                   std::to_string(results[p].apps_placed),
                   std::to_string(results[p].apps_rejected)});
  }
  table.print(std::cout);
  std::cout << "Carbon saving: "
            << util::format_percent(core::carbon_saving(results[0], results[1]))
            << ", RTT increase: "
            << util::format_fixed(core::latency_increase_ms(results[0], results[1]), 2)
            << " ms\n";

  // Load-weighted intensity CDF (paper Figure 11c).
  const util::EmpiricalCdf base(results[0].telemetry.load_intensity_sample());
  const util::EmpiricalCdf green(results[1].telemetry.load_intensity_sample());
  util::Table cdf({"Intensity (g/kWh)", "Latency-aware CDF", "CarbonEdge CDF"});
  cdf.set_title("Where the load ran");
  for (double x = 100.0; x <= 700.0; x += 100.0) {
    cdf.add_row(util::format_fixed(x, 0), {base.at(x), green.at(x)}, 2);
  }
  cdf.print(std::cout);
  return 0;
}
