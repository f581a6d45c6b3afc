// Quickstart: place a batch of edge AI applications carbon-aware across the
// Central-EU mesoscale region, and compare against the latency-first
// baseline.
//
//   $ ./quickstart
//
// Walks through the full public API surface: regions -> carbon service ->
// cluster -> placement service -> decisions.
#include <iostream>

#include "carbon/service.hpp"
#include "core/placement_service.hpp"
#include "core/policy.hpp"
#include "core/problem.hpp"
#include "geo/latency.hpp"
#include "geo/region.hpp"
#include "sim/app_model.hpp"
#include "sim/datacenter.hpp"
#include "sim/device.hpp"
#include "sim/workload.hpp"
#include "util/table.hpp"

using namespace carbonedge;

int main() {
  // 1. Pick a mesoscale region (Bern, Munich, Lyon, Graz, Milan) and
  //    synthesize a year of hourly carbon-intensity traces for its zones.
  const geo::Region region = geo::central_eu_region();
  carbon::CarbonIntensityService carbon_service;
  carbon_service.add_region(region);

  // 2. Build an edge cluster: one NVIDIA A2 server per city.
  sim::EdgeCluster cluster = sim::make_uniform_cluster(region, 1, sim::DeviceType::kA2);
  const geo::LatencyProvider latency(geo::LatencyModel{}, cluster.cities());

  // 3. A batch of arriving applications: one ResNet50 inference service per
  //    city, 5 req/s each, 20 ms round-trip SLO.
  std::vector<sim::Application> apps;
  for (std::size_t site = 0; site < cluster.size(); ++site) {
    sim::Application app;
    app.id = site;
    app.model = sim::ModelType::kResNet50;
    app.origin_site = site;
    app.rps = 5.0;
    app.latency_limit_rtt_ms = 20.0;
    apps.push_back(app);
  }

  // 4. Run the CarbonEdge placement (Algorithm 1) at noon on January 1st.
  //    The optimizer reads each site's mean forecast intensity Ī over the
  //    next 24 hours from one table, built once for this placement.
  const std::vector<double> intensity =
      core::site_mean_intensity(cluster, carbon_service, /*now=*/12, /*horizon=*/24);
  core::PlacementInput input;
  input.cluster = &cluster;
  input.latency = &latency;
  input.site_mean_intensity = &intensity;

  core::PlacementService service(core::PolicyConfig::carbon_edge());
  const core::PlacementResult result = service.place(input, apps);

  // 5. Inspect the decisions.
  const auto cities = cluster.cities();
  util::Table table({"App origin", "Placed at", "Zone intensity", "RTT (ms)", "g CO2/epoch"});
  table.set_title("CarbonEdge placement decisions");
  for (const core::PlacementDecision& d : result.decisions) {
    table.add_row({cities[apps[d.app].origin_site].name, cities[d.site].name,
                   util::format_fixed(intensity[d.site], 0),
                   util::format_fixed(d.rtt_ms, 2), util::format_fixed(d.carbon_g, 3)});
  }
  table.print(std::cout);
  std::cout << "Solved in " << util::format_fixed(result.solve_time_ms, 2) << " ms; "
            << result.rejected.size() << " rejected.\n"
            << "All apps land in the greenest feasible zone - that is the paper's point:\n"
            << "meaningful carbon-intensity differences exist at mesoscale distances.\n";
  return 0;
}
