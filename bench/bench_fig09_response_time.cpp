// Figure 9: end-to-end response time per Florida site under Latency-aware
// vs CarbonEdge. Paper: increases stay below ~10.1 ms with a mean of
// ~6.61 ms — bounded because mesoscale distances are short.
#include "bench_util.hpp"
#include "core/placement_service.hpp"
#include "core/policy.hpp"
#include "core/problem.hpp"
#include "core/simulation.hpp"
#include "geo/region.hpp"
#include "sim/app_model.hpp"
#include "sim/datacenter.hpp"
#include "sim/device.hpp"
#include "sim/server.hpp"
#include "sim/workload.hpp"
#include "util/table.hpp"

using namespace carbonedge;

int main() {
  bench::print_header("Figure 9", "End-to-end response times across Florida sites");

  const geo::Region region = geo::florida_region();
  const auto service = bench::make_service(region);
  core::EdgeSimulation simulation(
      sim::make_uniform_cluster(region, 1, sim::DeviceType::kXeonCpu), service);

  const auto cities = simulation.pristine_cluster().cities();
  const auto& latency = simulation.latency();

  // Under Latency-aware each app stays at its origin: response = service
  // time only. Under CarbonEdge apps move to the greenest feasible zone;
  // response adds the origin->host RTT. One-batch placement per policy
  // recovers the per-origin detail the figure plots.
  struct PerSite {
    double latency_aware_ms = 0.0;
    double carbon_edge_ms = 0.0;
  };
  std::vector<PerSite> per_site(cities.size());

  for (const core::PolicyConfig policy :
       {core::PolicyConfig::latency_aware(), core::PolicyConfig::carbon_edge()}) {
    auto cluster = simulation.pristine_cluster();
    core::PlacementService placement(policy);
    const std::vector<double> intensity =
        core::site_mean_intensity(cluster, service, /*now=*/12, /*horizon=*/1);
    core::PlacementLayout layout(cluster, latency);
    core::PlacementInput input;
    input.layout = &layout;
    input.site_mean_intensity = &intensity;
    std::vector<sim::Application> apps;
    for (std::size_t s = 0; s < cities.size(); ++s) {
      sim::Application app;
      app.id = s;
      app.model = sim::ModelType::kSciCpu;
      app.origin_site = s;
      app.rps = 5.0;
      app.latency_limit_rtt_ms = 25.0;
      apps.push_back(app);
    }
    const core::PlacementResult result = placement.place(input, apps);
    for (const core::PlacementDecision& d : result.decisions) {
      const auto origin = static_cast<std::size_t>(d.app);
      sim::EdgeServer& host = cluster.sites()[d.site].servers()[0];
      const double response = d.rtt_ms + host.mean_service_ms(sim::ModelType::kSciCpu);
      if (policy.kind == core::PolicyKind::kLatencyAware) {
        per_site[origin].latency_aware_ms = response;
      } else {
        per_site[origin].carbon_edge_ms = response;
      }
    }
  }

  util::Table table({"Origin site", "Latency-aware (ms)", "CarbonEdge (ms)", "Increase (ms)"});
  table.set_title("Figure 9: response time per origin site");
  double total_increase = 0.0;
  double max_increase = 0.0;
  for (std::size_t s = 0; s < cities.size(); ++s) {
    const double inc = per_site[s].carbon_edge_ms - per_site[s].latency_aware_ms;
    total_increase += inc;
    max_increase = std::max(max_increase, inc);
    table.add_row(cities[s].name,
                  {per_site[s].latency_aware_ms, per_site[s].carbon_edge_ms, inc}, 2);
  }
  table.print(std::cout);
  bench::print_takeaway("Mean increase " +
                        util::format_fixed(total_increase / cities.size(), 2) +
                        " ms, max " + util::format_fixed(max_increase, 2) +
                        " ms (paper: mean 6.61 ms, max <10.1 ms).");
  return 0;
}
