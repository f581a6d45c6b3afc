#include "core/placement_service.hpp"

#include <stdexcept>

#include "obs/clock.hpp"
#include "obs/span.hpp"

namespace carbonedge::core {

namespace {

obs::Phase& place_phase() {
  static obs::Phase phase("core.place");
  return phase;
}

}  // namespace

std::vector<double> site_mean_intensity(const sim::EdgeCluster& cluster,
                                        const carbon::CarbonIntensityService& carbon,
                                        carbon::HourIndex now, std::uint32_t horizon) {
  std::vector<double> table;
  for (const sim::EdgeDataCenter& site : cluster.sites()) {
    table.push_back(carbon.forecaster().mean_forecast(carbon.trace(site.zone()), now, horizon));
  }
  return table;
}

PlacementService::PlacementService(PolicyConfig policy, solver::AssignmentOptions options)
    : policy_(policy), options_(options) {}

PlacementResult PlacementService::place(const PlacementInput& input,
                                        std::span<const sim::Application> apps) {
  PlacementResult result;
  if (apps.empty()) return result;

  const obs::Span span(place_phase());
  // Solve timing through the sanctioned obs::Clock shim: telemetry only —
  // it feeds solve_time_ms and the span counters, never a decision.
  const std::uint64_t t0_ns = obs::now_ns();
  build_problem(input, apps, policy_, built_);
  solver::solve_auto(built_.problem, options_, workspace_, solution_);
  const std::uint64_t t1_ns = obs::now_ns();
  const solver::AssignmentSolution& solution = solution_;
  result.solve_time_ms = static_cast<double>(t1_ns - t0_ns) / 1e6;
  result.objective = solution.total_cost;
  result.solver_stats = solution.stats;

  // Commit: power on activated servers first (Eq. 5), then host.
  // evaluate() reports a server on only if it started on or received an
  // app, and power states have not changed since the build, so every server
  // switched on here carries load.
  const std::span<const sim::EdgeCluster::ServerRef> servers = input.layout->servers();
  for (std::size_t j = 0; j < servers.size(); ++j) {
    sim::EdgeServer& server = *servers[j].server;
    if (!server.powered_on() && !solution.powered_on.empty() && solution.powered_on[j]) {
      server.set_powered_on(true);
    }
  }

  result.decisions.reserve(apps.size());
  for (std::size_t i = 0; i < apps.size(); ++i) {
    const std::size_t p = solution.pairs[i];
    if (p == solver::kNoPair) {
      result.rejected.push_back(apps[i].id);
      continue;
    }
    const std::size_t j = built_.problem.server(p);
    const auto& ref = servers[j];
    if (!ref.server->can_host(apps[i].model, apps[i].rps)) {
      // Defense in depth: heuristic solutions are validated upstream, but a
      // placement that no longer fits (e.g. float-boundary drift) is
      // rejected rather than corrupting server state.
      result.rejected.push_back(apps[i].id);
      continue;
    }
    ref.server->host(sim::AppInstance{apps[i].id, apps[i].model, apps[i].rps});
    PlacementDecision decision;
    decision.app = apps[i].id;
    decision.batch_index = i;
    decision.site = ref.site;
    decision.server = ref.server->id();
    decision.column = j;
    const PairQuantities quantities = pair_quantities(input, apps[i], j);
    decision.rtt_ms = quantities.rtt_ms;
    decision.energy_wh = quantities.energy_wh;
    decision.carbon_g = quantities.carbon_g;
    result.decisions.push_back(decision);
  }
  return result;
}

}  // namespace carbonedge::core
