// Placement service — Algorithm 1 (CarbonEdge incremental placement).
//
// Per batch of arriving applications: compute application-server latencies,
// filter infeasible servers, read server telemetry (capacity, power state,
// base power) and the epoch's per-site table of mean forecast intensity Ī
// (not the carbon service), solve the Eq. 7 optimization, and commit.
#pragma once

#include <vector>

#include "carbon/caltime.hpp"
#include "carbon/service.hpp"
#include "core/policy.hpp"
#include "core/problem.hpp"
#include "sim/datacenter.hpp"
#include "sim/server.hpp"
#include "sim/workload.hpp"
#include "solver/assignment.hpp"

namespace carbonedge::core {

struct PlacementDecision {
  sim::AppId app = sim::kNoApp;
  std::size_t site = 0;
  std::uint32_t server = 0;  // server id within the site
  double rtt_ms = 0.0;
  double energy_wh = 0.0;  // expected per-epoch dynamic energy
  double carbon_g = 0.0;   // expected per-epoch operational carbon (Ī-based)
};

struct PlacementResult {
  std::vector<PlacementDecision> decisions;
  std::vector<sim::AppId> rejected;     // no feasible server
  double objective = 0.0;
  double solve_time_ms = 0.0;           // Section 6.5 decision latency
  /// Per-shard solve telemetry: how many connected components the batch
  /// split into and which path (exact MILP / heuristic) solved each.
  solver::SolveStats solver_stats;
};

/// The PlacementInput::site_mean_intensity table for a caller outside the
/// engine: per site, forecaster().mean_forecast(trace(zone), now, horizon),
/// the call SimulationEngine makes once per site per epoch.
[[nodiscard]] std::vector<double> site_mean_intensity(
    const sim::EdgeCluster& cluster, const carbon::CarbonIntensityService& carbon,
    carbon::HourIndex now, std::uint32_t horizon);

class PlacementService {
 public:
  explicit PlacementService(PolicyConfig policy, solver::AssignmentOptions options = {});

  /// Run Algorithm 1 on one batch and commit the outcome to the cluster
  /// (hosts the applications, powers on activated servers).
  PlacementResult place(const PlacementInput& input, std::span<const sim::Application> apps);

 private:
  PolicyConfig policy_;
  solver::AssignmentOptions options_;
};

}  // namespace carbonedge::core
