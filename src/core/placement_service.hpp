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
#include "solver/decompose.hpp"

namespace carbonedge::core {

struct PlacementDecision {
  sim::AppId app = sim::kNoApp;
  std::size_t batch_index = 0;  // the app's position in the placed batch
  std::size_t site = 0;
  std::uint32_t server = 0;  // server id within the site
  std::size_t column = 0;    // the server's column in the PlacementLayout
  double rtt_ms = 0.0;
  double energy_wh = 0.0;  // expected per-epoch dynamic energy
  double carbon_g = 0.0;   // expected per-epoch operational carbon (Ī-based)
};

/// decisions and rejected partition the batch, each in batch order.
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

/// Serial: one caller at a time. The built problem, the solver workspace
/// and the solution are kept between calls and reset in place, so a
/// service that places every epoch (one per SimulationEngine) stops paying
/// for their set-up once they have grown.
class PlacementService {
 public:
  explicit PlacementService(PolicyConfig policy, solver::AssignmentOptions options = {});

  /// Run Algorithm 1 on one batch and commit the outcome to the layout's
  /// cluster (hosts the applications, powers on activated servers).
  PlacementResult place(const PlacementInput& input, std::span<const sim::Application> apps);

 private:
  PolicyConfig policy_;
  solver::AssignmentOptions options_;
  BuiltProblem built_;
  solver::ShardWorkspace workspace_;
  solver::AssignmentSolution solution_;
};

}  // namespace carbonedge::core
