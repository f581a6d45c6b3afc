// Placement problem construction: turns cluster state + a per-site table of
// mean forecast intensities Ī + latency matrix + a policy into a
// solver::AssignmentProblem (the Eq. 1-7 model after Algorithm 1's latency
// pre-filtering). The build queries no forecaster, and it computes each
// quantity once from what it depends on: per app the terms of each device
// type, per column the server's state, per pair only Ī scaling and the
// policy cost, appended straight into the problem.
#pragma once

#include <span>
#include <vector>

#include "core/policy.hpp"
#include "geo/latency.hpp"
#include "sim/datacenter.hpp"
#include "sim/workload.hpp"
#include "solver/assignment.hpp"

namespace carbonedge::core {

/// Inputs shared by every placement call of one epoch.
struct PlacementInput {
  sim::EdgeCluster* cluster = nullptr;
  const geo::LatencyProvider* latency = nullptr;  // site x site one-way ms
  const std::vector<double>* site_mean_intensity = nullptr;  // Ī per cluster site
  double epoch_hours = 1.0;  // energy integration window
};

/// The built problem plus the physical quantities behind the policy costs,
/// kept for accounting and for the multi-objective normalization.
struct BuiltProblem {
  solver::AssignmentProblem problem{0, 0, 1};
  std::vector<sim::EdgeCluster::ServerRef> servers;  // column order
  // Per-pair physical quantities, indexed like the problem's pairs:
  // per-epoch dynamic energy (Wh), operational carbon (g), and network
  // round-trip (ms).
  std::vector<double> energy_wh;
  std::vector<double> carbon_g;
  std::vector<double> rtt_ms;
};

/// Build the assignment problem for a batch of applications under `policy`.
/// Resource dimensions: device memory (MB) and compute busy-fraction, taken
/// from each server's *remaining* capacity (incremental placement). One
/// walk over the feasible pairs fills the problem and the per-pair vectors;
/// the multi-objective policy walks them once more first, for Eq. 8's
/// min/max. Throws std::invalid_argument on a missing input or a wrong-size
/// Ī table.
[[nodiscard]] BuiltProblem build_problem(const PlacementInput& input,
                                         std::span<const sim::Application> apps,
                                         const PolicyConfig& policy);

}  // namespace carbonedge::core
