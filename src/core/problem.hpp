// Placement problem construction: turns cluster state + a per-site table of
// mean forecast intensities Ī + latency matrix + a policy into a
// solver::AssignmentProblem (the Eq. 1-7 model after Algorithm 1's latency
// pre-filtering). The build queries no forecaster, and it computes each
// quantity once from what it depends on: per app the terms of each device
// type, per column the server's state, per pair only Ī scaling and the
// policy cost, appended straight into the problem. No pair keeps its
// physical quantities: pair_quantities recomputes them, with the build's
// own expressions, for the one pair each placed app ends up on.
//
// What does not change between epochs lives in a PlacementLayout, built
// once per (cluster, latency provider): the site-major server columns, each
// site's column range, and per origin site the in-band entries of its
// latency row, memoized by RTT limit. A SimulationEngine owns one for its
// lifetime, next to its PlacementService, whose BuiltProblem and solver
// workspace are reset in place by every build and solve. Each engine has its
// own, so a ScenarioRunner cell never sees another cell's layout or buffers.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "core/policy.hpp"
#include "geo/latency.hpp"
#include "sim/datacenter.hpp"
#include "sim/workload.hpp"
#include "solver/assignment.hpp"

namespace carbonedge::core {

/// One site of an origin's latency row that passes Eq. 2's filter.
struct InBandSite {
  std::uint32_t site = 0;
  double rtt_ms = 0.0;  // 2 x the row's one-way ms
};

/// The placement columns of one cluster under one latency provider. Column
/// j is servers()[j]; the columns are site-major, servers in site order, so
/// site s owns [site_first(s), site_first(s + 1)). The cluster's servers
/// must not be added, removed or moved while the layout is in use (their
/// state may change freely), and the cluster and provider must outlive it.
class PlacementLayout {
 public:
  /// Throws std::invalid_argument when `latency` does not cover exactly the
  /// cluster's sites.
  PlacementLayout(sim::EdgeCluster& cluster, const geo::LatencyProvider& latency);

  [[nodiscard]] std::size_t num_sites() const noexcept { return site_first_.size() - 1; }
  [[nodiscard]] std::span<const sim::EdgeCluster::ServerRef> servers() const noexcept {
    return servers_;
  }
  [[nodiscard]] std::size_t site_first(std::size_t site) const noexcept {
    return site_first_[site];
  }

  /// The sites of `origin`'s latency row within `limit_rtt_ms` (Eq. 2: RTT
  /// at most the limit + 1e-9), ascending, each with its RTT. Memoized per
  /// origin and recomputed whenever the limit differs from the one the memo
  /// was cut at, so apps with their own limits stay exact. The view is
  /// valid until the next call for the same origin. `origin` must be below
  /// num_sites().
  [[nodiscard]] std::span<const InBandSite> in_band(std::size_t origin, double limit_rtt_ms) {
    Band& band = bands_[origin];
    if (band.limit_rtt_ms == limit_rtt_ms) return band.sites;
    return cut_band(band, origin, limit_rtt_ms);
  }

  /// The RTT between `origin` and `site`: an in-band site's InBandSite::rtt_ms
  /// bit for bit, read from the latency row without touching the band memo.
  [[nodiscard]] double rtt_ms(std::size_t origin, std::size_t site) const noexcept {
    return latency_->rtt_ms(origin, site);
  }

 private:
  struct Band {
    // The limit `sites` was cut at; NaN, which equals no limit, until the
    // first cut.
    double limit_rtt_ms = std::numeric_limits<double>::quiet_NaN();
    std::vector<InBandSite> sites;
  };

  std::span<const InBandSite> cut_band(Band& band, std::size_t origin, double limit_rtt_ms);

  const geo::LatencyProvider* latency_;
  std::vector<sim::EdgeCluster::ServerRef> servers_;
  std::vector<std::size_t> site_first_;  // num_sites() + 1 entries
  std::vector<Band> bands_;              // per origin site
};

/// Inputs shared by every placement call of one epoch.
struct PlacementInput {
  PlacementLayout* layout = nullptr;  // the cluster's columns and latency bands
  const std::vector<double>* site_mean_intensity = nullptr;  // Ī per cluster site
  double epoch_hours = 1.0;  // energy integration window
};

/// The built problem, whose columns are the layout's servers(), and the
/// build's scratch; both are reset in place by every build.
struct BuiltProblem {
  solver::AssignmentProblem problem{0, 0, 1};
  // Per column, the server's device index, or sim::kDeviceCount for a
  // failed server.
  std::vector<std::uint8_t> column_device;
};

/// The physical quantities behind a pair's policy cost: per-epoch dynamic
/// energy (Wh), operational carbon (g) and network round trip (ms).
struct PairQuantities {
  double energy_wh = 0.0;
  double carbon_g = 0.0;
  double rtt_ms = 0.0;
};

/// The quantities of placing `app` on layout column `column`, bit for bit
/// the ones build_problem derives its costs from: energy_j x rps x
/// epoch_hours, energy / 1000 x Ī of the column's site, and the origin's
/// 2 x one-way entry for that site. Meaningful for a pair the build emitted
/// (an in-band, live server whose device runs the app's model); reads
/// neither the band memo nor the server's load.
[[nodiscard]] PairQuantities pair_quantities(const PlacementInput& input,
                                             const sim::Application& app, std::size_t column);

/// Build the assignment problem for a batch of applications under `policy`
/// into `built`, whose buffers are reset in place. Resource dimensions:
/// device memory (MB) and compute busy-fraction, taken from each server's
/// *remaining* capacity (incremental placement). Each app's in-band sites
/// come from the layout; one walk over the feasible pairs fills the problem,
/// and the multi-objective policy walks them once more first, for Eq. 8's
/// min/max. Throws std::invalid_argument, before touching `built`, on a
/// missing layout, a missing or wrong-size Ī table, or an app whose
/// origin_site is not a site of the layout.
void build_problem(const PlacementInput& input, std::span<const sim::Application> apps,
                   const PolicyConfig& policy, BuiltProblem& built);

/// build_problem into a fresh BuiltProblem.
[[nodiscard]] BuiltProblem build_problem(const PlacementInput& input,
                                         std::span<const sim::Application> apps,
                                         const PolicyConfig& policy);

}  // namespace carbonedge::core
