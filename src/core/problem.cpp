#include "core/problem.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/stats.hpp"

namespace carbonedge::core {
namespace {

/// Min/max over the feasible pairs' values (for Eq. 8 normalization).
std::pair<double, double> value_range(const std::vector<double>& values) {
  if (values.empty()) return {0.0, 0.0};
  const auto [lo, hi] = std::ranges::minmax_element(values);
  return {*lo, *hi};
}

}  // namespace

BuiltProblem build_problem(const PlacementInput& input, std::span<const sim::Application> apps,
                           const PolicyConfig& policy) {
  if (input.cluster == nullptr || input.latency == nullptr ||
      input.site_mean_intensity == nullptr ||
      input.site_mean_intensity->size() != input.cluster->size()) {
    throw std::invalid_argument("placement input needs cluster, latency, and site intensities");
  }
  // Ī of server column j is intensity[servers[j].site].
  const std::vector<double>& intensity = *input.site_mean_intensity;

  BuiltProblem built;
  built.servers = input.cluster->all_servers();
  const std::size_t num_apps = apps.size();
  const std::size_t num_servers = built.servers.size();

  // Feasible (latency + model-support) pairs in (app, server) order, with
  // their physical quantities and resource demands. all_servers() is
  // site-major, so site s owns the columns [site_first[s], site_first[s+1])
  // and visiting an app's candidate sites in ascending order yields its
  // servers ascending. A banded provider lists only the origin's
  // neighborhood (every other site is +inf, exactly what the Eq. 2 filter
  // drops), so the build touches the band rather than every server.
  const std::size_t num_sites = input.cluster->sites().size();
  std::vector<std::size_t> site_first(num_sites + 1, 0);
  for (const auto& ref : built.servers) ++site_first[ref.site + 1];
  for (std::size_t s = 0; s < num_sites; ++s) site_first[s + 1] += site_first[s];
  std::vector<std::size_t> pair_app;
  std::vector<std::size_t> pair_server;
  std::vector<double> pair_demand;  // memory MB, compute per pair
  for (std::size_t i = 0; i < num_apps; ++i) {
    const sim::Application& app = apps[i];
    // The origin's row, walked as (site, one-way ms) together.
    const std::span<const std::uint32_t> row_sites = input.latency->neighbors(app.origin_site);
    const std::span<const double> row_ms = input.latency->row_ms(app.origin_site);
    for (std::size_t k = 0; k < row_sites.size(); ++k) {
      const std::size_t s = row_sites[k];
      const double rtt = 2.0 * row_ms[k];
      if (rtt > app.latency_limit_rtt_ms + 1e-9) continue;  // Eq. 2 filter
      for (std::size_t j = site_first[s]; j < site_first[s + 1]; ++j) {
        const sim::EdgeServer& server = *built.servers[j].server;
        if (server.failed()) continue;  // crashed servers take no load
        const sim::ProfileResult prof = sim::profile_of(app.model, server.device());
        if (!prof.supported) continue;
        const double watts = prof.profile.energy_j * app.rps;  // dynamic draw
        const double energy = watts * input.epoch_hours;       // Wh over the epoch
        built.energy_wh.push_back(energy);
        built.carbon_g.push_back(energy / 1000.0 * intensity[s]);
        built.rtt_ms.push_back(rtt);
        pair_app.push_back(i);
        pair_server.push_back(j);
        pair_demand.push_back(prof.profile.memory_mb);
        pair_demand.push_back(sim::compute_demand_per_rps(app.model, server.device()) * app.rps);
      }
    }
  }

  // Assemble the assignment problem: 2 resources (memory MB, compute).
  solver::AssignmentProblem problem(num_apps, num_servers, 2);
  for (std::size_t j = 0; j < num_servers; ++j) {
    const sim::EdgeServer& server = *built.servers[j].server;
    problem.set_capacity(j, 0, server.memory_free_mb());
    problem.set_capacity(j, 1, server.compute_free());
    problem.set_initially_on(j, server.powered_on());
  }

  // Policy-specific objective. Only the Eq. 8 blend reads the value ranges.
  const bool blend = policy.kind == PolicyKind::kMultiObjective;
  const auto [energy_lo, energy_hi] = blend ? value_range(built.energy_wh) : std::pair{0.0, 0.0};
  const auto [carbon_lo, carbon_hi] = blend ? value_range(built.carbon_g) : std::pair{0.0, 0.0};
  for (std::size_t p = 0; p < pair_app.size(); ++p) {
    const std::size_t j = pair_server[p];
    double cost = 0.0;
    switch (policy.kind) {
      case PolicyKind::kLatencyAware:
        cost = built.rtt_ms[p];
        break;
      case PolicyKind::kEnergyAware:
        cost = built.energy_wh[p];
        break;
      case PolicyKind::kIntensityAware:
        cost = intensity[built.servers[j].site];
        break;
      case PolicyKind::kCarbonEdge:
        cost = built.carbon_g[p];
        break;
      case PolicyKind::kMultiObjective: {
        const double e = util::minmax_normalize(built.energy_wh[p], energy_lo, energy_hi);
        const double c = util::minmax_normalize(built.carbon_g[p], carbon_lo, carbon_hi);
        cost = policy.alpha * e + (1.0 - policy.alpha) * c;
        break;
      }
    }
    problem.add_pair(pair_app[p], j, cost, {pair_demand[2 * p], pair_demand[2 * p + 1]});
  }
  // Activation costs in the policy's own units (Eq. 6's second term for
  // CarbonEdge; energy for Energy-aware; normalized blend for Eq. 8): an
  // initially-off server's base power over the epoch.
  for (std::size_t j = 0; j < num_servers; ++j) {
    const sim::EdgeServer& server = *built.servers[j].server;
    const double energy =
        server.powered_on() ? 0.0 : server.config().base_power_w * input.epoch_hours;  // Wh
    const double carbon = energy / 1000.0 * intensity[built.servers[j].site];        // g
    double activation = 0.0;
    switch (policy.kind) {
      case PolicyKind::kLatencyAware:
        activation = 0.0;  // latency policy is indifferent to power state
        break;
      case PolicyKind::kEnergyAware:
        activation = energy;
        break;
      case PolicyKind::kIntensityAware:
        activation = 0.0;  // greedy on intensity only
        break;
      case PolicyKind::kCarbonEdge:
        activation = carbon;
        break;
      case PolicyKind::kMultiObjective: {
        const double e = util::minmax_normalize(energy, energy_lo, energy_hi);
        const double c = util::minmax_normalize(carbon, carbon_lo, carbon_hi);
        activation = policy.alpha * e + (1.0 - policy.alpha) * c;
        break;
      }
    }
    problem.set_activation_cost(j, activation);
  }

  built.problem = std::move(problem);
  return built;
}

}  // namespace carbonedge::core
