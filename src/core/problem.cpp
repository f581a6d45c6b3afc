#include "core/problem.hpp"

#include <array>
#include <cstdint>
#include <stdexcept>

#include "util/stats.hpp"

namespace carbonedge::core {
namespace {

/// The per-pair terms that depend only on (app, device type), evaluated
/// once per app rather than once per pair.
struct DeviceTerms {
  bool supported = false;   // the app's model runs on this device
  double energy_wh = 0.0;   // dynamic energy over the epoch
  double energy_kwh = 0.0;  // energy_wh / 1000, times Ī gives grams
  double memory_mb = 0.0;
  double compute = 0.0;     // busy-fraction at the app's rate
};

using AppTerms = std::array<DeviceTerms, sim::kDeviceCount>;

AppTerms app_terms(const sim::Application& app, double epoch_hours) {
  AppTerms terms{};
  for (const sim::DeviceType device : sim::kAllDevices) {
    const sim::ProfileResult prof = sim::profile_of(app.model, device);
    if (!prof.supported) continue;
    const double watts = prof.profile.energy_j * app.rps;  // dynamic draw
    const double energy = watts * epoch_hours;              // Wh over the epoch
    terms[static_cast<std::size_t>(device)] = {
        true, energy, energy / 1000.0, prof.profile.memory_mb,
        sim::compute_demand_per_rps(app.model, device) * app.rps};
  }
  return terms;
}

/// A running min/max that keeps the first minimum and the last maximum in
/// visit order; {0, 0} while empty.
struct Range {
  double lo = 0.0;
  double hi = 0.0;
  bool empty = true;

  void add(double value) {
    if (empty || value < lo) lo = value;
    if (empty || !(value < hi)) hi = value;
    empty = false;
  }
};

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

  // all_servers() is site-major, so site s owns the columns
  // [site_first[s], site_first[s+1]) and visiting an app's candidate sites
  // in ascending order yields its servers ascending. A banded provider lists
  // only the origin's neighborhood (every other site is +inf, exactly what
  // the Eq. 2 filter drops), so the build touches the band rather than
  // every server.
  const std::size_t num_sites = input.cluster->sites().size();
  std::vector<std::size_t> site_first(num_sites + 1, 0);
  for (const auto& ref : built.servers) ++site_first[ref.site + 1];
  for (std::size_t s = 0; s < num_sites; ++s) site_first[s + 1] += site_first[s];

  // One read of each column's server: its remaining capacity (2 resources:
  // memory MB, compute), power state, and device, or kFailed for a crashed
  // server, which takes no load.
  constexpr std::uint8_t kFailed = sim::kDeviceCount;
  std::vector<std::uint8_t> column_device(num_servers);
  solver::AssignmentProblem problem(num_apps, num_servers, 2);
  for (std::size_t j = 0; j < num_servers; ++j) {
    const sim::EdgeServer& server = *built.servers[j].server;
    column_device[j] = server.failed() ? kFailed : static_cast<std::uint8_t>(server.device());
    problem.set_capacity(j, 0, server.memory_free_mb());
    problem.set_capacity(j, 1, server.compute_free());
    problem.set_initially_on(j, server.powered_on());
  }

  // Visits app i's sites that pass the Eq. 2 filter as (site, RTT ms),
  // walking the origin's row as (site, one-way ms) together.
  const auto for_each_site = [&](std::size_t i, auto&& visit) {
    const sim::Application& app = apps[i];
    const std::span<const std::uint32_t> row_sites = input.latency->neighbors(app.origin_site);
    const std::span<const double> row_ms = input.latency->row_ms(app.origin_site);
    for (std::size_t k = 0; k < row_sites.size(); ++k) {
      const double rtt = 2.0 * row_ms[k];
      if (rtt > app.latency_limit_rtt_ms + 1e-9) continue;  // Eq. 2 filter
      visit(row_sites[k], rtt);
    }
  };
  // Visits the feasible (latency + model-support) pairs in (app, server)
  // order as (app, column, site, RTT ms, the app's terms on that device).
  const auto for_each_pair = [&](auto&& visit) {
    for (std::size_t i = 0; i < num_apps; ++i) {
      const AppTerms terms = app_terms(apps[i], input.epoch_hours);
      for_each_site(i, [&](std::size_t s, double rtt) {
        for (std::size_t j = site_first[s]; j < site_first[s + 1]; ++j) {
          if (column_device[j] == kFailed) continue;
          const DeviceTerms& t = terms[column_device[j]];
          if (t.supported) visit(i, j, s, rtt, t);
        }
      });
    }
  };

  // Storage for every in-band server: an upper bound on the pair count.
  std::size_t in_band = 0;
  for (std::size_t i = 0; i < num_apps; ++i) {
    for_each_site(i, [&](std::size_t s, double) { in_band += site_first[s + 1] - site_first[s]; });
  }
  problem.reserve(in_band);
  built.energy_wh.reserve(in_band);
  built.carbon_g.reserve(in_band);
  built.rtt_ms.reserve(in_band);

  // Only the Eq. 8 blend reads the min/max over the feasible pairs' energy
  // and carbon, so only it walks the pairs twice.
  Range energy_range;
  Range carbon_range;
  if (policy.kind == PolicyKind::kMultiObjective) {
    for_each_pair([&](std::size_t, std::size_t, std::size_t s, double, const DeviceTerms& t) {
      energy_range.add(t.energy_wh);
      carbon_range.add(t.energy_kwh * intensity[s]);
    });
  }
  const auto blend = [&](double energy, double carbon) {
    const double e = util::minmax_normalize(energy, energy_range.lo, energy_range.hi);
    const double c = util::minmax_normalize(carbon, carbon_range.lo, carbon_range.hi);
    return policy.alpha * e + (1.0 - policy.alpha) * c;
  };

  // Each pair goes straight into the problem with its physical quantities
  // and its policy-specific objective.
  for_each_pair([&](std::size_t i, std::size_t j, std::size_t s, double rtt,
                    const DeviceTerms& t) {
    const double carbon = t.energy_kwh * intensity[s];
    built.energy_wh.push_back(t.energy_wh);
    built.carbon_g.push_back(carbon);
    built.rtt_ms.push_back(rtt);
    double cost = 0.0;
    switch (policy.kind) {
      case PolicyKind::kLatencyAware:
        cost = rtt;
        break;
      case PolicyKind::kEnergyAware:
        cost = t.energy_wh;
        break;
      case PolicyKind::kIntensityAware:
        cost = intensity[s];
        break;
      case PolicyKind::kCarbonEdge:
        cost = carbon;
        break;
      case PolicyKind::kMultiObjective:
        cost = blend(t.energy_wh, carbon);
        break;
    }
    problem.add_pair(i, j, cost, {t.memory_mb, t.compute});
  });

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
      case PolicyKind::kMultiObjective:
        activation = blend(energy, carbon);
        break;
    }
    problem.set_activation_cost(j, activation);
  }

  built.problem = std::move(problem);
  return built;
}

}  // namespace carbonedge::core
