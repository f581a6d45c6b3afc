#include "core/problem.hpp"

#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>

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

/// Dynamic energy (Wh) over the epoch: the draw energy_j x rps (W) times
/// the epoch's hours. The build and pair_quantities both evaluate it here.
double epoch_energy_wh(const sim::ProfileResult& prof, double rps, double epoch_hours) {
  return prof.profile.energy_j * rps * epoch_hours;
}

AppTerms app_terms(const sim::Application& app, double epoch_hours) {
  AppTerms terms{};
  for (const sim::DeviceType device : sim::kAllDevices) {
    const sim::ProfileResult prof = sim::profile_of(app.model, device);
    if (!prof.supported) continue;
    const double energy = epoch_energy_wh(prof, app.rps, epoch_hours);
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

PlacementLayout::PlacementLayout(sim::EdgeCluster& cluster, const geo::LatencyProvider& latency)
    : latency_(&latency),
      servers_(cluster.all_servers()),
      site_first_(cluster.size() + 1, 0),
      bands_(cluster.size()) {
  if (latency.size() != cluster.size()) {
    throw std::invalid_argument("placement layout: latency covers " +
                                std::to_string(latency.size()) + " sites, the cluster " +
                                std::to_string(cluster.size()));
  }
  // all_servers() is site-major, so counting each site's servers and
  // summing gives every site's first column.
  for (const auto& ref : servers_) ++site_first_[ref.site + 1];
  for (std::size_t s = 0; s < cluster.size(); ++s) site_first_[s + 1] += site_first_[s];
}

std::span<const InBandSite> PlacementLayout::cut_band(Band& band, std::size_t origin,
                                                      double limit_rtt_ms) {
  // A banded provider lists only the origin's neighborhood (every other
  // site is +inf, exactly what the Eq. 2 filter drops), so the row walk
  // touches the band rather than every site.
  band.sites.clear();
  const std::span<const std::uint32_t> row_sites = latency_->neighbors(origin);
  const std::span<const double> row_ms = latency_->row_ms(origin);
  for (std::size_t k = 0; k < row_sites.size(); ++k) {
    const double rtt = 2.0 * row_ms[k];
    if (rtt > limit_rtt_ms + 1e-9) continue;  // Eq. 2 filter
    band.sites.push_back({row_sites[k], rtt});
  }
  band.limit_rtt_ms = limit_rtt_ms;
  return band.sites;
}

PairQuantities pair_quantities(const PlacementInput& input, const sim::Application& app,
                               std::size_t column) {
  const sim::EdgeCluster::ServerRef& ref = input.layout->servers()[column];
  const double energy =
      epoch_energy_wh(sim::profile_of(app.model, ref.server->device()), app.rps, input.epoch_hours);
  return {energy, energy / 1000.0 * (*input.site_mean_intensity)[ref.site],
          input.layout->rtt_ms(app.origin_site, ref.site)};
}

BuiltProblem build_problem(const PlacementInput& input, std::span<const sim::Application> apps,
                           const PolicyConfig& policy) {
  BuiltProblem built;
  build_problem(input, apps, policy, built);
  return built;
}

void build_problem(const PlacementInput& input, std::span<const sim::Application> apps,
                   const PolicyConfig& policy, BuiltProblem& built) {
  if (input.layout == nullptr || input.site_mean_intensity == nullptr ||
      input.site_mean_intensity->size() != input.layout->num_sites()) {
    throw std::invalid_argument("placement input needs a layout and site intensities");
  }
  PlacementLayout& layout = *input.layout;
  for (const sim::Application& app : apps) {
    if (app.origin_site >= layout.num_sites()) {
      throw std::invalid_argument("placement input: origin_site " +
                                  std::to_string(app.origin_site) + " out of range");
    }
  }
  // Ī of server column j is intensity[servers[j].site].
  const std::vector<double>& intensity = *input.site_mean_intensity;
  const std::span<const sim::EdgeCluster::ServerRef> servers = layout.servers();
  const std::size_t num_apps = apps.size();
  const std::size_t num_servers = servers.size();

  // One read of each column's server: its remaining capacity (2 resources:
  // memory MB, compute), power state, and device, or kFailed for a crashed
  // server, which takes no load.
  constexpr std::uint8_t kFailed = sim::kDeviceCount;
  std::vector<std::uint8_t>& column_device = built.column_device;
  column_device.resize(num_servers);
  solver::AssignmentProblem& problem = built.problem;
  problem.reset(num_apps, num_servers, 2);
  for (std::size_t j = 0; j < num_servers; ++j) {
    const sim::EdgeServer& server = *servers[j].server;
    column_device[j] = server.failed() ? kFailed : static_cast<std::uint8_t>(server.device());
    problem.set_capacity(j, 0, server.memory_free_mb());
    problem.set_capacity(j, 1, server.compute_free());
    problem.set_initially_on(j, server.powered_on());
  }

  // Visits the feasible (latency + model-support) pairs in (app, server)
  // order as (app, column, site, RTT ms, the app's terms on that device).
  // An app's in-band sites ascend, so visiting their column ranges in order
  // yields its servers ascending.
  const auto for_each_pair = [&](auto&& visit) {
    for (std::size_t i = 0; i < num_apps; ++i) {
      const AppTerms terms = app_terms(apps[i], input.epoch_hours);
      for (const InBandSite& band :
           layout.in_band(apps[i].origin_site, apps[i].latency_limit_rtt_ms)) {
        for (std::size_t j = layout.site_first(band.site); j < layout.site_first(band.site + 1);
             ++j) {
          if (column_device[j] == kFailed) continue;
          const DeviceTerms& t = terms[column_device[j]];
          if (t.supported) visit(i, j, band.site, band.rtt_ms, t);
        }
      }
    }
  };

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

  // Each pair goes straight into the problem with its policy-specific
  // objective.
  for_each_pair([&](std::size_t i, std::size_t j, std::size_t s, double rtt,
                    const DeviceTerms& t) {
    const double carbon = t.energy_kwh * intensity[s];
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
    const sim::EdgeServer& server = *servers[j].server;
    const double energy =
        server.powered_on() ? 0.0 : server.config().base_power_w * input.epoch_hours;  // Wh
    const double carbon = energy / 1000.0 * intensity[servers[j].site];              // g
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
}

}  // namespace carbonedge::core
