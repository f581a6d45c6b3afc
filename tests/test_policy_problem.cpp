#include "core/problem.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <span>
#include <utility>
#include <bit>
#include <cstdint>
#include <set>
#include <string>
#include <tuple>

#include "core/placement_service.hpp"
#include "core/policy.hpp"
#include "util/random.hpp"
#include "util/stats.hpp"

namespace carbonedge::core {
namespace {

struct Fixture {
  sim::EdgeCluster cluster;
  carbon::CarbonIntensityService carbon;
  geo::LatencyProvider latency;
  PlacementLayout layout;

  explicit Fixture(sim::DeviceType device = sim::DeviceType::kA2)
      : cluster(sim::make_uniform_cluster(geo::florida_region(), 1, device)),
        latency(geo::LatencyModel{}, cluster.cities()),
        layout(cluster, latency) {
    carbon.add_region(geo::florida_region());
  }

  std::vector<double> intensity;  // Ī per site, refilled by input()

  PlacementInput input(carbon::HourIndex now = 12, std::uint32_t horizon = 1) {
    intensity = site_mean_intensity(cluster, carbon, now, horizon);
    PlacementInput in;
    in.layout = &layout;
    in.site_mean_intensity = &intensity;
    return in;
  }
};

sim::Application app_at(std::size_t site, double rtt_limit = 20.0,
                        sim::ModelType model = sim::ModelType::kResNet50) {
  sim::Application app;
  app.id = 100 + site;
  app.model = model;
  app.origin_site = site;
  app.rps = 5.0;
  app.latency_limit_rtt_ms = rtt_limit;
  return app;
}

TEST(Policy, NamesAndDescribe) {
  EXPECT_STREQ(to_string(PolicyKind::kCarbonEdge), "CarbonEdge");
  EXPECT_STREQ(to_string(PolicyKind::kLatencyAware), "Latency-aware");
  EXPECT_EQ(describe(PolicyConfig::multi_objective(0.25)), "Multi-objective(alpha=0.25)");
  EXPECT_EQ(describe(PolicyConfig::carbon_edge()), "CarbonEdge");
}

TEST(BuildProblem, RequiresAllInputs) {
  Fixture f;
  const std::vector<sim::Application> apps = {app_at(0)};
  PlacementInput no_layout = f.input();
  no_layout.layout = nullptr;
  EXPECT_THROW(build_problem(no_layout, apps, PolicyConfig::carbon_edge()),
               std::invalid_argument);
}

TEST(BuildProblem, RejectsOriginOutsideTheLayout) {
  Fixture f;
  std::vector<sim::Application> apps = {app_at(0), app_at(1)};
  apps[1].origin_site = f.cluster.size() + 3;
  BuiltProblem built;
  EXPECT_THROW(build_problem(f.input(), apps, PolicyConfig::carbon_edge(), built),
               std::invalid_argument);
  EXPECT_EQ(built.problem.num_apps(), 0u);  // thrown before the build touched it
  apps[1].origin_site = f.cluster.size();
  EXPECT_THROW((void)build_problem(f.input(), apps, PolicyConfig::carbon_edge()),
               std::invalid_argument);
}

TEST(PlacementLayout, RejectsLatencyOverOtherSites) {
  sim::EdgeCluster cluster = sim::make_uniform_cluster(geo::florida_region(), 1,
                                                       sim::DeviceType::kA2);
  const std::vector<geo::City> cities = cluster.cities();
  const geo::LatencyProvider fewer(geo::LatencyModel{},
                                   std::span<const geo::City>(cities).first(2));
  EXPECT_THROW(PlacementLayout(cluster, fewer), std::invalid_argument);
  std::vector<geo::City> more = cities;
  more.push_back(cities.front());
  const geo::LatencyProvider wider(geo::LatencyModel{}, more);
  EXPECT_THROW(PlacementLayout(cluster, wider), std::invalid_argument);
  const geo::LatencyProvider exact(geo::LatencyModel{}, cities);
  const PlacementLayout layout(cluster, exact);
  EXPECT_EQ(layout.num_sites(), cluster.size());
  EXPECT_EQ(layout.servers().size(), cluster.all_servers().size());
}

TEST(BuildProblem, RejectsIntensityTableOfWrongSize) {
  Fixture f;
  const std::vector<sim::Application> apps = {app_at(0)};
  const std::vector<double> table = site_mean_intensity(f.cluster, f.carbon, 12, 1);
  ASSERT_EQ(table.size(), f.cluster.size());
  PlacementInput in = f.input();
  in.site_mean_intensity = nullptr;
  EXPECT_THROW(build_problem(in, apps, PolicyConfig::carbon_edge()), std::invalid_argument);
  const std::vector<double> empty;
  in.site_mean_intensity = &empty;
  EXPECT_THROW(build_problem(in, apps, PolicyConfig::carbon_edge()), std::invalid_argument);
  const std::vector<double> shorter(table.begin(), table.end() - 1);
  in.site_mean_intensity = &shorter;
  EXPECT_THROW(build_problem(in, apps, PolicyConfig::carbon_edge()), std::invalid_argument);
  std::vector<double> longer = table;
  longer.push_back(100.0);
  in.site_mean_intensity = &longer;
  EXPECT_THROW(build_problem(in, apps, PolicyConfig::carbon_edge()), std::invalid_argument);
  in.site_mean_intensity = &table;
  EXPECT_NO_THROW((void)build_problem(in, apps, PolicyConfig::carbon_edge()));
}

TEST(BuildProblem, ReadsMeanIntensityFromTheTableBySite) {
  Fixture f;
  const std::vector<sim::Application> apps = {app_at(0, 40.0)};
  PlacementInput in = f.input();
  std::vector<double> table(f.cluster.size());
  for (std::size_t s = 0; s < table.size(); ++s) table[s] = 100.0 + 10.0 * static_cast<double>(s);
  in.site_mean_intensity = &table;
  const BuiltProblem carbon = build_problem(in, apps, PolicyConfig::carbon_edge());
  const BuiltProblem intensity = build_problem(in, apps, PolicyConfig::intensity_aware());
  ASSERT_GT(carbon.problem.num_pairs(), 1u);
  for (std::size_t j = 0; j < f.layout.servers().size(); ++j) {
    const std::size_t p = carbon.problem.find_pair(0, j);
    if (p == solver::kNoPair) continue;
    const double site_ci = table[f.layout.servers()[j].site];
    const PairQuantities q = pair_quantities(in, apps[0], j);
    EXPECT_EQ(q.carbon_g, q.energy_wh / 1000.0 * site_ci) << j;
    EXPECT_EQ(carbon.problem.cost(p), q.carbon_g) << j;
    EXPECT_EQ(intensity.problem.cost(p), site_ci) << j;
  }
}

TEST(SiteMeanIntensity, MatchesTheForecasterPerSite) {
  Fixture f;
  for (const char* name : {"oracle", "diurnal"}) {
    f.carbon.set_forecaster(carbon::make_forecaster(name));
    for (const std::uint32_t horizon : {0u, 1u, 24u}) {
      const std::vector<double> table = site_mean_intensity(f.cluster, f.carbon, 100, horizon);
      ASSERT_EQ(table.size(), f.cluster.size());
      for (std::size_t s = 0; s < table.size(); ++s) {
        const carbon::CarbonTrace& trace = f.carbon.trace(f.cluster.sites()[s].zone());
        EXPECT_EQ(table[s], f.carbon.forecaster().mean_forecast(trace, 100, horizon))
            << name << " site " << s << " h=" << horizon;
      }
    }
  }
}

TEST(BuildProblem, DimensionsMatchClusterAndBatch) {
  Fixture f;
  const std::vector<sim::Application> apps = {app_at(0), app_at(1)};
  const BuiltProblem built = build_problem(f.input(), apps, PolicyConfig::carbon_edge());
  EXPECT_EQ(built.problem.num_apps(), 2u);
  EXPECT_EQ(built.problem.num_servers(), 5u);
  EXPECT_EQ(built.problem.num_resources(), 2u);
  EXPECT_EQ(f.layout.servers().size(), 5u);
}

TEST(BuildProblem, LatencyFilterMarksDistantServersInfeasible) {
  Fixture f;
  // Very tight SLO: only the origin site qualifies.
  const std::vector<sim::Application> apps = {app_at(1, /*rtt_limit=*/1.0)};
  const BuiltProblem built = build_problem(f.input(), apps, PolicyConfig::carbon_edge());
  for (std::size_t j = 0; j < 5; ++j) {
    if (j == 1) {
      EXPECT_NE(built.problem.find_pair(0, j), solver::kNoPair);
    } else {
      EXPECT_EQ(built.problem.find_pair(0, j), solver::kNoPair);
    }
  }
  EXPECT_EQ(built.problem.num_pairs(), 1u);
}

TEST(BuildProblem, UnsupportedModelsAreInfeasible) {
  Fixture f(sim::DeviceType::kA2);
  const std::vector<sim::Application> apps = {
      app_at(0, 20.0, sim::ModelType::kSciCpu)};  // CPU app on GPU-only cluster
  const BuiltProblem built = build_problem(f.input(), apps, PolicyConfig::carbon_edge());
  for (std::size_t j = 0; j < 5; ++j) EXPECT_EQ(built.problem.find_pair(0, j), solver::kNoPair);
}

TEST(BuildProblem, CarbonCostIsEnergyTimesIntensity) {
  Fixture f;
  const std::vector<sim::Application> apps = {app_at(0, 40.0)};
  const PlacementInput in = f.input(7);
  const BuiltProblem built = build_problem(in, apps, PolicyConfig::carbon_edge());
  for (std::size_t j = 0; j < 5; ++j) {
    const std::size_t p = built.problem.find_pair(0, j);
    if (p == solver::kNoPair) continue;
    const double site_ci = f.intensity[f.layout.servers()[j].site];
    const PairQuantities q = pair_quantities(in, apps[0], j);
    EXPECT_NEAR(q.carbon_g, q.energy_wh / 1000.0 * site_ci, 1e-9);
    EXPECT_NEAR(built.problem.cost(p), q.carbon_g, 1e-12);
  }
}

TEST(BuildProblem, MeanIntensityUsesForecastWindow) {
  Fixture f;
  const std::vector<sim::Application> apps = {app_at(0, 40.0)};
  const PlacementInput in = f.input(100, 24);
  const BuiltProblem carbon = build_problem(in, apps, PolicyConfig::carbon_edge());
  const BuiltProblem intensity = build_problem(in, apps, PolicyConfig::intensity_aware());
  const auto& trace = f.carbon.trace("Jacksonville");
  ASSERT_EQ(f.layout.servers()[0].site, 0u);  // column 0 sits at Jacksonville
  const std::size_t p = carbon.problem.find_pair(0, 0);
  ASSERT_NE(p, solver::kNoPair);
  EXPECT_NEAR(intensity.problem.cost(p), trace.mean_over(100, 24), 1e-9);
  const PairQuantities q = pair_quantities(in, apps[0], 0);
  EXPECT_NEAR(q.carbon_g, q.energy_wh / 1000.0 * trace.mean_over(100, 24), 1e-9);
  EXPECT_EQ(carbon.problem.cost(p), q.carbon_g);
}

TEST(BuildProblem, PolicyObjectivesDiffer) {
  Fixture f;
  const std::vector<sim::Application> apps = {app_at(2, 40.0)};
  const PlacementInput in = f.input();
  const BuiltProblem latency = build_problem(in, apps, PolicyConfig::latency_aware());
  const BuiltProblem energy = build_problem(in, apps, PolicyConfig::energy_aware());
  const BuiltProblem intensity = build_problem(in, apps, PolicyConfig::intensity_aware());
  // The policy changes costs only: all three share one pair layout.
  ASSERT_EQ(energy.problem.num_pairs(), latency.problem.num_pairs());
  ASSERT_EQ(intensity.problem.num_pairs(), latency.problem.num_pairs());
  for (std::size_t j = 0; j < 5; ++j) {
    const std::size_t p = latency.problem.find_pair(0, j);
    if (p == solver::kNoPair) continue;
    const PairQuantities q = pair_quantities(in, apps[0], j);
    EXPECT_NEAR(latency.problem.cost(p), q.rtt_ms, 1e-12);
    EXPECT_NEAR(energy.problem.cost(p), q.energy_wh, 1e-12);
    EXPECT_NEAR(intensity.problem.cost(p), f.intensity[f.layout.servers()[j].site], 1e-12);
  }
}

TEST(BuildProblem, MultiObjectiveEndpointsMatchPureObjectives) {
  Fixture f;
  const std::vector<sim::Application> apps = {app_at(0, 40.0), app_at(3, 40.0)};
  const PlacementInput in = f.input();
  const BuiltProblem alpha0 = build_problem(in, apps, PolicyConfig::multi_objective(0.0));
  const BuiltProblem alpha1 = build_problem(in, apps, PolicyConfig::multi_objective(1.0));
  // alpha=0 costs are normalized carbon: ordering matches carbon ordering.
  // alpha only changes costs, so both problems share one pair layout.
  ASSERT_EQ(alpha1.problem.num_pairs(), alpha0.problem.num_pairs());
  for (std::size_t i = 0; i < apps.size(); ++i) {
    for (std::size_t j = 0; j < 5; ++j) {
      for (std::size_t k = j + 1; k < 5; ++k) {
        const std::size_t pj = alpha0.problem.find_pair(i, j);
        const std::size_t pk = alpha0.problem.find_pair(i, k);
        if (pj == solver::kNoPair || pk == solver::kNoPair) continue;
        const PairQuantities qj = pair_quantities(in, apps[i], j);
        const PairQuantities qk = pair_quantities(in, apps[i], k);
        const bool carbon_less = qj.carbon_g < qk.carbon_g;
        const bool cost_less = alpha0.problem.cost(pj) < alpha0.problem.cost(pk);
        EXPECT_EQ(carbon_less, cost_less);
        const bool energy_less = qj.energy_wh < qk.energy_wh;
        const bool cost1_less = alpha1.problem.cost(pj) < alpha1.problem.cost(pk);
        EXPECT_EQ(energy_less, cost1_less);
      }
    }
  }
}

TEST(BuildProblem, ActivationCostsOnlyForOffServers) {
  Fixture f;
  f.cluster.sites()[2].servers()[0].set_powered_on(false);
  const std::vector<sim::Application> apps = {app_at(0, 40.0)};
  const BuiltProblem built = build_problem(f.input(), apps, PolicyConfig::carbon_edge());
  for (std::size_t j = 0; j < 5; ++j) {
    if (j == 2) {
      EXPECT_GT(built.problem.activation_cost(j), 0.0);
      EXPECT_FALSE(built.problem.initially_on(j));
    } else {
      EXPECT_DOUBLE_EQ(built.problem.activation_cost(j), 0.0);
      EXPECT_TRUE(built.problem.initially_on(j));
    }
  }
}

TEST(BuildProblem, CapacitiesReflectCurrentLoad) {
  Fixture f;
  f.cluster.sites()[0].servers()[0].host({9, sim::ModelType::kYoloV4, 10.0});
  const std::vector<sim::Application> apps = {app_at(0, 40.0)};
  const BuiltProblem built = build_problem(f.input(), apps, PolicyConfig::carbon_edge());
  EXPECT_LT(built.problem.capacity(0, 0), built.problem.capacity(1, 0));  // memory
  EXPECT_LT(built.problem.capacity(0, 1), built.problem.capacity(1, 1));  // compute
}

TEST(BuildProblem, EnergyScalesWithEpochHours) {
  Fixture f;
  const std::vector<sim::Application> apps = {app_at(0, 40.0)};
  PlacementInput in1 = f.input();
  PlacementInput in2 = f.input();
  in2.epoch_hours = 2.0;
  const BuiltProblem b1 = build_problem(in1, apps, PolicyConfig::energy_aware());
  const BuiltProblem b2 = build_problem(in2, apps, PolicyConfig::energy_aware());
  const std::size_t p = b1.problem.find_pair(0, 0);
  ASSERT_NE(p, solver::kNoPair);
  ASSERT_EQ(b2.problem.find_pair(0, 0), p);
  EXPECT_NEAR(pair_quantities(in2, apps[0], 0).energy_wh,
              2.0 * pair_quantities(in1, apps[0], 0).energy_wh, 1e-9);
}

// What a build must produce, with the columns it was built over.
struct FreshBuild {
  std::vector<sim::EdgeCluster::ServerRef> servers;
  solver::AssignmentProblem problem{0, 0, 1};
  std::vector<double> energy_wh;
  std::vector<double> carbon_g;
  std::vector<double> rtt_ms;
};

// The two-pass build_problem kept as a reference: it collects every
// feasible pair's (app, server, demands) into temporaries, then derives the
// Eq. 8 ranges with minmax_element and appends the pairs in a second pass.
// The production build must reproduce its output bit for bit.
FreshBuild reference_build_problem(sim::EdgeCluster& cluster, const geo::LatencyProvider& latency,
                                   const std::vector<double>& intensity, double epoch_hours,
                                   std::span<const sim::Application> apps,
                                   const PolicyConfig& policy) {
  FreshBuild built;
  built.servers = cluster.all_servers();
  const std::size_t num_apps = apps.size();
  const std::size_t num_servers = built.servers.size();
  const std::size_t num_sites = cluster.sites().size();
  std::vector<std::size_t> site_first(num_sites + 1, 0);
  for (const auto& ref : built.servers) ++site_first[ref.site + 1];
  for (std::size_t s = 0; s < num_sites; ++s) site_first[s + 1] += site_first[s];
  std::vector<std::size_t> pair_app;
  std::vector<std::size_t> pair_server;
  std::vector<double> pair_demand;
  for (std::size_t i = 0; i < num_apps; ++i) {
    const sim::Application& app = apps[i];
    const std::span<const std::uint32_t> row_sites = latency.neighbors(app.origin_site);
    const std::span<const double> row_ms = latency.row_ms(app.origin_site);
    for (std::size_t k = 0; k < row_sites.size(); ++k) {
      const std::size_t s = row_sites[k];
      const double rtt = 2.0 * row_ms[k];
      if (rtt > app.latency_limit_rtt_ms + 1e-9) continue;
      for (std::size_t j = site_first[s]; j < site_first[s + 1]; ++j) {
        const sim::EdgeServer& server = *built.servers[j].server;
        if (server.failed()) continue;
        const sim::ProfileResult prof = sim::profile_of(app.model, server.device());
        if (!prof.supported) continue;
        const double watts = prof.profile.energy_j * app.rps;
        const double energy = watts * epoch_hours;
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
  solver::AssignmentProblem problem(num_apps, num_servers, 2);
  for (std::size_t j = 0; j < num_servers; ++j) {
    const sim::EdgeServer& server = *built.servers[j].server;
    problem.set_capacity(j, 0, server.memory_free_mb());
    problem.set_capacity(j, 1, server.compute_free());
    problem.set_initially_on(j, server.powered_on());
  }
  const auto range = [](const std::vector<double>& values) {
    if (values.empty()) return std::pair{0.0, 0.0};
    const auto [lo, hi] = std::ranges::minmax_element(values);
    return std::pair{*lo, *hi};
  };
  const bool blend = policy.kind == PolicyKind::kMultiObjective;
  const auto [energy_lo, energy_hi] = blend ? range(built.energy_wh) : std::pair{0.0, 0.0};
  const auto [carbon_lo, carbon_hi] = blend ? range(built.carbon_g) : std::pair{0.0, 0.0};
  const auto blended = [&](double energy, double carbon) {
    const double e = util::minmax_normalize(energy, energy_lo, energy_hi);
    const double c = util::minmax_normalize(carbon, carbon_lo, carbon_hi);
    return policy.alpha * e + (1.0 - policy.alpha) * c;
  };
  for (std::size_t p = 0; p < pair_app.size(); ++p) {
    const std::size_t j = pair_server[p];
    double cost = 0.0;
    switch (policy.kind) {
      case PolicyKind::kLatencyAware: cost = built.rtt_ms[p]; break;
      case PolicyKind::kEnergyAware: cost = built.energy_wh[p]; break;
      case PolicyKind::kIntensityAware: cost = intensity[built.servers[j].site]; break;
      case PolicyKind::kCarbonEdge: cost = built.carbon_g[p]; break;
      case PolicyKind::kMultiObjective: cost = blended(built.energy_wh[p], built.carbon_g[p]); break;
    }
    problem.add_pair(pair_app[p], j, cost, {pair_demand[2 * p], pair_demand[2 * p + 1]});
  }
  for (std::size_t j = 0; j < num_servers; ++j) {
    const sim::EdgeServer& server = *built.servers[j].server;
    const double energy =
        server.powered_on() ? 0.0 : server.config().base_power_w * epoch_hours;
    const double carbon = energy / 1000.0 * intensity[built.servers[j].site];
    double activation = 0.0;
    switch (policy.kind) {
      case PolicyKind::kLatencyAware: activation = 0.0; break;
      case PolicyKind::kEnergyAware: activation = energy; break;
      case PolicyKind::kIntensityAware: activation = 0.0; break;
      case PolicyKind::kCarbonEdge: activation = carbon; break;
      case PolicyKind::kMultiObjective: activation = blended(energy, carbon); break;
    }
    problem.set_activation_cost(j, activation);
  }
  built.problem = std::move(problem);
  return built;
}

void expect_same_bits(const std::vector<double>& got, const std::vector<double>& want,
                      const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t p = 0; p < got.size(); ++p) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[p]), std::bit_cast<std::uint64_t>(want[p]))
        << what << " " << p;
  }
}

// `got`, built from `input` and `apps`, against `want`, bit for bit: the
// problem, the columns, and each pair's quantities through pair_quantities.
void expect_same_build(const BuiltProblem& got, const PlacementInput& input,
                       std::span<const sim::Application> apps, const FreshBuild& want) {
  const std::span<const sim::EdgeCluster::ServerRef> servers = input.layout->servers();
  const solver::AssignmentProblem& g = got.problem;
  const solver::AssignmentProblem& w = want.problem;
  ASSERT_EQ(g.num_apps(), w.num_apps());
  ASSERT_EQ(g.num_servers(), w.num_servers());
  ASSERT_EQ(g.num_resources(), w.num_resources());
  ASSERT_EQ(g.num_pairs(), w.num_pairs());
  ASSERT_EQ(servers.size(), want.servers.size());
  for (std::size_t j = 0; j < g.num_servers(); ++j) {
    EXPECT_EQ(servers[j].site, want.servers[j].site) << j;
    EXPECT_EQ(servers[j].server, want.servers[j].server) << j;
    for (std::size_t k = 0; k < g.num_resources(); ++k) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(g.capacity(j, k)),
                std::bit_cast<std::uint64_t>(w.capacity(j, k)))
          << "capacity " << j << "/" << k;
    }
    EXPECT_EQ(std::bit_cast<std::uint64_t>(g.activation_cost(j)),
              std::bit_cast<std::uint64_t>(w.activation_cost(j)))
        << "activation " << j;
    EXPECT_EQ(g.initially_on(j), w.initially_on(j)) << j;
  }
  std::vector<double> energy_wh;
  std::vector<double> carbon_g;
  std::vector<double> rtt_ms;
  for (std::size_t i = 0; i < g.num_apps(); ++i) {
    EXPECT_EQ(g.row_begin(i), w.row_begin(i)) << i;
    EXPECT_EQ(g.row_end(i), w.row_end(i)) << i;
    for (const std::uint32_t j : g.row_servers(i)) {
      const PairQuantities q = pair_quantities(input, apps[i], j);
      energy_wh.push_back(q.energy_wh);
      carbon_g.push_back(q.carbon_g);
      rtt_ms.push_back(q.rtt_ms);
    }
  }
  for (std::size_t p = 0; p < g.num_pairs(); ++p) {
    EXPECT_EQ(g.server(p), w.server(p)) << p;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(g.cost(p)), std::bit_cast<std::uint64_t>(w.cost(p)))
        << "cost " << p;
    for (std::size_t k = 0; k < g.num_resources(); ++k) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(g.demand(p, k)),
                std::bit_cast<std::uint64_t>(w.demand(p, k)))
          << "demand " << p << "/" << k;
    }
  }
  expect_same_bits(energy_wh, want.energy_wh, "energy_wh");
  expect_same_bits(carbon_g, want.carbon_g, "carbon_g");
  expect_same_bits(rtt_ms, want.rtt_ms, "rtt_ms");
}

// Every server state build_problem reads, mixed at random: 0-3 servers of
// any device per site (so some (model, device) pairs are unsupported),
// initially-off, failed and partly loaded servers.
sim::EdgeCluster random_cluster(const geo::Region& region, util::Rng& rng) {
  sim::EdgeCluster cluster(region);
  sim::AppId next_id = 1;
  for (sim::EdgeDataCenter& dc : cluster.sites()) {
    const std::size_t count = rng.uniform_index(4);
    for (std::size_t k = 0; k < count; ++k) {
      sim::ServerConfig config;
      config.name = dc.zone() + "-" + std::to_string(k);
      config.device = sim::kAllDevices[rng.uniform_index(sim::kDeviceCount)];
      config.initially_on = !rng.bernoulli(0.25);
      sim::EdgeServer& server = dc.add_server(config);
      if (server.powered_on() && rng.bernoulli(0.4)) {
        const sim::ModelType model = sim::kAllModels[rng.uniform_index(sim::kModelCount)];
        if (server.can_host(model, 2.0)) server.host({next_id++, model, 2.0});
      }
      if (rng.bernoulli(0.15)) server.set_failed(true);
    }
  }
  return cluster;
}

TEST(BuildProblem, MatchesTwoPassReference) {
  const std::vector<PolicyConfig> policies = {
      PolicyConfig::latency_aware(),       PolicyConfig::energy_aware(),
      PolicyConfig::intensity_aware(),     PolicyConfig::carbon_edge(),
      PolicyConfig::multi_objective(0.0),  PolicyConfig::multi_objective(0.35),
      PolicyConfig::multi_objective(1.0)};
  const std::vector<geo::Region> regions = {geo::florida_region(), geo::central_eu_region(),
                                            geo::cdn_region(geo::Continent::kNorthAmerica, 24)};
  std::size_t unsupported = 0;
  std::size_t failed = 0;
  std::size_t off = 0;
  std::size_t banded = 0;
  std::size_t cut_sites = 0;
  std::size_t empty_batches = 0;
  std::size_t pairs = 0;
  for (std::uint64_t seed = 0; seed < 210; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 11);
    const geo::Region& region = regions[seed % regions.size()];
    sim::EdgeCluster cluster = random_cluster(region, rng);
    const bool band = rng.bernoulli(0.5);
    const geo::LatencyProvider latency =
        band ? geo::LatencyProvider(geo::LatencyModel{}, cluster.cities(), rng.uniform(1.0, 12.0))
             : geo::LatencyProvider(geo::LatencyModel{}, cluster.cities());
    banded += band ? 1 : 0;
    std::vector<double> intensity(cluster.size());
    for (double& value : intensity) value = rng.uniform(20.0, 650.0);

    std::vector<sim::Application> apps(seed % 15 == 0 ? 0 : 1 + rng.uniform_index(40));
    empty_batches += apps.empty() ? 1 : 0;
    for (std::size_t i = 0; i < apps.size(); ++i) {
      sim::Application& app = apps[i];
      app.id = i;
      app.model = sim::kAllModels[rng.uniform_index(sim::kModelCount)];
      app.origin_site = rng.uniform_index(cluster.size());
      app.rps = rng.uniform(0.5, 25.0);
      app.latency_limit_rtt_ms = rng.uniform(1.0, 30.0);
    }

    PlacementLayout layout(cluster, latency);
    PlacementInput input;
    input.layout = &layout;
    input.site_mean_intensity = &intensity;
    input.epoch_hours = rng.bernoulli(0.5) ? 1.0 : rng.uniform(0.1, 3.0);
    const PolicyConfig& policy = policies[seed % policies.size()];
    SCOPED_TRACE(describe(policy));
    const FreshBuild want =
        reference_build_problem(cluster, latency, intensity, input.epoch_hours, apps, policy);
    expect_same_build(build_problem(input, apps, policy), input, apps, want);

    // Tally the cases the instances must exercise.
    for (const auto& ref : want.servers) {
      failed += ref.server->failed() ? 1 : 0;
      off += !ref.server->failed() && !ref.server->powered_on() ? 1 : 0;
      for (const sim::Application& app : apps) {
        unsupported += sim::profile_of(app.model, ref.server->device()).supported ? 0 : 1;
      }
    }
    for (const sim::Application& app : apps) {
      for (const double ms : latency.row_ms(app.origin_site)) {
        cut_sites += 2.0 * ms > app.latency_limit_rtt_ms + 1e-9 ? 1 : 0;
      }
    }
    pairs += want.problem.num_pairs();
  }
  EXPECT_GE(unsupported, 1000u);
  EXPECT_GE(failed, 50u);
  EXPECT_GE(off, 50u);
  EXPECT_GE(banded, 50u);
  EXPECT_GE(cut_sites, 1000u);
  EXPECT_GE(empty_batches, 10u);
  EXPECT_GE(pairs, 10000u);
}

// The per-call build_problem as it stood before placement kept a layout
// across calls: it lists the cluster's servers and site ranges afresh, scans
// each app's whole latency row, and builds into new buffers. A long-lived layout and build
// buffers must reproduce it bit for bit.
FreshBuild per_call_build_problem(sim::EdgeCluster& cluster, const geo::LatencyProvider& latency,
                                  const std::vector<double>& intensity, double epoch_hours,
                                  std::span<const sim::Application> apps,
                                  const PolicyConfig& policy) {
  struct Terms {
    bool supported = false;
    double energy_wh = 0.0;
    double energy_kwh = 0.0;
    double memory_mb = 0.0;
    double compute = 0.0;
  };
  using AppTerms = std::array<Terms, sim::kDeviceCount>;
  const auto app_terms = [&](const sim::Application& app) {
    AppTerms terms{};
    for (const sim::DeviceType device : sim::kAllDevices) {
      const sim::ProfileResult prof = sim::profile_of(app.model, device);
      if (!prof.supported) continue;
      const double energy = prof.profile.energy_j * app.rps * epoch_hours;
      terms[static_cast<std::size_t>(device)] = {
          true, energy, energy / 1000.0, prof.profile.memory_mb,
          sim::compute_demand_per_rps(app.model, device) * app.rps};
    }
    return terms;
  };

  FreshBuild built;
  built.servers = cluster.all_servers();
  const std::size_t num_apps = apps.size();
  const std::size_t num_servers = built.servers.size();
  const std::size_t num_sites = cluster.sites().size();
  std::vector<std::size_t> site_first(num_sites + 1, 0);
  for (const auto& ref : built.servers) ++site_first[ref.site + 1];
  for (std::size_t s = 0; s < num_sites; ++s) site_first[s + 1] += site_first[s];

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
  const auto for_each_site = [&](std::size_t i, auto&& visit) {
    const sim::Application& app = apps[i];
    const std::span<const std::uint32_t> row_sites = latency.neighbors(app.origin_site);
    const std::span<const double> row_ms = latency.row_ms(app.origin_site);
    for (std::size_t k = 0; k < row_sites.size(); ++k) {
      const double rtt = 2.0 * row_ms[k];
      if (rtt > app.latency_limit_rtt_ms + 1e-9) continue;
      visit(row_sites[k], rtt);
    }
  };
  const auto for_each_pair = [&](auto&& visit) {
    for (std::size_t i = 0; i < num_apps; ++i) {
      const AppTerms terms = app_terms(apps[i]);
      for_each_site(i, [&](std::size_t s, double rtt) {
        for (std::size_t j = site_first[s]; j < site_first[s + 1]; ++j) {
          if (column_device[j] == kFailed) continue;
          const Terms& t = terms[column_device[j]];
          if (t.supported) visit(i, j, s, rtt, t);
        }
      });
    }
  };
  // Eq. 8's min/max: the first minimum and the last maximum in visit order.
  double energy_lo = 0.0, energy_hi = 0.0, carbon_lo = 0.0, carbon_hi = 0.0;
  bool empty = true;
  if (policy.kind == PolicyKind::kMultiObjective) {
    for_each_pair([&](std::size_t, std::size_t, std::size_t s, double, const Terms& t) {
      const double carbon = t.energy_kwh * intensity[s];
      if (empty || t.energy_wh < energy_lo) energy_lo = t.energy_wh;
      if (empty || !(t.energy_wh < energy_hi)) energy_hi = t.energy_wh;
      if (empty || carbon < carbon_lo) carbon_lo = carbon;
      if (empty || !(carbon < carbon_hi)) carbon_hi = carbon;
      empty = false;
    });
  }
  const auto blend = [&](double energy, double carbon) {
    const double e = util::minmax_normalize(energy, energy_lo, energy_hi);
    const double c = util::minmax_normalize(carbon, carbon_lo, carbon_hi);
    return policy.alpha * e + (1.0 - policy.alpha) * c;
  };
  for_each_pair([&](std::size_t i, std::size_t j, std::size_t s, double rtt, const Terms& t) {
    const double carbon = t.energy_kwh * intensity[s];
    built.energy_wh.push_back(t.energy_wh);
    built.carbon_g.push_back(carbon);
    built.rtt_ms.push_back(rtt);
    double cost = 0.0;
    switch (policy.kind) {
      case PolicyKind::kLatencyAware: cost = rtt; break;
      case PolicyKind::kEnergyAware: cost = t.energy_wh; break;
      case PolicyKind::kIntensityAware: cost = intensity[s]; break;
      case PolicyKind::kCarbonEdge: cost = carbon; break;
      case PolicyKind::kMultiObjective: cost = blend(t.energy_wh, carbon); break;
    }
    problem.add_pair(i, j, cost, {t.memory_mb, t.compute});
  });
  for (std::size_t j = 0; j < num_servers; ++j) {
    const sim::EdgeServer& server = *built.servers[j].server;
    const double energy =
        server.powered_on() ? 0.0 : server.config().base_power_w * epoch_hours;
    const double carbon = energy / 1000.0 * intensity[built.servers[j].site];
    double activation = 0.0;
    switch (policy.kind) {
      case PolicyKind::kLatencyAware: activation = 0.0; break;
      case PolicyKind::kEnergyAware: activation = energy; break;
      case PolicyKind::kIntensityAware: activation = 0.0; break;
      case PolicyKind::kCarbonEdge: activation = carbon; break;
      case PolicyKind::kMultiObjective: activation = blend(energy, carbon); break;
    }
    problem.set_activation_cost(j, activation);
  }
  built.problem = std::move(problem);
  return built;
}

// Between epochs, a random share of servers changes power state, fails or
// recovers, takes on an app or loses one: everything a build reads of a
// server, moved under a layout that outlives it.
void perturb_servers(sim::EdgeCluster& cluster, util::Rng& rng, sim::AppId& next_id,
                     std::vector<std::pair<sim::EdgeServer*, sim::AppId>>& hosted) {
  for (sim::EdgeDataCenter& dc : cluster.sites()) {
    for (sim::EdgeServer& server : dc.servers()) {
      if (rng.bernoulli(0.1)) server.set_failed(!server.failed());
      if (!server.failed() && server.app_count() == 0 && rng.bernoulli(0.15)) {
        server.set_powered_on(!server.powered_on());
      }
      if (server.powered_on() && rng.bernoulli(0.3)) {
        const sim::ModelType model = sim::kAllModels[rng.uniform_index(sim::kModelCount)];
        const double rps = rng.uniform(0.5, 4.0);
        if (server.can_host(model, rps)) {
          server.host({next_id, model, rps});
          hosted.emplace_back(&server, next_id++);
        }
      }
    }
  }
  for (std::size_t k = hosted.size(); k-- > 0;) {
    if (!rng.bernoulli(0.3)) continue;
    hosted[k].first->evict(hosted[k].second);
    hosted.erase(hosted.begin() + static_cast<std::ptrdiff_t>(k));
  }
}

TEST(BuildProblem, LayoutReuseMatchesFreshBuild) {
  const std::vector<PolicyConfig> policies = {
      PolicyConfig::latency_aware(),       PolicyConfig::energy_aware(),
      PolicyConfig::intensity_aware(),     PolicyConfig::carbon_edge(),
      PolicyConfig::multi_objective(0.0),  PolicyConfig::multi_objective(0.35),
      PolicyConfig::multi_objective(1.0)};
  const std::vector<geo::Region> regions = {geo::florida_region(), geo::central_eu_region(),
                                            geo::cdn_region(geo::Continent::kNorthAmerica, 24)};
  const std::vector<double> limits = {3.0, 8.0, 14.0, 20.0, 30.0};
  std::size_t banded = 0;
  std::size_t failed = 0;
  std::size_t off = 0;
  std::size_t mixed_origins = 0;
  std::size_t pairs = 0;
  std::array<std::size_t, 5> kinds{};
  for (std::uint64_t seed = 0; seed < 48; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 29);
    const geo::Region& region = regions[seed % regions.size()];
    sim::EdgeCluster cluster = random_cluster(region, rng);
    const bool band = seed % 2 == 1;
    const geo::LatencyProvider latency =
        band ? geo::LatencyProvider(geo::LatencyModel{}, cluster.cities(), rng.uniform(2.0, 12.0))
             : geo::LatencyProvider(geo::LatencyModel{}, cluster.cities());
    banded += band ? 1 : 0;
    PlacementLayout layout(cluster, latency);
    BuiltProblem built;  // one set of build buffers for every epoch
    sim::AppId next_id = 1000;
    std::vector<std::pair<sim::EdgeServer*, sim::AppId>> hosted;
    for (std::uint32_t epoch = 0; epoch < 12; ++epoch) {
      SCOPED_TRACE("epoch " + std::to_string(epoch));
      if (epoch > 0) perturb_servers(cluster, rng, next_id, hosted);
      std::vector<double> intensity(cluster.size());
      for (double& value : intensity) value = rng.uniform(20.0, 650.0);
      const double epoch_hours = rng.bernoulli(0.5) ? 3.0 : rng.uniform(0.1, 3.0);

      // Origins come from a pool of three sites, so one origin recurs in a
      // batch under different RTT limits.
      const std::array<std::size_t, 3> pool = {rng.uniform_index(cluster.size()),
                                               rng.uniform_index(cluster.size()),
                                               rng.uniform_index(cluster.size())};
      std::vector<sim::Application> apps(rng.uniform_index(25));
      for (std::size_t i = 0; i < apps.size(); ++i) {
        sim::Application& app = apps[i];
        app.id = i;
        app.model = sim::kAllModels[rng.uniform_index(sim::kModelCount)];
        app.origin_site = pool[rng.uniform_index(pool.size())];
        app.rps = rng.uniform(0.5, 25.0);
        app.latency_limit_rtt_ms =
            rng.bernoulli(0.8) ? limits[rng.uniform_index(limits.size())] : rng.uniform(1.0, 30.0);
      }
      const PolicyConfig& policy = policies[(seed * 5 + epoch) % policies.size()];
      SCOPED_TRACE(describe(policy));
      const FreshBuild want =
          per_call_build_problem(cluster, latency, intensity, epoch_hours, apps, policy);
      PlacementInput input;
      input.layout = &layout;
      input.site_mean_intensity = &intensity;
      input.epoch_hours = epoch_hours;
      build_problem(input, apps, policy, built);
      expect_same_build(built, input, apps, want);

      ++kinds[static_cast<std::size_t>(policy.kind)];
      for (const std::size_t origin : pool) {
        std::vector<double> seen;
        for (const sim::Application& app : apps) {
          if (app.origin_site != origin) continue;
          if (std::ranges::find(seen, app.latency_limit_rtt_ms) == seen.end()) {
            seen.push_back(app.latency_limit_rtt_ms);
          }
        }
        mixed_origins += seen.size() > 1 ? 1 : 0;
      }
      for (const auto& ref : want.servers) {
        failed += ref.server->failed() ? 1 : 0;
        off += !ref.server->failed() && !ref.server->powered_on() ? 1 : 0;
      }
      pairs += want.problem.num_pairs();
    }
  }
  EXPECT_GE(banded, 20u);
  EXPECT_GE(failed, 200u);
  EXPECT_GE(off, 200u);
  EXPECT_GE(mixed_origins, 500u);
  EXPECT_GE(pairs, 10000u);
  for (const std::size_t count : kinds) EXPECT_GE(count, 40u);
}

// A hand-made cluster with every case the ledger's uniform A2 clusters
// never build: devices of four types (so some models have no pair on some
// servers), a failed server, a loaded one and an off one, and apps of one
// origin under different RTT limits, built into one long-lived BuiltProblem
// under every policy.
TEST(BuildProblem, MixedDevicesFailuresAndLimitsMatchReference) {
  using sim::DeviceType;
  const geo::Region region = geo::florida_region();
  sim::EdgeCluster cluster(region);
  const std::vector<std::vector<DeviceType>> devices = {
      {DeviceType::kA2, DeviceType::kXeonCpu},
      {DeviceType::kOrinNano},
      {DeviceType::kGtx1080, DeviceType::kA2, DeviceType::kXeonCpu},
      {DeviceType::kXeonCpu},
      {DeviceType::kA2, DeviceType::kOrinNano}};
  ASSERT_EQ(cluster.size(), devices.size());
  for (std::size_t s = 0; s < devices.size(); ++s) {
    for (std::size_t k = 0; k < devices[s].size(); ++k) {
      sim::ServerConfig config;
      config.name = cluster.sites()[s].zone() + "-" + std::to_string(k);
      config.device = devices[s][k];
      cluster.sites()[s].add_server(config);
    }
  }
  cluster.sites()[2].servers()[1].set_failed(true);         // the A2 at site 2
  cluster.sites()[4].servers()[1].set_powered_on(false);    // the Orin at site 4
  cluster.sites()[0].servers()[0].host({1, sim::ModelType::kResNet50, 3.0});
  const geo::LatencyProvider latency(geo::LatencyModel{}, cluster.cities());
  PlacementLayout layout(cluster, latency);
  const std::vector<double> intensity = {412.5, 95.25, 233.0, 640.75, 18.5};

  // Origin 0 recurs under four limits, origin 2 under two; every model
  // appears, the CPU-only one among them.
  const std::vector<std::tuple<std::size_t, double, sim::ModelType>> specs = {
      {0, 4.0, sim::ModelType::kResNet50},   {0, 30.0, sim::ModelType::kSciCpu},
      {2, 30.0, sim::ModelType::kYoloV4},    {0, 12.0, sim::ModelType::kEfficientNetB0},
      {2, 6.0, sim::ModelType::kSciCpu},     {0, 30.0, sim::ModelType::kYoloV4},
      {4, 9.0, sim::ModelType::kResNet50},   {0, 4.0, sim::ModelType::kSciCpu}};
  std::vector<sim::Application> apps;
  for (const auto& [origin, limit, model] : specs) {
    sim::Application app;
    app.id = 500 + apps.size();
    app.model = model;
    app.origin_site = origin;
    app.rps = 1.5 + static_cast<double>(apps.size());
    app.latency_limit_rtt_ms = limit;
    apps.push_back(app);
  }

  const std::vector<PolicyConfig> policies = {
      PolicyConfig::latency_aware(),       PolicyConfig::energy_aware(),
      PolicyConfig::intensity_aware(),     PolicyConfig::carbon_edge(),
      PolicyConfig::multi_objective(0.0),  PolicyConfig::multi_objective(0.35),
      PolicyConfig::multi_objective(1.0)};
  BuiltProblem reused;
  for (const double epoch_hours : {1.0, 0.25}) {
    for (const PolicyConfig& policy : policies) {
      SCOPED_TRACE(describe(policy) + " hours " + std::to_string(epoch_hours));
      PlacementInput input;
      input.layout = &layout;
      input.site_mean_intensity = &intensity;
      input.epoch_hours = epoch_hours;
      const FreshBuild want =
          reference_build_problem(cluster, latency, intensity, epoch_hours, apps, policy);
      build_problem(input, apps, policy, reused);
      expect_same_build(reused, input, apps, want);
      expect_same_build(build_problem(input, apps, policy), input, apps, want);
    }
  }

  // The cases above are really there: the failed column has no pair, some
  // in-band server runs no model of some app, and the limits cut origin 0's
  // row differently.
  const FreshBuild want =
      reference_build_problem(cluster, latency, intensity, 1.0, apps, PolicyConfig::carbon_edge());
  std::size_t unsupported = 0;
  std::set<std::size_t> band_sizes;
  for (std::size_t i = 0; i < apps.size(); ++i) {
    std::size_t in_band = 0;
    for (std::size_t j = 0; j < layout.servers().size(); ++j) {
      const auto& ref = layout.servers()[j];
      if (latency.rtt_ms(apps[i].origin_site, ref.site) > apps[i].latency_limit_rtt_ms + 1e-9) {
        continue;
      }
      ++in_band;
      if (ref.server->failed()) {
        EXPECT_EQ(want.problem.find_pair(i, j), solver::kNoPair);
      } else if (!sim::profile_of(apps[i].model, ref.server->device()).supported) {
        EXPECT_EQ(want.problem.find_pair(i, j), solver::kNoPair);
        ++unsupported;
      }
    }
    if (apps[i].origin_site == 0) band_sizes.insert(in_band);
  }
  EXPECT_GE(unsupported, 5u);
  EXPECT_GE(band_sizes.size(), 2u);
  EXPECT_TRUE(layout.servers()[4].server->failed());
  EXPECT_FALSE(layout.servers()[8].server->powered_on());
}

// PlacementService::place over several epochs on one long-lived layout and
// service: each decision's RTT, energy and carbon are its pair's values in
// the two-pass reference build, bit for bit, whatever the policy, device or
// RTT limit.
TEST(PlacementService, DecisionQuantitiesMatchTwoPassReference) {
  const std::vector<PolicyConfig> policies = {
      PolicyConfig::latency_aware(),       PolicyConfig::energy_aware(),
      PolicyConfig::intensity_aware(),     PolicyConfig::carbon_edge(),
      PolicyConfig::multi_objective(0.35)};
  const std::vector<geo::Region> regions = {geo::florida_region(), geo::central_eu_region(),
                                            geo::cdn_region(geo::Continent::kNorthAmerica, 24)};
  const std::vector<double> limits = {3.0, 8.0, 14.0, 20.0, 30.0};
  std::size_t decisions = 0;
  std::size_t mixed_devices = 0;
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 53);
    sim::EdgeCluster cluster = random_cluster(regions[seed % regions.size()], rng);
    const geo::LatencyProvider latency =
        seed % 2 == 1
            ? geo::LatencyProvider(geo::LatencyModel{}, cluster.cities(), rng.uniform(2.0, 12.0))
            : geo::LatencyProvider(geo::LatencyModel{}, cluster.cities());
    PlacementLayout layout(cluster, latency);
    const PolicyConfig& policy = policies[seed % policies.size()];
    SCOPED_TRACE(describe(policy));
    // A small node budget keeps the exact path's hard components quick;
    // the quantities do not depend on which pair the solver picks.
    solver::AssignmentOptions options;
    options.milp.max_nodes = 100;
    PlacementService service(policy, options);
    sim::AppId next_id = 1000;
    std::vector<std::pair<sim::EdgeServer*, sim::AppId>> hosted;
    for (std::uint32_t epoch = 0; epoch < 6; ++epoch) {
      SCOPED_TRACE("epoch " + std::to_string(epoch));
      if (epoch > 0) perturb_servers(cluster, rng, next_id, hosted);
      std::vector<double> intensity(cluster.size());
      for (double& value : intensity) value = rng.uniform(20.0, 650.0);
      const double epoch_hours = rng.bernoulli(0.5) ? 1.0 : rng.uniform(0.1, 3.0);
      // Three origins per batch, each under mixed limits.
      const std::array<std::size_t, 3> pool = {rng.uniform_index(cluster.size()),
                                               rng.uniform_index(cluster.size()),
                                               rng.uniform_index(cluster.size())};
      std::vector<sim::Application> apps(1 + rng.uniform_index(30));
      for (std::size_t i = 0; i < apps.size(); ++i) {
        sim::Application& app = apps[i];
        app.id = next_id++;
        app.model = sim::kAllModels[rng.uniform_index(sim::kModelCount)];
        app.origin_site = pool[rng.uniform_index(pool.size())];
        app.rps = rng.uniform(0.5, 12.0);
        app.latency_limit_rtt_ms = limits[rng.uniform_index(limits.size())];
      }
      const FreshBuild want =
          reference_build_problem(cluster, latency, intensity, epoch_hours, apps, policy);
      PlacementInput input;
      input.layout = &layout;
      input.site_mean_intensity = &intensity;
      input.epoch_hours = epoch_hours;
      const PlacementResult result = service.place(input, apps);
      std::set<sim::DeviceType> devices;
      for (const PlacementDecision& d : result.decisions) {
        const std::size_t p = want.problem.find_pair(d.batch_index, d.column);
        ASSERT_NE(p, solver::kNoPair) << d.batch_index << " on " << d.column;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(d.rtt_ms), std::bit_cast<std::uint64_t>(want.rtt_ms[p]))
            << "rtt " << p;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(d.energy_wh),
                  std::bit_cast<std::uint64_t>(want.energy_wh[p]))
            << "energy " << p;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(d.carbon_g),
                  std::bit_cast<std::uint64_t>(want.carbon_g[p]))
            << "carbon " << p;
        sim::EdgeServer* server = layout.servers()[d.column].server;
        hosted.emplace_back(server, d.app);
        devices.insert(server->device());
      }
      decisions += result.decisions.size();
      mixed_devices += devices.size() > 1 ? 1 : 0;
    }
  }
  EXPECT_GE(decisions, 600u);
  EXPECT_GE(mixed_devices, 40u);
}

}  // namespace
}  // namespace carbonedge::core
