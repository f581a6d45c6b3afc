#include "core/problem.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>

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

  explicit Fixture(sim::DeviceType device = sim::DeviceType::kA2)
      : cluster(sim::make_uniform_cluster(geo::florida_region(), 1, device)) {
    carbon.add_region(geo::florida_region());
    latency = geo::LatencyProvider(geo::LatencyModel{}, cluster.cities());
  }

  std::vector<double> intensity;  // Ī per site, refilled by input()

  PlacementInput input(carbon::HourIndex now = 12, std::uint32_t horizon = 1) {
    intensity = site_mean_intensity(cluster, carbon, now, horizon);
    PlacementInput in;
    in.cluster = &cluster;
    in.latency = &latency;
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
  PlacementInput no_cluster = f.input();
  no_cluster.cluster = nullptr;
  EXPECT_THROW(build_problem(no_cluster, apps, PolicyConfig::carbon_edge()),
               std::invalid_argument);
  PlacementInput no_latency = f.input();
  no_latency.latency = nullptr;
  EXPECT_THROW(build_problem(no_latency, apps, PolicyConfig::carbon_edge()),
               std::invalid_argument);
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
  for (std::size_t j = 0; j < carbon.servers.size(); ++j) {
    const std::size_t p = carbon.problem.find_pair(0, j);
    if (p == solver::kNoPair) continue;
    const double site_ci = table[carbon.servers[j].site];
    EXPECT_EQ(carbon.carbon_g[p], carbon.energy_wh[p] / 1000.0 * site_ci) << j;
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
  EXPECT_EQ(built.servers.size(), 5u);
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
  const BuiltProblem built = build_problem(f.input(7), apps, PolicyConfig::carbon_edge());
  for (std::size_t j = 0; j < 5; ++j) {
    const std::size_t p = built.problem.find_pair(0, j);
    if (p == solver::kNoPair) continue;
    const double site_ci = f.intensity[built.servers[j].site];
    EXPECT_NEAR(built.carbon_g[p], built.energy_wh[p] / 1000.0 * site_ci, 1e-9);
    EXPECT_NEAR(built.problem.cost(p), built.carbon_g[p], 1e-12);
  }
}

TEST(BuildProblem, MeanIntensityUsesForecastWindow) {
  Fixture f;
  const std::vector<sim::Application> apps = {app_at(0, 40.0)};
  const PlacementInput in = f.input(100, 24);
  const BuiltProblem carbon = build_problem(in, apps, PolicyConfig::carbon_edge());
  const BuiltProblem intensity = build_problem(in, apps, PolicyConfig::intensity_aware());
  const auto& trace = f.carbon.trace("Jacksonville");
  ASSERT_EQ(carbon.servers[0].site, 0u);  // column 0 sits at Jacksonville
  const std::size_t p = carbon.problem.find_pair(0, 0);
  ASSERT_NE(p, solver::kNoPair);
  EXPECT_NEAR(intensity.problem.cost(p), trace.mean_over(100, 24), 1e-9);
  EXPECT_NEAR(carbon.carbon_g[p], carbon.energy_wh[p] / 1000.0 * trace.mean_over(100, 24), 1e-9);
}

TEST(BuildProblem, PolicyObjectivesDiffer) {
  Fixture f;
  const std::vector<sim::Application> apps = {app_at(2, 40.0)};
  const BuiltProblem latency = build_problem(f.input(), apps, PolicyConfig::latency_aware());
  const BuiltProblem energy = build_problem(f.input(), apps, PolicyConfig::energy_aware());
  const BuiltProblem intensity = build_problem(f.input(), apps, PolicyConfig::intensity_aware());
  // The policy changes costs only: all three share one pair layout.
  ASSERT_EQ(energy.problem.num_pairs(), latency.problem.num_pairs());
  ASSERT_EQ(intensity.problem.num_pairs(), latency.problem.num_pairs());
  for (std::size_t j = 0; j < 5; ++j) {
    const std::size_t p = latency.problem.find_pair(0, j);
    if (p == solver::kNoPair) continue;
    EXPECT_NEAR(latency.problem.cost(p), latency.rtt_ms[p], 1e-12);
    EXPECT_NEAR(energy.problem.cost(p), energy.energy_wh[p], 1e-12);
    EXPECT_NEAR(intensity.problem.cost(p), f.intensity[intensity.servers[j].site], 1e-12);
  }
}

TEST(BuildProblem, MultiObjectiveEndpointsMatchPureObjectives) {
  Fixture f;
  const std::vector<sim::Application> apps = {app_at(0, 40.0), app_at(3, 40.0)};
  const BuiltProblem alpha0 = build_problem(f.input(), apps, PolicyConfig::multi_objective(0.0));
  const BuiltProblem alpha1 = build_problem(f.input(), apps, PolicyConfig::multi_objective(1.0));
  // alpha=0 costs are normalized carbon: ordering matches carbon ordering.
  // alpha only changes costs, so both problems share one pair layout.
  ASSERT_EQ(alpha1.problem.num_pairs(), alpha0.problem.num_pairs());
  for (std::size_t i = 0; i < apps.size(); ++i) {
    for (std::size_t j = 0; j < 5; ++j) {
      for (std::size_t k = j + 1; k < 5; ++k) {
        const std::size_t pj = alpha0.problem.find_pair(i, j);
        const std::size_t pk = alpha0.problem.find_pair(i, k);
        if (pj == solver::kNoPair || pk == solver::kNoPair) continue;
        const bool carbon_less = alpha0.carbon_g[pj] < alpha0.carbon_g[pk];
        const bool cost_less = alpha0.problem.cost(pj) < alpha0.problem.cost(pk);
        EXPECT_EQ(carbon_less, cost_less);
        const bool energy_less = alpha1.energy_wh[pj] < alpha1.energy_wh[pk];
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
  EXPECT_NEAR(b2.energy_wh[p], 2.0 * b1.energy_wh[p], 1e-9);
}

// The two-pass build_problem kept as a reference: it collects every
// feasible pair's (app, server, demands) into temporaries, then derives the
// Eq. 8 ranges with minmax_element and appends the pairs in a second pass.
// The production build must reproduce its output bit for bit.
BuiltProblem reference_build_problem(const PlacementInput& input,
                                     std::span<const sim::Application> apps,
                                     const PolicyConfig& policy) {
  const std::vector<double>& intensity = *input.site_mean_intensity;
  BuiltProblem built;
  built.servers = input.cluster->all_servers();
  const std::size_t num_apps = apps.size();
  const std::size_t num_servers = built.servers.size();
  const std::size_t num_sites = input.cluster->sites().size();
  std::vector<std::size_t> site_first(num_sites + 1, 0);
  for (const auto& ref : built.servers) ++site_first[ref.site + 1];
  for (std::size_t s = 0; s < num_sites; ++s) site_first[s + 1] += site_first[s];
  std::vector<std::size_t> pair_app;
  std::vector<std::size_t> pair_server;
  std::vector<double> pair_demand;
  for (std::size_t i = 0; i < num_apps; ++i) {
    const sim::Application& app = apps[i];
    const std::span<const std::uint32_t> row_sites = input.latency->neighbors(app.origin_site);
    const std::span<const double> row_ms = input.latency->row_ms(app.origin_site);
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
        const double energy = watts * input.epoch_hours;
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
        server.powered_on() ? 0.0 : server.config().base_power_w * input.epoch_hours;
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

void expect_bit_identical(const BuiltProblem& got, const BuiltProblem& want) {
  const solver::AssignmentProblem& g = got.problem;
  const solver::AssignmentProblem& w = want.problem;
  ASSERT_EQ(g.num_apps(), w.num_apps());
  ASSERT_EQ(g.num_servers(), w.num_servers());
  ASSERT_EQ(g.num_resources(), w.num_resources());
  ASSERT_EQ(g.num_pairs(), w.num_pairs());
  ASSERT_EQ(got.servers.size(), want.servers.size());
  for (std::size_t j = 0; j < g.num_servers(); ++j) {
    EXPECT_EQ(got.servers[j].site, want.servers[j].site) << j;
    EXPECT_EQ(got.servers[j].server, want.servers[j].server) << j;
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
  for (std::size_t i = 0; i < g.num_apps(); ++i) {
    EXPECT_EQ(g.row_begin(i), w.row_begin(i)) << i;
    EXPECT_EQ(g.row_end(i), w.row_end(i)) << i;
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
  expect_same_bits(got.energy_wh, want.energy_wh, "energy_wh");
  expect_same_bits(got.carbon_g, want.carbon_g, "carbon_g");
  expect_same_bits(got.rtt_ms, want.rtt_ms, "rtt_ms");
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

    PlacementInput input;
    input.cluster = &cluster;
    input.latency = &latency;
    input.site_mean_intensity = &intensity;
    input.epoch_hours = rng.bernoulli(0.5) ? 1.0 : rng.uniform(0.1, 3.0);
    const PolicyConfig& policy = policies[seed % policies.size()];
    SCOPED_TRACE(describe(policy));
    const BuiltProblem want = reference_build_problem(input, apps, policy);
    expect_bit_identical(build_problem(input, apps, policy), want);

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

}  // namespace
}  // namespace carbonedge::core
