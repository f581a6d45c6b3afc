#include "core/problem.hpp"

#include <gtest/gtest.h>

#include "core/placement_service.hpp"
#include "core/policy.hpp"

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

}  // namespace
}  // namespace carbonedge::core
