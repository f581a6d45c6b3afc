#include "core/placement_service.hpp"

#include <gtest/gtest.h>

namespace carbonedge::core {
namespace {

struct Fixture {
  sim::EdgeCluster cluster;
  carbon::CarbonIntensityService carbon;
  geo::LatencyProvider latency;

  Fixture() : cluster(sim::make_uniform_cluster(geo::florida_region(), 1, sim::DeviceType::kA2)) {
    carbon.add_region(geo::florida_region());
    latency = geo::LatencyProvider(geo::LatencyModel{}, cluster.cities());
  }

  std::vector<double> intensity;  // Ī per site, refilled by input()

  PlacementInput input(carbon::HourIndex now = 12) {
    intensity = site_mean_intensity(cluster, carbon, now, /*horizon=*/1);
    PlacementInput in;
    in.cluster = &cluster;
    in.latency = &latency;
    in.site_mean_intensity = &intensity;
    return in;
  }

  std::vector<sim::Application> one_per_site(double rtt_limit = 30.0) {
    std::vector<sim::Application> apps;
    for (std::size_t s = 0; s < cluster.size(); ++s) {
      sim::Application app;
      app.id = s;
      app.model = sim::ModelType::kResNet50;
      app.origin_site = s;
      app.rps = 5.0;
      app.latency_limit_rtt_ms = rtt_limit;
      apps.push_back(app);
    }
    return apps;
  }
};

TEST(PlacementService, EmptyBatchIsNoop) {
  Fixture f;
  PlacementService service(PolicyConfig::carbon_edge());
  const PlacementResult result = service.place(f.input(), {});
  EXPECT_TRUE(result.decisions.empty());
  EXPECT_TRUE(result.rejected.empty());
}

TEST(PlacementService, LatencyAwareKeepsAppsAtOrigin) {
  Fixture f;
  PlacementService service(PolicyConfig::latency_aware());
  const auto apps = f.one_per_site();
  const PlacementResult result = service.place(f.input(), apps);
  ASSERT_EQ(result.decisions.size(), apps.size());
  for (const PlacementDecision& d : result.decisions) {
    EXPECT_EQ(d.site, static_cast<std::size_t>(d.app));  // app id == origin site here
    EXPECT_DOUBLE_EQ(d.rtt_ms, 0.0);
  }
}

TEST(PlacementService, CarbonEdgeConcentratesInGreenestZone) {
  Fixture f;
  PlacementService service(PolicyConfig::carbon_edge());
  const auto apps = f.one_per_site(/*rtt_limit=*/30.0);
  const PlacementResult result = service.place(f.input(), apps);
  ASSERT_EQ(result.decisions.size(), apps.size());
  // Miami (site 1) is the calibrated greenest Florida zone (Figure 8c).
  for (const PlacementDecision& d : result.decisions) EXPECT_EQ(d.site, 1u);
}

TEST(PlacementService, CommitsHostingToCluster) {
  Fixture f;
  PlacementService service(PolicyConfig::carbon_edge());
  const auto apps = f.one_per_site();
  service.place(f.input(), apps);
  std::size_t hosted = 0;
  for (const auto& site : f.cluster.sites()) hosted += site.app_count();
  EXPECT_EQ(hosted, apps.size());
}

TEST(PlacementService, RespectsLatencySlo) {
  Fixture f;
  PlacementService service(PolicyConfig::carbon_edge());
  const auto apps = f.one_per_site(/*rtt_limit=*/8.0);  // tight SLO
  const PlacementResult result = service.place(f.input(), apps);
  for (const PlacementDecision& d : result.decisions) {
    EXPECT_LE(d.rtt_ms, 8.0 + 1e-9);
  }
}

TEST(PlacementService, RejectsWhenNothingFeasible) {
  Fixture f;
  PlacementService service(PolicyConfig::carbon_edge());
  std::vector<sim::Application> apps(1);
  apps[0].id = 7;
  apps[0].model = sim::ModelType::kSciCpu;  // unsupported on A2 cluster
  apps[0].origin_site = 0;
  apps[0].rps = 1.0;
  const PlacementResult result = service.place(f.input(), apps);
  EXPECT_TRUE(result.decisions.empty());
  ASSERT_EQ(result.rejected.size(), 1u);
  EXPECT_EQ(result.rejected[0], 7u);
}

TEST(PlacementService, ActivatesOffServersWhenWorthIt) {
  Fixture f;
  // Power off everything except dirty Jacksonville; CarbonEdge should pay
  // Miami's activation to escape the dirty zone given enough load.
  for (std::size_t s = 1; s < f.cluster.size(); ++s) {
    f.cluster.sites()[s].servers()[0].set_powered_on(false);
  }
  PlacementService service(PolicyConfig::carbon_edge());
  std::vector<sim::Application> apps;
  for (int i = 0; i < 8; ++i) {
    sim::Application app;
    app.id = i;
    app.model = sim::ModelType::kYoloV4;  // heavy: large energy at stake
    app.origin_site = 0;
    app.rps = 9.0;
    app.latency_limit_rtt_ms = 30.0;
    apps.push_back(app);
  }
  const PlacementResult result = service.place(f.input(), apps);
  ASSERT_EQ(result.decisions.size(), apps.size());
  EXPECT_TRUE(f.cluster.sites()[1].servers()[0].powered_on());
}

TEST(PlacementService, DoesNotActivateUnusedServers) {
  Fixture f;
  f.cluster.sites()[4].servers()[0].set_powered_on(false);
  PlacementService service(PolicyConfig::latency_aware());
  std::vector<sim::Application> apps = {f.one_per_site()[0]};  // single app at site 0
  service.place(f.input(), apps);
  EXPECT_FALSE(f.cluster.sites()[4].servers()[0].powered_on());
}

TEST(PlacementService, ReportsSolveTime) {
  Fixture f;
  PlacementService service(PolicyConfig::carbon_edge());
  const PlacementResult result = service.place(f.input(), f.one_per_site());
  EXPECT_GT(result.solve_time_ms, 0.0);
  EXPECT_LT(result.solve_time_ms, 3000.0);  // Section 6.5 bound
}

TEST(PlacementService, ReportsPerShardSolverTelemetry) {
  Fixture f;
  PlacementService service(PolicyConfig::carbon_edge());
  const PlacementResult result = service.place(f.input(), f.one_per_site());
  const solver::SolveStats& stats = result.solver_stats;
  EXPECT_GE(stats.components, 1u);
  // Every component was solved exactly, by the heuristic, or holds an
  // unplaceable app.
  EXPECT_EQ(stats.components,
            stats.exact_shards + stats.heuristic_shards + stats.unplaceable_apps);
}

TEST(PlacementService, DecisionsCarryPhysicalQuantities) {
  Fixture f;
  PlacementService service(PolicyConfig::carbon_edge());
  const PlacementResult result = service.place(f.input(), f.one_per_site());
  for (const PlacementDecision& d : result.decisions) {
    EXPECT_GT(d.energy_wh, 0.0);
    EXPECT_GT(d.carbon_g, 0.0);
    EXPECT_GE(d.rtt_ms, 0.0);
  }
}

TEST(PlacementService, IncrementalCallsRespectEarlierLoad) {
  Fixture f;
  PlacementService service(PolicyConfig::carbon_edge());
  // Saturate Miami's compute with repeated batches; later batches must
  // overflow to the next-greenest feasible zone without violating capacity.
  for (int round = 0; round < 12; ++round) {
    std::vector<sim::Application> apps;
    for (int i = 0; i < 4; ++i) {
      sim::Application app;
      app.id = round * 10 + i;
      app.model = sim::ModelType::kYoloV4;
      app.origin_site = 1;
      app.rps = 9.0;
      app.latency_limit_rtt_ms = 30.0;
      apps.push_back(app);
    }
    service.place(f.input(), apps);
  }
  for (const auto& site : f.cluster.sites()) {
    for (const auto& server : site.servers()) {
      EXPECT_LE(server.compute_used(), server.compute_capacity() + 1e-9);
      EXPECT_LE(server.memory_used_mb(), server.memory_capacity_mb() + 1e-9);
    }
  }
}

}  // namespace
}  // namespace carbonedge::core
