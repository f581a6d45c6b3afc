#include "core/orchestrator.hpp"
#include "core/power_manager.hpp"

#include <gtest/gtest.h>

namespace carbonedge::core {
namespace {

sim::EdgeCluster two_server_cluster() {
  return sim::make_uniform_cluster(geo::florida_region(), 2, sim::DeviceType::kA2);
}

TEST(PowerManager, DisabledIsNoop) {
  sim::EdgeCluster cluster = two_server_cluster();
  PowerManager manager;  // disabled by default
  EXPECT_EQ(manager.sweep(cluster), 0u);
  for (auto& site : cluster.sites()) {
    for (auto& server : site.servers()) EXPECT_TRUE(server.powered_on());
  }
}

TEST(PowerManager, PowersOffIdleServersAboveFloor) {
  sim::EdgeCluster cluster = two_server_cluster();
  PowerManagerConfig config;
  config.enabled = true;
  config.min_on_per_site = 1;
  PowerManager manager(config);
  const std::size_t off = manager.sweep(cluster);
  EXPECT_EQ(off, cluster.size());  // one of two per site
  for (auto& site : cluster.sites()) {
    std::size_t on = 0;
    for (auto& server : site.servers()) on += server.powered_on();
    EXPECT_EQ(on, 1u);
  }
}

TEST(PowerManager, NeverPowersOffBusyServers) {
  sim::EdgeCluster cluster = two_server_cluster();
  for (auto& site : cluster.sites()) {
    for (auto& server : site.servers()) {
      server.host({server.id() + 1000, sim::ModelType::kResNet50, 1.0});
    }
  }
  PowerManagerConfig config;
  config.enabled = true;
  config.min_on_per_site = 0;
  PowerManager manager(config);
  EXPECT_EQ(manager.sweep(cluster), 0u);
}

TEST(PowerManager, FloorOfZeroAllowsFullShutdownOfIdleSites) {
  sim::EdgeCluster cluster = two_server_cluster();
  PowerManagerConfig config;
  config.enabled = true;
  config.min_on_per_site = 0;
  PowerManager manager(config);
  EXPECT_EQ(manager.sweep(cluster), cluster.size() * 2);
}

PlacementResult fake_placement(std::size_t count) {
  PlacementResult result;
  for (std::size_t i = 0; i < count; ++i) {
    PlacementDecision d;
    d.app = i;
    d.site = i % 3;
    d.server = 0;
    d.rtt_ms = 4.0;
    result.decisions.push_back(d);
  }
  return result;
}

TEST(Orchestrator, DeployLatencyIsAboutOneSecond) {
  // Section 6.5 reports ~1.01 s to initiate an application deployment.
  Orchestrator orchestrator;
  orchestrator.deploy(fake_placement(50));
  EXPECT_GT(orchestrator.mean_deploy_ms(), 600.0);
  EXPECT_LT(orchestrator.mean_deploy_ms(), 1600.0);
}

TEST(Orchestrator, LatencyIncludesNetworkRtt) {
  // Same seed, same draws: the only difference is the client round trip.
  Orchestrator near;
  Orchestrator far;
  PlacementResult result = fake_placement(1);
  near.deploy(result);
  result.decisions[0].rtt_ms += 12.5;
  far.deploy(result);
  EXPECT_NEAR(far.mean_deploy_ms() - near.mean_deploy_ms(), 12.5, 1e-9);
}

TEST(Orchestrator, EmptyResultMeansNoDeployments) {
  Orchestrator orchestrator;
  orchestrator.deploy(PlacementResult{});
  EXPECT_DOUBLE_EQ(orchestrator.mean_deploy_ms(), 0.0);
}

}  // namespace
}  // namespace carbonedge::core
