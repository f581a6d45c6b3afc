#include "sim/datacenter.hpp"

#include <gtest/gtest.h>

#include "geo/region.hpp"

namespace carbonedge::sim {
namespace {

TEST(DataCenter, ZoneIsCityName) {
  const auto& db = geo::builtin_sites();
  EdgeDataCenter dc(0, db.require("Miami"));
  EXPECT_EQ(dc.zone(), "Miami");
  EXPECT_EQ(dc.city().country, "US");
}

TEST(DataCenter, ServerNamesAutoGenerated) {
  const auto& db = geo::builtin_sites();
  EdgeDataCenter dc(0, db.require("Lyon"));
  ServerConfig config;
  config.device = DeviceType::kA2;
  dc.add_server(config);
  dc.add_server(config);  // note: may reallocate, so read back via servers()
  EXPECT_EQ(dc.servers()[0].config().name, "Lyon/s0");
  EXPECT_EQ(dc.servers()[1].config().name, "Lyon/s1");
  EXPECT_NE(dc.servers()[0].id(), dc.servers()[1].id());
}

TEST(DataCenter, AggregatesAcrossServers) {
  const auto& db = geo::builtin_sites();
  EdgeDataCenter dc(0, db.require("Bern"));
  ServerConfig config;
  config.device = DeviceType::kA2;
  dc.add_server(config);
  dc.add_server(config);
  dc.servers()[0].host({1, ModelType::kResNet50, 5.0});
  EXPECT_EQ(dc.app_count(), 1u);
  EXPECT_GT(dc.power_draw_w(), 2.0 * device_profile(DeviceType::kA2).idle_power_w);
  EXPECT_GT(dc.dynamic_power_w(), 0.0);
  EXPECT_LT(dc.dynamic_power_w(), dc.power_draw_w());
}

TEST(Cluster, BuildsOneSitePerRegionCity) {
  const EdgeCluster cluster(geo::florida_region());
  EXPECT_EQ(cluster.size(), 5u);
  EXPECT_EQ(cluster.name(), "Florida");
  EXPECT_EQ(cluster.cities()[1].name, "Miami");
}

TEST(Cluster, UniformClusterServerCounts) {
  EdgeCluster cluster = make_uniform_cluster(geo::florida_region(), 3, DeviceType::kA2);
  for (const EdgeDataCenter& dc : cluster.sites()) {
    EXPECT_EQ(dc.servers().size(), 3u);
    for (const EdgeServer& s : dc.servers()) EXPECT_EQ(s.device(), DeviceType::kA2);
  }
  EXPECT_EQ(cluster.all_servers().size(), 15u);
}

TEST(Cluster, AllServersReferencesAreLive) {
  EdgeCluster cluster = make_uniform_cluster(geo::florida_region(), 1, DeviceType::kA2);
  auto refs = cluster.all_servers();
  ASSERT_EQ(refs.size(), 5u);
  refs[2].server->host({7, ModelType::kResNet50, 1.0});
  EXPECT_EQ(cluster.sites()[refs[2].site].app_count(), 1u);
}

TEST(Cluster, PopulationClusterApportionsServers) {
  const std::size_t total = 20;
  EdgeCluster cluster =
      make_population_cluster(geo::florida_region(), total, DeviceType::kA2);
  std::size_t count = 0;
  std::size_t miami_servers = 0;
  std::size_t tallahassee_servers = 0;
  for (const EdgeDataCenter& dc : cluster.sites()) {
    EXPECT_GE(dc.servers().size(), 1u);  // floor of one per site
    count += dc.servers().size();
    if (dc.zone() == "Miami") miami_servers = dc.servers().size();
    if (dc.zone() == "Tallahassee") tallahassee_servers = dc.servers().size();
  }
  EXPECT_EQ(count, total);
  // Miami's metro is ~15x Tallahassee's.
  EXPECT_GT(miami_servers, tallahassee_servers);
}

TEST(Cluster, PopulationClusterSmallTotalStillFloorsOne) {
  EdgeCluster cluster = make_population_cluster(geo::florida_region(), 2, DeviceType::kA2);
  for (const EdgeDataCenter& dc : cluster.sites()) EXPECT_EQ(dc.servers().size(), 1u);
}

TEST(Cluster, HeteroClusterCyclesDevices) {
  const std::vector<DeviceType> devices = {DeviceType::kOrinNano, DeviceType::kA2,
                                           DeviceType::kGtx1080};
  EdgeCluster cluster = make_hetero_cluster(geo::florida_region(), 3, devices);
  for (const EdgeDataCenter& dc : cluster.sites()) {
    ASSERT_EQ(dc.servers().size(), 3u);
  }
  // Across the cluster all three device kinds appear.
  std::array<int, kDeviceCount> seen{};
  for (auto& ref : cluster.all_servers()) ++seen[static_cast<std::size_t>(ref.server->device())];
  EXPECT_GT(seen[0], 0);
  EXPECT_GT(seen[1], 0);
  EXPECT_GT(seen[2], 0);
}

TEST(Cluster, HeteroClusterEmptyDeviceListYieldsNoServers) {
  EdgeCluster cluster = make_hetero_cluster(geo::florida_region(), 2, {});
  EXPECT_TRUE(cluster.all_servers().empty());
}

TEST(Cluster, CopyIsDeep) {
  EdgeCluster cluster = make_uniform_cluster(geo::florida_region(), 1, DeviceType::kA2);
  EdgeCluster copy = cluster;
  copy.sites()[0].servers()[0].host({1, ModelType::kResNet50, 1.0});
  EXPECT_EQ(copy.sites()[0].app_count(), 1u);
  EXPECT_EQ(cluster.sites()[0].app_count(), 0u);
}

}  // namespace
}  // namespace carbonedge::sim
