#include "runner/scenario_runner.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/policy.hpp"
#include "geo/region.hpp"
#include "util/parallelism.hpp"

namespace carbonedge::runner {
namespace {

core::SimulationConfig small_config() {
  core::SimulationConfig config;
  config.epochs = 6;
  config.workload.arrivals_per_site = 0.5;
  config.workload.model_weights = {0.0, 1.0, 0.0, 0.0};
  config.workload.latency_limit_rtt_ms = 25.0;
  config.workload.seed = 7;
  return config;
}

// Runs `grid` with the sweep leasing from a private budget of `lanes` lanes.
std::vector<ScenarioOutcome> run_on_lanes(std::size_t lanes, const ScenarioGrid& grid) {
  util::ParallelismBudget budget(lanes);
  return ScenarioRunner(ScenarioRunnerOptions{.budget = &budget}).run(grid);
}

TEST(ScenarioGrid, DefaultGridHasExactlyOneDefaultCell) {
  const ScenarioGrid grid;
  EXPECT_EQ(grid.size(), 1u);
  const auto scenarios = grid.expand();
  ASSERT_EQ(scenarios.size(), 1u);
  EXPECT_EQ(scenarios[0].index, 0u);
  EXPECT_EQ(scenarios[0].label, "default");
  EXPECT_FALSE(scenarios[0].region.cities.empty());
  EXPECT_FALSE(scenarios[0].mix.devices.empty());
}

TEST(ScenarioGrid, SizeIsProductOfAxisCardinalities) {
  ScenarioGrid grid(small_config());
  grid.with_policies({core::PolicyConfig::latency_aware(), core::PolicyConfig::carbon_edge()})
      .with_epochs({4, 6, 8})
      .with_workload_seeds({1, 2, 3, 4});
  EXPECT_EQ(grid.size(), 2u * 3u * 4u);
  const auto scenarios = grid.expand();
  ASSERT_EQ(scenarios.size(), grid.size());
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    EXPECT_EQ(scenarios[i].index, i);
  }
}

TEST(ScenarioGrid, ExpansionIsRowMajorWithSeedsInnermost) {
  ScenarioGrid grid(small_config());
  grid.with_policies({core::PolicyConfig::latency_aware(), core::PolicyConfig::carbon_edge()})
      .with_workload_seeds({11, 22});
  const auto scenarios = grid.expand();
  ASSERT_EQ(scenarios.size(), 4u);
  EXPECT_EQ(scenarios[0].config.policy.kind, core::PolicyKind::kLatencyAware);
  EXPECT_EQ(scenarios[0].config.workload.seed, 11u);
  EXPECT_EQ(scenarios[1].config.policy.kind, core::PolicyKind::kLatencyAware);
  EXPECT_EQ(scenarios[1].config.workload.seed, 22u);
  EXPECT_EQ(scenarios[2].config.policy.kind, core::PolicyKind::kCarbonEdge);
  EXPECT_EQ(scenarios[2].config.workload.seed, 11u);
  EXPECT_EQ(scenarios[3].config.policy.kind, core::PolicyKind::kCarbonEdge);
  EXPECT_EQ(scenarios[3].config.workload.seed, 22u);
}

TEST(ScenarioGrid, AxesOverrideBaseConfigAndUnsetAxesInheritIt) {
  core::SimulationConfig base = small_config();
  base.epochs = 24;
  base.reoptimize_every = 3;
  ScenarioGrid grid(base);
  grid.with_epochs({5});
  const auto scenarios = grid.expand();
  ASSERT_EQ(scenarios.size(), 1u);
  EXPECT_EQ(scenarios[0].config.epochs, 5u);             // overridden by the axis
  EXPECT_EQ(scenarios[0].config.reoptimize_every, 3u);   // inherited from base
  EXPECT_EQ(scenarios[0].config.workload.seed, 7u);
}

TEST(ScenarioGrid, LabelsNameEverySetAxisAndAreUnique) {
  ScenarioGrid grid(small_config());
  grid.with_regions({geo::florida_region(), geo::italy_region()})
      .with_policies({core::PolicyConfig::carbon_edge()});
  const auto scenarios = grid.expand();
  ASSERT_EQ(scenarios.size(), 2u);
  EXPECT_NE(scenarios[0].label.find("region="), std::string::npos);
  EXPECT_NE(scenarios[0].label.find("policy="), std::string::npos);
  EXPECT_NE(scenarios[0].label, scenarios[1].label);
}

TEST(ScenarioRunner, DistinctRegionsSharingANameGetTheirOwnCarbonService) {
  // cdn_region truncations share the display name but differ in city list;
  // the runner must not collapse them onto one service (the larger region's
  // extra zones would be missing and the sweep would throw).
  ScenarioGrid grid(small_config());
  grid.with_regions({geo::cdn_region(geo::Continent::kEurope, 3),
                     geo::cdn_region(geo::Continent::kEurope, 6)});
  const auto outcomes = run_on_lanes(2, grid);
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0].result.telemetry.size(), outcomes[0].scenario.config.epochs);
  EXPECT_EQ(outcomes[1].result.telemetry.size(), outcomes[1].scenario.config.epochs);
  // Labels must stay distinguishable too (site count disambiguates).
  EXPECT_NE(outcomes[0].scenario.label, outcomes[1].scenario.label);
}

TEST(ScenarioRunner, EmptyScenarioListIsANoOp) {
  const ScenarioRunner runner;
  const auto outcomes = runner.run(std::vector<Scenario>{});
  EXPECT_TRUE(outcomes.empty());
  const util::Table table = ScenarioRunner::summarize(outcomes);
  EXPECT_EQ(table.rows(), 0u);
}

TEST(ScenarioRunner, RunsEveryCellAndPreservesGridOrder) {
  ScenarioGrid grid(small_config());
  grid.with_policies({core::PolicyConfig::latency_aware(), core::PolicyConfig::carbon_edge()})
      .with_workload_seeds({1, 2});
  const auto outcomes = run_on_lanes(2, grid);
  ASSERT_EQ(outcomes.size(), grid.size());
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    EXPECT_EQ(outcomes[i].scenario.index, i);
    EXPECT_EQ(outcomes[i].result.telemetry.size(), outcomes[i].scenario.config.epochs);
  }
}

TEST(ScenarioRunner, DeterministicAcrossThreadCounts) {
  ScenarioGrid grid(small_config());
  grid.with_policies({core::PolicyConfig::latency_aware(), core::PolicyConfig::energy_aware(),
                      core::PolicyConfig::carbon_edge()})
      .with_workload_seeds({3, 9});

  const auto serial = run_on_lanes(1, grid);
  const auto parallel = run_on_lanes(4, grid);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].scenario.label, parallel[i].scenario.label);
    // Bit-identical results, not just approximately equal: each cell is
    // fully self-contained, so the schedule cannot perturb the arithmetic.
    EXPECT_EQ(serial[i].result.telemetry.total_carbon_g(),
              parallel[i].result.telemetry.total_carbon_g());
    EXPECT_EQ(serial[i].result.telemetry.total_energy_wh(),
              parallel[i].result.telemetry.total_energy_wh());
    EXPECT_EQ(serial[i].result.telemetry.mean_rtt_ms(),
              parallel[i].result.telemetry.mean_rtt_ms());
    EXPECT_EQ(serial[i].result.apps_placed, parallel[i].result.apps_placed);
    EXPECT_EQ(serial[i].result.apps_rejected, parallel[i].result.apps_rejected);
    EXPECT_EQ(serial[i].result.migrations, parallel[i].result.migrations);
  }
  EXPECT_EQ(ScenarioRunner::summarize(serial).to_string(),
            ScenarioRunner::summarize(parallel).to_string());
}

TEST(ScenarioGrid, WorkloadAxesOverrideBaseConfig) {
  ScenarioGrid grid(small_config());
  grid.with_rtt_limits({5.0, 30.0})
      .with_arrival_rates({0.25})
      .with_defer_epochs({12})
      .with_forecasters({"persistence"});
  EXPECT_EQ(grid.size(), 2u);
  const auto scenarios = grid.expand();
  ASSERT_EQ(scenarios.size(), 2u);
  EXPECT_DOUBLE_EQ(scenarios[0].config.workload.latency_limit_rtt_ms, 5.0);
  EXPECT_DOUBLE_EQ(scenarios[1].config.workload.latency_limit_rtt_ms, 30.0);
  for (const Scenario& scenario : scenarios) {
    EXPECT_DOUBLE_EQ(scenario.config.workload.arrivals_per_site, 0.25);
    EXPECT_EQ(scenario.config.workload.max_defer_epochs, 12u);
    EXPECT_EQ(scenario.forecaster, "persistence");
  }
  EXPECT_NE(scenarios[0].label.find("rtt=5"), std::string::npos);
  EXPECT_NE(scenarios[0].label.find("arrivals=0.25"), std::string::npos);
  EXPECT_NE(scenarios[0].label.find("defer=12"), std::string::npos);
  EXPECT_NE(scenarios[0].label.find("forecast=persistence"), std::string::npos);
}

TEST(ScenarioRunner, ForecasterAxisChangesPlacementAndServiceDedup) {
  // Distinct forecasters over one region must not collapse onto a single
  // carbon service; West US zone rankings are volatile enough that a lagging
  // moving average places differently than the oracle within two days.
  core::SimulationConfig config = small_config();
  config.policy = core::PolicyConfig::carbon_edge();
  config.epochs = 48;
  config.forecast_horizon_hours = 6;
  ScenarioGrid grid(config);
  grid.with_regions({geo::west_us_region()}).with_forecasters({"oracle", "moving_average"});
  const auto outcomes = run_on_lanes(2, grid);
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_NE(outcomes[0].scenario.label, outcomes[1].scenario.label);
  EXPECT_EQ(outcomes[0].result.telemetry.size(), 48u);
  EXPECT_EQ(outcomes[1].result.telemetry.size(), 48u);
  // If the runner collapsed both cells onto one service (dropping the
  // forecaster from the dedup key), the results would be identical.
  EXPECT_NE(outcomes[0].result.telemetry.total_carbon_g(),
            outcomes[1].result.telemetry.total_carbon_g());
}

TEST(ScenarioRunner, PopulationMixBuildsPopulationProportionalCluster) {
  DeviceMix population;
  population.name = "A2 (population)";
  population.total_servers = 12;
  ScenarioGrid grid(small_config());
  grid.with_regions({geo::florida_region()}).with_device_mixes({population});
  const auto outcomes = run_on_lanes(1, grid);
  ASSERT_EQ(outcomes.size(), 1u);
  // Every site exists in the telemetry, and the apportionment matches the
  // direct builder.
  const auto cluster =
      sim::make_population_cluster(geo::florida_region(), 12, sim::DeviceType::kA2);
  ASSERT_FALSE(outcomes[0].result.telemetry.epochs().empty());
  const auto& sites = outcomes[0].result.telemetry.epochs().front().sites;
  EXPECT_EQ(sites.size(), cluster.size());
}

TEST(ScenarioRunner, InitiallyOffServersStartCold) {
  // With every server initially off and power management disabled, nothing
  // hosts until placement activates a server; the activation ablation
  // relies on this starting state.
  DeviceMix cold;
  cold.name = "cold";
  cold.servers_per_site = 2;
  cold.initially_off_per_site = 1;
  core::SimulationConfig config = small_config();
  config.account_base_power = true;
  ScenarioGrid cold_grid(config);
  cold_grid.with_device_mixes({cold});
  DeviceMix warm = cold;
  warm.name = "warm";
  warm.initially_off_per_site = 0;
  ScenarioGrid warm_grid(config);
  warm_grid.with_device_mixes({warm});
  const auto cold_outcome = run_on_lanes(2, cold_grid);
  const auto warm_outcome = run_on_lanes(2, warm_grid);
  // Half the fleet starting powered off must show up as less base energy.
  EXPECT_LT(cold_outcome[0].result.telemetry.total_energy_wh(),
            warm_outcome[0].result.telemetry.total_energy_wh());
}

TEST(ScenarioRunner, GridDispatchMatchesHandRolledSerialLoop) {
  // The ported benches promise byte-identical tables to their former serial
  // loops: a grid cell must be indistinguishable from constructing the
  // service, cluster, and simulation by hand.
  core::SimulationConfig config = small_config();
  config.epochs = 12;
  const std::vector<core::PolicyConfig> policies = {core::PolicyConfig::latency_aware(),
                                                    core::PolicyConfig::carbon_edge()};
  const geo::Region region = geo::central_eu_region();

  ScenarioGrid grid(config);
  grid.with_regions({region}).with_policies(policies);
  const auto outcomes = ScenarioRunner().run(grid);
  ASSERT_EQ(outcomes.size(), policies.size());

  carbon::CarbonIntensityService service;
  service.add_region(region);
  core::EdgeSimulation simulation(
      sim::make_uniform_cluster(region, 1, sim::DeviceType::kA2), service);
  const auto serial = core::run_policies(simulation, config, policies);
  ASSERT_EQ(serial.size(), outcomes.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].telemetry.total_carbon_g(),
              outcomes[i].result.telemetry.total_carbon_g());
    EXPECT_EQ(serial[i].telemetry.total_energy_wh(),
              outcomes[i].result.telemetry.total_energy_wh());
    EXPECT_EQ(serial[i].telemetry.mean_rtt_ms(), outcomes[i].result.telemetry.mean_rtt_ms());
    EXPECT_EQ(serial[i].apps_placed, outcomes[i].result.apps_placed);
    EXPECT_EQ(serial[i].apps_rejected, outcomes[i].result.apps_rejected);
    EXPECT_EQ(serial[i].apps_expired_deferred, outcomes[i].result.apps_expired_deferred);
    EXPECT_EQ(serial[i].migrations, outcomes[i].result.migrations);
    EXPECT_EQ(serial[i].migrations_skipped, outcomes[i].result.migrations_skipped);
  }
}

TEST(ScenarioRunner, SummaryReportsExpiredDeferredColumn) {
  const ScenarioGrid grid(small_config());
  const auto outcomes = run_on_lanes(1, grid);
  const util::Table table = ScenarioRunner::summarize(outcomes);
  EXPECT_NE(table.to_string().find("ExpiredDef"), std::string::npos);
}

TEST(ScenarioRunner, SummaryReportsDowntimeColumn) {
  const ScenarioGrid grid(small_config());
  const auto outcomes = run_on_lanes(1, grid);
  const util::Table table = ScenarioRunner::summarize(outcomes);
  EXPECT_NE(table.to_string().find("Downtime"), std::string::npos);
}

TEST(ScenarioRunner, SummaryHasOneRowPerScenarioInOrder) {
  ScenarioGrid grid(small_config());
  grid.with_policies({core::PolicyConfig::latency_aware(), core::PolicyConfig::carbon_edge()});
  const auto outcomes = run_on_lanes(2, grid);
  const util::Table table = ScenarioRunner::summarize(outcomes);
  EXPECT_EQ(table.rows(), outcomes.size());
  const std::string rendered = table.to_string();
  EXPECT_NE(rendered.find("policy="), std::string::npos);
}

}  // namespace
}  // namespace carbonedge::runner
