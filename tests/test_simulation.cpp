#include "core/simulation.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "store/codecs.hpp"
#include "util/hash.hpp"

namespace carbonedge::core {
namespace {

carbon::CarbonIntensityService make_service(const geo::Region& region) {
  carbon::CarbonIntensityService service;
  service.add_region(region);
  return service;
}

SimulationConfig testbed_config(std::uint32_t epochs = 24) {
  SimulationConfig config;
  config.epochs = epochs;
  config.workload.arrivals_per_site = 0.0;
  config.workload.initial_per_site = 1;
  config.workload.model_weights = {0.0, 1.0, 0.0, 0.0};  // ResNet50
  config.workload.latency_limit_rtt_ms = 25.0;
  return config;
}

TEST(Simulation, MissingZoneTraceThrows) {
  carbon::CarbonIntensityService empty;
  auto cluster = sim::make_uniform_cluster(geo::florida_region(), 1, sim::DeviceType::kA2);
  EXPECT_THROW(EdgeSimulation(std::move(cluster), empty), std::invalid_argument);
}

TEST(SimulationEngine, MissingZoneTraceThrowsAtConstruction) {
  // The engine resolves every site's trace when it is built, so a zone
  // without a trace fails there, not in the first step that queries it.
  const auto region = geo::florida_region();
  const auto cities = region.resolve();
  carbon::CarbonIntensityService partial;
  for (std::size_t i = 1; i < cities.size(); ++i) {
    partial.add_trace(carbon::CarbonTrace(cities[i].name, {100.0, 200.0}));
  }
  const auto cluster = sim::make_uniform_cluster(region, 1, sim::DeviceType::kA2);
  const geo::LatencyProvider latency(geo::LatencyModel{}, cluster.cities());
  EXPECT_THROW(SimulationEngine(cluster, partial, latency, testbed_config()), std::out_of_range);
  partial.add_trace(carbon::CarbonTrace(cities[0].name, {100.0, 200.0}));
  EXPECT_NO_THROW(SimulationEngine(cluster, partial, latency, testbed_config()));
}

TEST(SimulationEngine, OutOfRangeSitesThrowBeforeAnyStateChanges) {
  // Site indices can come from outside (a serve event feed) and index the
  // latency rows and the site traces, so an arrival origin or a failure
  // site past the cluster is refused before the epoch runs. So is a failure
  // naming a server its site does not have.
  const auto region = geo::florida_region();
  const auto service = make_service(region);
  const EdgeSimulation simulation(sim::make_uniform_cluster(region, 1, sim::DeviceType::kA2),
                                  service);
  SimulationEngine engine(simulation.pristine_cluster(), service, simulation.latency(),
                          testbed_config(2));
  sim::Application app;
  app.model = sim::ModelType::kResNet50;
  app.rps = 4.0;
  app.latency_limit_rtt_ms = 25.0;
  app.origin_site = engine.cluster().size();
  EXPECT_THROW(engine.step({app}), std::invalid_argument);
  const ServerFailureEvent failure{engine.cluster().size(), 0};
  SimulationEngine::StepOptions options;
  options.failures = std::span(&failure, 1);
  EXPECT_THROW(engine.step({}, options), std::invalid_argument);
  const ServerFailureEvent unknown_server{0, 999};
  options.failures = std::span(&unknown_server, 1);
  EXPECT_THROW(engine.step({}, options), std::invalid_argument);
  EXPECT_EQ(engine.next_epoch(), 0u);
  EXPECT_EQ(engine.partial().server_failures, 0u);

  app.origin_site = 0;
  engine.step({app});
  EXPECT_EQ(engine.next_epoch(), 1u);
}

// An injected crash names its server by (site, server id); the engine
// turns that into the server's layout column. At a site of two servers the
// event for id 1 must take down id 1 alone, redeploy only its apps, and
// bring it back after repair_epochs; a second event while it is down must
// not restart the repair timer.
TEST(SimulationEngine, InjectedCrashOfSecondServerAtASite) {
  const auto region = geo::florida_region();
  const auto service = make_service(region);
  const EdgeSimulation simulation(sim::make_uniform_cluster(region, 2, sim::DeviceType::kA2),
                                  service);
  SimulationConfig config = testbed_config(8);
  config.failures.repair_epochs = 3;
  SimulationEngine engine(simulation.pristine_cluster(), service, simulation.latency(), config);

  // Enough long-lived apps from every site that both servers of a site
  // carry load.
  std::vector<sim::Application> arrivals;
  for (std::size_t site = 0; site < engine.cluster().size(); ++site) {
    for (int k = 0; k < 8; ++k) {
      sim::Application app;
      app.id = static_cast<sim::AppId>(arrivals.size() + 1);
      app.model = sim::ModelType::kResNet50;
      app.rps = 4.0;
      app.latency_limit_rtt_ms = 25.0;
      app.origin_site = site;
      app.remaining_epochs = 100;
      arrivals.push_back(app);
    }
  }
  engine.step(arrivals);

  const auto hosted_ids = [&](std::size_t site, std::size_t index) {
    std::vector<sim::AppId> ids;
    for (const sim::AppInstance& app : engine.cluster().sites()[site].servers()[index].apps()) {
      ids.push_back(app.id);
    }
    return ids;
  };
  std::size_t site = engine.cluster().size();
  for (std::size_t s = 0; s < engine.cluster().size(); ++s) {
    if (!hosted_ids(s, 1).empty()) {
      site = s;
      break;
    }
  }
  ASSERT_LT(site, engine.cluster().size()) << "no site's server 1 carries load";
  const sim::EdgeServer& crashed = engine.cluster().sites()[site].servers()[1];
  ASSERT_EQ(crashed.id(), 1u);
  const std::size_t victims = hosted_ids(site, 1).size();
  // Every other server's apps, which the crash must leave in place.
  std::vector<std::vector<std::vector<sim::AppId>>> before(engine.cluster().size());
  for (std::size_t s = 0; s < engine.cluster().size(); ++s) {
    for (std::size_t j = 0; j < engine.cluster().sites()[s].servers().size(); ++j) {
      before[s].push_back(hosted_ids(s, j));
    }
  }

  const ServerFailureEvent failure{site, 1};
  SimulationEngine::StepOptions options;
  options.failures = std::span(&failure, 1);
  engine.step({}, options);  // epoch 1: the crash, back at epoch 1 + 3
  EXPECT_TRUE(crashed.failed());
  EXPECT_FALSE(engine.cluster().sites()[site].servers()[0].failed());
  EXPECT_EQ(engine.partial().server_failures, 1u);
  EXPECT_EQ(engine.partial().apps_redeployed, victims);
  for (std::size_t s = 0; s < engine.cluster().size(); ++s) {
    for (std::size_t j = 0; j < before[s].size(); ++j) {
      if (s == site && j == 1) continue;
      const std::vector<sim::AppId> now = hosted_ids(s, j);
      for (const sim::AppId id : before[s][j]) {
        EXPECT_NE(std::find(now.begin(), now.end(), id), now.end())
            << "app " << id << " left site " << s << " server " << j;
      }
    }
  }

  engine.step({}, options);  // epoch 2: already down, the timer keeps running
  EXPECT_EQ(engine.partial().server_failures, 1u);
  EXPECT_EQ(engine.partial().apps_redeployed, victims);
  engine.step({});  // epoch 3
  EXPECT_TRUE(crashed.failed());
  engine.step({});  // epoch 4: repaired
  EXPECT_FALSE(crashed.failed());
  EXPECT_TRUE(crashed.powered_on());
  EXPECT_EQ(engine.partial().server_failures, 1u);
}

TEST(Simulation, RunProducesOneRecordPerEpoch) {
  const auto region = geo::florida_region();
  const auto service = make_service(region);
  EdgeSimulation simulation(
      sim::make_uniform_cluster(region, 1, sim::DeviceType::kA2), service);
  const SimulationResult result = simulation.run(testbed_config(24));
  EXPECT_EQ(result.telemetry.size(), 24u);
  EXPECT_EQ(result.apps_placed, 5u);
  EXPECT_EQ(result.apps_rejected, 0u);
}

TEST(Simulation, RunsAreIndependentAndRepeatable) {
  const auto region = geo::florida_region();
  const auto service = make_service(region);
  EdgeSimulation simulation(
      sim::make_uniform_cluster(region, 1, sim::DeviceType::kA2), service);
  const SimulationResult a = simulation.run(testbed_config());
  const SimulationResult b = simulation.run(testbed_config());
  EXPECT_DOUBLE_EQ(a.telemetry.total_carbon_g(), b.telemetry.total_carbon_g());
  EXPECT_DOUBLE_EQ(a.telemetry.mean_rtt_ms(), b.telemetry.mean_rtt_ms());
}

TEST(Simulation, CarbonEdgeBeatsLatencyAwareOnCarbon) {
  const auto region = geo::florida_region();
  const auto service = make_service(region);
  EdgeSimulation simulation(
      sim::make_uniform_cluster(region, 1, sim::DeviceType::kA2), service);
  const auto results = run_policies(simulation, testbed_config(),
                                    {PolicyConfig::latency_aware(), PolicyConfig::carbon_edge()});
  EXPECT_GT(carbon_saving(results[0], results[1]), 0.15);
  // ... at a bounded latency price (mesoscale distances).
  EXPECT_LT(latency_increase_ms(results[0], results[1]), 15.0);
  EXPECT_GE(latency_increase_ms(results[0], results[1]), 0.0);
}

TEST(Simulation, DeparturesFreeCapacity) {
  const auto region = geo::florida_region();
  const auto service = make_service(region);
  EdgeSimulation simulation(
      sim::make_uniform_cluster(region, 1, sim::DeviceType::kA2), service);
  SimulationConfig config;
  config.epochs = 10;
  config.workload.arrivals_per_site = 0.0;
  config.workload.initial_per_site = 2;
  config.workload.initial_lifetime_epochs = 3;  // all depart after 3 epochs
  config.workload.model_weights = {0.0, 1.0, 0.0, 0.0};
  const SimulationResult result = simulation.run(config);
  const auto& last = result.telemetry.epochs().back();
  std::uint32_t hosted = 0;
  for (const auto& site : last.sites) hosted += site.apps_hosted;
  EXPECT_EQ(hosted, 0u);
  // Early epochs did host the apps.
  const auto& first = result.telemetry.epochs().front();
  std::uint32_t initial_hosted = 0;
  for (const auto& site : first.sites) initial_hosted += site.apps_hosted;
  EXPECT_EQ(initial_hosted, 10u);
}

TEST(Simulation, ReoptimizationMigratesApps) {
  // Two zones alternate which is greener every 12 hours; 12-hourly
  // re-optimization must chase the green zone (Figure 13's migration story).
  const auto region = geo::florida_region();
  carbon::CarbonIntensityService service;
  const auto cities = region.resolve();
  for (std::size_t i = 0; i < cities.size(); ++i) {
    std::vector<double> values(carbon::kHoursPerYear, 600.0);
    if (i < 2) {
      for (carbon::HourIndex h = 0; h < values.size(); ++h) {
        const bool first_half = (h / 12) % 2 == 0;
        values[h] = (i == 0) == first_half ? 50.0 : 550.0;
      }
    }
    service.add_trace(carbon::CarbonTrace(cities[i].name, std::move(values)));
  }
  EdgeSimulation simulation(
      sim::make_uniform_cluster(region, 1, sim::DeviceType::kA2), service);
  SimulationConfig config = testbed_config(48);
  config.workload.latency_limit_rtt_ms = 30.0;
  config.reoptimize_every = 12;
  const SimulationResult result = simulation.run(config);
  EXPECT_GT(result.migrations, 0u);
  EXPECT_GT(result.migration_carbon_g, 0.0);
  EXPECT_EQ(result.apps_rejected, 0u);
}

TEST(Simulation, FullRowsAndWideBandGiveIdenticalOutcomes) {
  // One latency layout, one behaviour: band 0 stores full rows directly,
  // and a band wide enough to keep every pair reaches full rows through
  // the banded constructor. Placement, re-optimization, the migration veto
  // and the rejected-migrant fallback must not tell them apart.
  const auto region = geo::cdn_region(geo::Continent::kNorthAmerica);
  const auto service = make_service(region);
  SimulationConfig config = testbed_config(48);
  config.workload.arrivals_per_site = 0.5;
  config.reoptimize_every = 12;
  config.migration.cost_aware = true;
  const auto run_with_band = [&](double band_ms) {
    EdgeSimulation simulation(sim::make_uniform_cluster(region, 1, sim::DeviceType::kA2),
                              service, geo::LatencyModel{}, band_ms);
    const std::size_t sites = simulation.latency().size();
    EXPECT_EQ(simulation.latency().stored_entries(), sites * sites);
    const SimulationResult result = simulation.run(config);
    EXPECT_GT(result.apps_placed, 0u);
    EXPECT_GT(result.migrations + result.migrations_skipped, 0u);
    return store::encode_outcome(result);
  };
  const std::string full_rows = run_with_band(0.0);
  EXPECT_EQ(full_rows, run_with_band(1e6));
}

TEST(Simulation, BasePowerAccountingIncreasesEnergy) {
  const auto region = geo::florida_region();
  const auto service = make_service(region);
  EdgeSimulation simulation(
      sim::make_uniform_cluster(region, 1, sim::DeviceType::kA2), service);
  SimulationConfig dynamic_only = testbed_config();
  SimulationConfig with_base = testbed_config();
  with_base.account_base_power = true;
  const SimulationResult lean = simulation.run(dynamic_only);
  const SimulationResult full = simulation.run(with_base);
  EXPECT_GT(full.telemetry.total_energy_wh(), lean.telemetry.total_energy_wh() * 1.5);
}

TEST(Simulation, PowerManagementReducesBasePowerFootprint) {
  const auto region = geo::florida_region();
  const auto service = make_service(region);
  EdgeSimulation simulation(
      sim::make_uniform_cluster(region, 2, sim::DeviceType::kA2), service);
  SimulationConfig all_on = testbed_config();
  all_on.account_base_power = true;
  SimulationConfig managed = all_on;
  managed.power.enabled = true;
  managed.power.min_on_per_site = 0;
  const SimulationResult on = simulation.run(all_on);
  const SimulationResult swept = simulation.run(managed);
  EXPECT_LT(swept.telemetry.total_energy_wh(), on.telemetry.total_energy_wh());
}

TEST(Simulation, SolveTimeAccounted) {
  const auto region = geo::florida_region();
  const auto service = make_service(region);
  EdgeSimulation simulation(
      sim::make_uniform_cluster(region, 1, sim::DeviceType::kA2), service);
  const SimulationResult result = simulation.run(testbed_config());
  EXPECT_GT(result.mean_deploy_ms, 0.0);
}

TEST(Simulation, StartHourShiftsCarbonAccounting) {
  const auto region = geo::west_us_region();
  const auto service = make_service(region);
  EdgeSimulation simulation(
      sim::make_uniform_cluster(region, 1, sim::DeviceType::kA2), service);
  SimulationConfig january = testbed_config();
  SimulationConfig july = testbed_config();
  july.start_hour = carbon::month_start_hour(6);
  const SimulationResult winter = simulation.run(january);
  const SimulationResult summer = simulation.run(july);
  EXPECT_NE(winter.telemetry.total_carbon_g(), summer.telemetry.total_carbon_g());
}

TEST(Simulation, LoadNeverExceedsCapacityThroughoutRun) {
  const auto region = geo::florida_region();
  const auto service = make_service(region);
  auto cluster = sim::make_uniform_cluster(region, 1, sim::DeviceType::kA2);
  EdgeSimulation simulation(std::move(cluster), service);
  SimulationConfig config;
  config.epochs = 40;
  config.workload.arrivals_per_site = 3.0;  // heavy churn
  config.workload.mean_lifetime_epochs = 6.0;
  config.workload.model_weights = {1.0, 1.0, 1.0, 0.0};
  const SimulationResult result = simulation.run(config);
  // The run completes, places most arrivals, and rejects only under
  // genuine saturation.
  EXPECT_GT(result.apps_placed, 0u);
  EXPECT_EQ(result.telemetry.size(), 40u);
}

// The recorded-digest scenario below: 48 epochs on a CDN cluster of at
// least 64 sites, with deferral, cost-aware re-optimization every 12 epochs
// and drawn failures.
SimulationConfig serial_scenario_config() {
  SimulationConfig config;
  config.epochs = 48;
  config.workload.arrivals_per_site = 1.0;
  config.workload.max_defer_epochs = 4;
  config.reoptimize_every = 12;
  config.migration.cost_aware = true;
  config.failures.mtbf_epochs = 200.0;
  config.failures.repair_epochs = 6;
  return config;
}

SimulationResult run_serial_scenario(const SimulationConfig& config) {
  const auto region = geo::cdn_region(geo::Continent::kNorthAmerica, 80);
  const auto service = make_service(region);
  const EdgeSimulation simulation(sim::make_uniform_cluster(region, 2, sim::DeviceType::kA2),
                                  service);
  SimulationEngine engine(simulation.pristine_cluster(), service, simulation.latency(), config);
  EXPECT_GE(engine.cluster().size(), 64u);
  sim::WorkloadGenerator generator(config.workload, engine.cluster());
  for (std::uint32_t epoch = 0; epoch < config.epochs; ++epoch) {
    engine.step(generator.arrivals(epoch));
  }
  return engine.finish();
}

// Digest of a run through every per-item section of the epoch body: drawn
// MTBF failures, deferred arrivals (max_defer_epochs > 0), cost-aware
// re-optimization with its migration veto, and per-site / per-app
// accounting, on a cluster of at least 64 sites with hundreds of live apps.
// The constant was printed by this test, built in Release with g++ 12 on
// x86-64, against an engine that still sharded those four sections across
// worker lanes (the same digest at 1 and 4 lanes). The serial epoch body
// must reproduce every RNG draw and every floating-point fold of that run.
TEST(SimulationEngine, SerialEpochMatchesRecordedDigest) {
  const SimulationResult result = run_serial_scenario(serial_scenario_config());
  EXPECT_GT(result.server_failures, 0u);
  EXPECT_GT(result.apps_deferred, 64u);
  EXPECT_GT(result.migrations, 0u);
  EXPECT_GT(result.migrations_skipped, 0u);
  util::Fingerprint fp;
  fp.mix(std::string_view(store::encode_outcome(result)));
  EXPECT_EQ(fp.digest().hex(), "29911fbe9da8fa525053e79e4b5b111c");
}

/// span.core.step.<phase>.calls of the global registry, by phase.
std::map<std::string, std::uint64_t> step_phase_calls() {
  constexpr std::string_view kPrefix = "span.core.step.";
  constexpr std::string_view kSuffix = ".calls";
  std::map<std::string, std::uint64_t> calls;
  obs::Registry::global().visit([&](const obs::MetricRef& m) {
    if (m.kind != obs::MetricKind::kCounter || !m.name.starts_with(kPrefix) ||
        !m.name.ends_with(kSuffix)) {
      return;
    }
    const std::string_view phase =
        m.name.substr(kPrefix.size(), m.name.size() - kPrefix.size() - kSuffix.size());
    calls[std::string(phase)] = m.counter->value();
  });
  return calls;
}

// Every phase of step() but the re-optimization runs once per epoch; that
// one runs only on the epochs that re-optimize.
TEST(SimulationEngine, PhaseSpansCountTheirEpochs) {
  const SimulationConfig config = serial_scenario_config();
  const std::map<std::string, std::uint64_t> before = step_phase_calls();
  (void)run_serial_scenario(config);
  const std::map<std::string, std::uint64_t> after = step_phase_calls();

  std::uint64_t reopt_epochs = 0;
  for (std::uint32_t epoch = 1; epoch < config.epochs; ++epoch) {
    if (epoch % config.reoptimize_every == 0) ++reopt_epochs;
  }
  ASSERT_EQ(reopt_epochs, 3u);
  const std::vector<std::string> every_epoch = {
      "fill_site_intensity", "apply_failures", "depart",           "admit_and_release",
      "commit",              "account_sites",  "fold_app_samples", "power_sweep"};
  ASSERT_EQ(after.size(), every_epoch.size() + 1) << "a core.step phase without a check";
  for (const auto& [phase, calls] : after) {
    SCOPED_TRACE(phase);
    const auto it = before.find(phase);
    const std::uint64_t delta = calls - (it == before.end() ? 0 : it->second);
    if (phase == "reopt") {
      EXPECT_EQ(delta, reopt_epochs);
    } else {
      EXPECT_NE(std::find(every_epoch.begin(), every_epoch.end(), phase), every_epoch.end());
      EXPECT_EQ(delta, config.epochs);
    }
  }
}

}  // namespace
}  // namespace carbonedge::core
