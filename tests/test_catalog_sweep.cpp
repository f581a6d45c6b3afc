// Catalog-wide property sweeps: every built-in city must synthesize a
// physically sane trace, and placement must respect its invariants on
// randomized epochs across arbitrary clusters. Parameterized over the whole
// city database / random seeds (TEST_P).
#include <gtest/gtest.h>

#include "carbon/synthesizer.hpp"
#include "core/simulation.hpp"
#include "util/random.hpp"

namespace carbonedge {
namespace {

class CitySweep : public ::testing::TestWithParam<int> {};

TEST_P(CitySweep, SynthesizedTraceIsPhysical) {
  const auto& db = geo::builtin_sites();
  const geo::City& city = db.by_id(static_cast<geo::SiteId>(GetParam()));
  const carbon::ZoneSpec spec = carbon::ZoneCatalog::builtin().spec_for(city);
  carbon::SynthesizerParams params;
  params.hours = 24 * 60;  // two months is enough for the invariants
  const carbon::CarbonTrace trace = carbon::TraceSynthesizer(params).synthesize(spec);

  // Intensity bounded by the physical extremes of the source table, with
  // headroom for the import blend.
  for (const double v : trace.values()) {
    EXPECT_GE(v, 10.0) << city.name;   // cleaner than pure wind everywhere
    EXPECT_LE(v, 850.0) << city.name;  // dirtier than pure coal never
  }
  // Average mix normalized.
  EXPECT_NEAR(trace.average_mix().total(), 1.0, 1e-9) << city.name;
  // The trace mean is correlated with the static capacity-mix intensity:
  // fossil-heavy specs must not produce clean traces and vice versa.
  const double static_ci = spec.capacity.carbon_intensity();
  if (static_ci < 100.0) {
    EXPECT_LT(trace.mean_over(0, params.hours), 320.0) << city.name;
  }
  if (static_ci > 500.0) {
    EXPECT_GT(trace.mean_over(0, params.hours), 300.0) << city.name;
  }
}

// Exactly one case per built-in city.
INSTANTIATE_TEST_SUITE_P(AllCities, CitySweep,
                         ::testing::Range(0, static_cast<int>(geo::builtin_sites().size())));

class PlacementSweep : public ::testing::TestWithParam<int> {};

TEST_P(PlacementSweep, InvariantsHoldOnRandomizedEpochs) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 48271 + 13);
  const std::vector<geo::Region> regions = geo::mesoscale_regions();
  const geo::Region region = regions[rng.uniform_index(regions.size())];
  carbon::CarbonIntensityService service;
  service.add_region(region);

  const std::vector<sim::DeviceType> pools[] = {
      {sim::DeviceType::kA2},
      {sim::DeviceType::kOrinNano, sim::DeviceType::kGtx1080},
      {sim::DeviceType::kOrinNano, sim::DeviceType::kA2, sim::DeviceType::kGtx1080},
  };
  core::EdgeSimulation simulation(
      sim::make_hetero_cluster(region, 1 + rng.uniform_index(3),
                               pools[rng.uniform_index(3)]),
      service);

  core::SimulationConfig config;
  config.epochs = 12;
  config.start_hour = static_cast<carbon::HourIndex>(rng.uniform_index(8000));
  config.workload.arrivals_per_site = rng.uniform(0.2, 3.0);
  config.workload.model_weights = {rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0),
                                   rng.uniform(0.0, 1.0), 0.0};
  config.workload.mean_lifetime_epochs = rng.uniform(2.0, 20.0);
  config.workload.latency_limit_rtt_ms = rng.uniform(5.0, 30.0);
  config.workload.seed = rng();
  const core::PolicyConfig policies[] = {
      core::PolicyConfig::latency_aware(), core::PolicyConfig::energy_aware(),
      core::PolicyConfig::intensity_aware(), core::PolicyConfig::carbon_edge(),
      core::PolicyConfig::multi_objective(rng.uniform(0.0, 1.0))};
  config.policy = policies[rng.uniform_index(5)];

  const core::SimulationResult result = simulation.run(config);

  // Conservation: every arrival is placed or rejected; telemetry counters
  // match the run-level totals.
  EXPECT_EQ(result.telemetry.total_placed(), result.apps_placed);
  EXPECT_EQ(result.telemetry.total_rejected(), result.apps_rejected);
  // Physicality: non-negative energy/carbon per site-epoch, latency SLO
  // respected by the mean (no single app may exceed it by construction).
  for (const auto& record : result.telemetry.epochs()) {
    for (const auto& site : record.sites) {
      EXPECT_GE(site.energy_wh, 0.0);
      EXPECT_GE(site.carbon_g, 0.0);
    }
    EXPECT_LE(record.mean_rtt_ms(), config.workload.latency_limit_rtt_ms + 1e-6);
  }
  // Response-time histogram saw every hosted app-epoch.
  if (result.apps_placed > 0) {
    EXPECT_GT(result.telemetry.response_histogram().count(), 0u);
    EXPECT_GE(result.telemetry.response_percentile(99.0),
              result.telemetry.response_percentile(50.0) - 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomScenarios, PlacementSweep, ::testing::Range(0, 30));

}  // namespace
}  // namespace carbonedge
