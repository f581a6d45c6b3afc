#include "store/sweep_store.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

#include "runner/scenario_runner.hpp"
#include "store/codecs.hpp"
#include "store_test_util.hpp"

namespace carbonedge::store {
namespace {

struct TempStoreDir : testutil::TempStoreDir {
  TempStoreDir() : testutil::TempStoreDir("carbonedge_sweep_test") {}
};

// Small but non-trivial grid: 2 policies x 2 epoch horizons over Florida,
// with arrivals/migration so the counters are non-zero.
runner::ScenarioGrid small_grid() {
  core::SimulationConfig base;
  base.workload.arrivals_per_site = 1.0;
  base.workload.model_weights = {1.0, 1.0, 1.0, 0.0};
  runner::ScenarioGrid grid(base);
  grid.with_policies({core::PolicyConfig::latency_aware(), core::PolicyConfig::carbon_edge()})
      .with_epochs({6, 12});
  return grid;
}

std::string table_bytes(const std::vector<runner::ScenarioOutcome>& outcomes) {
  std::ostringstream out;
  runner::ScenarioRunner::summarize(outcomes).print(out);
  return out.str();
}

TEST(SweepStore, FingerprintIgnoresCosmeticFieldsButTracksConfig) {
  const auto scenarios = small_grid().expand();
  ASSERT_EQ(scenarios.size(), 4u);

  runner::Scenario relabeled = scenarios[0];
  relabeled.index = 99;
  relabeled.label = "something else";
  relabeled.region.name = "Renamed";  // display name, not identity
  relabeled.mix.name = "renamed-mix";
  EXPECT_EQ(SweepStore::fingerprint(relabeled), SweepStore::fingerprint(scenarios[0]));

  // Every axis coordinate yields a distinct fingerprint.
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    for (std::size_t j = i + 1; j < scenarios.size(); ++j) {
      EXPECT_NE(SweepStore::fingerprint(scenarios[i]), SweepStore::fingerprint(scenarios[j]));
    }
  }

  runner::Scenario different = scenarios[0];
  different.config.workload.seed ^= 1;
  EXPECT_NE(SweepStore::fingerprint(different), SweepStore::fingerprint(scenarios[0]));
  different = scenarios[0];
  different.region.cities.pop_back();
  EXPECT_NE(SweepStore::fingerprint(different), SweepStore::fingerprint(scenarios[0]));
  different = scenarios[0];
  different.forecaster = "persistence";
  EXPECT_NE(SweepStore::fingerprint(different), SweepStore::fingerprint(scenarios[0]));

  // Pinned: the key this scenario had while the MILP's integrality and gap
  // tolerances were settable options, so entries stored then stay hits.
  EXPECT_EQ(SweepStore::fingerprint(scenarios[0]), "a0db6536423f5b18d81976f9d5974fb5");
}

TEST(SweepStore, OutcomeRoundTripsThroughTheStore) {
  TempStoreDir tmp;
  SweepStore store(std::make_shared<ArtifactStore>(tmp.dir));
  const auto scenarios = small_grid().expand();
  const auto outcomes = runner::ScenarioRunner().run({scenarios[0]});
  ASSERT_EQ(outcomes.size(), 1u);

  EXPECT_EQ(store.load(scenarios[0]), std::nullopt);
  EXPECT_EQ(store.misses(), 1u);
  store.save(scenarios[0], outcomes[0].result);
  const auto loaded = store.load(scenarios[0]);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(store.hits(), 1u);

  const core::SimulationResult& a = outcomes[0].result;
  const core::SimulationResult& b = *loaded;
  EXPECT_EQ(a.apps_placed, b.apps_placed);
  EXPECT_EQ(a.apps_rejected, b.apps_rejected);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.app_downtime_epochs, b.app_downtime_epochs);
  EXPECT_EQ(a.telemetry.size(), b.telemetry.size());
  // Bit-exact doubles, including derived aggregates.
  EXPECT_EQ(a.telemetry.total_carbon_g(), b.telemetry.total_carbon_g());
  EXPECT_EQ(a.telemetry.total_energy_wh(), b.telemetry.total_energy_wh());
  EXPECT_EQ(a.telemetry.mean_rtt_ms(), b.telemetry.mean_rtt_ms());
  EXPECT_EQ(a.telemetry.response_percentile(99.0), b.telemetry.response_percentile(99.0));
  EXPECT_EQ(a.telemetry.load_intensity_sample(), b.telemetry.load_intensity_sample());
}

TEST(SweepStore, InterruptedSweepResumesByteIdentical) {
  // The acceptance check: a sweep that dies mid-grid and resumes must
  // produce a summary table byte-identical to an uninterrupted cold run.
  const runner::ScenarioGrid grid = small_grid();
  const std::string cold_table = table_bytes(runner::ScenarioRunner().run(grid));

  TempStoreDir tmp;
  // "Kill a sweep mid-grid": run only the first half of the expansion with
  // the store attached, as an interrupted process would have.
  {
    auto store = std::make_shared<SweepStore>(std::make_shared<ArtifactStore>(tmp.dir));
    auto scenarios = grid.expand();
    scenarios.resize(2);
    const auto partial = runner::ScenarioRunner(
                             runner::ScenarioRunnerOptions{.sweep_store = store})
                             .run(std::move(scenarios));
    EXPECT_EQ(partial.size(), 2u);
    EXPECT_EQ(store->stores(), 2u);
  }

  // Resume in a "new process" (fresh SweepStore over the same directory):
  // the two completed cells load from disk, the rest compute.
  auto resumed_store = std::make_shared<SweepStore>(std::make_shared<ArtifactStore>(tmp.dir));
  const auto resumed = runner::ScenarioRunner(runner::ScenarioRunnerOptions{
                                                  .sweep_store = resumed_store})
                           .run(grid);
  EXPECT_EQ(resumed_store->hits(), 2u);
  EXPECT_EQ(resumed_store->stores(), 2u);  // only the missing half computed
  EXPECT_EQ(table_bytes(resumed), cold_table);

  // A third, fully-warm run: zero computation, still byte-identical.
  auto warm_store = std::make_shared<SweepStore>(std::make_shared<ArtifactStore>(tmp.dir));
  const auto warm = runner::ScenarioRunner(
                        runner::ScenarioRunnerOptions{.sweep_store = warm_store})
                        .run(grid);
  EXPECT_EQ(warm_store->hits(), 4u);
  EXPECT_EQ(warm_store->stores(), 0u);
  EXPECT_EQ(table_bytes(warm), cold_table);
}

TEST(SweepStore, ExtendedGridReusesTheOverlap) {
  TempStoreDir tmp;
  auto first_store = std::make_shared<SweepStore>(std::make_shared<ArtifactStore>(tmp.dir));
  core::SimulationConfig base;
  base.workload.arrivals_per_site = 1.0;
  runner::ScenarioGrid narrow(base);
  narrow.with_policies({core::PolicyConfig::carbon_edge()}).with_epochs({6});
  (void)runner::ScenarioRunner(
      runner::ScenarioRunnerOptions{.sweep_store = first_store})
      .run(narrow);
  ASSERT_EQ(first_store->stores(), 1u);

  // Widening the policy axis keeps the already-computed cell: the labels
  // change ("policy=..." joins the label) but the fingerprint does not.
  runner::ScenarioGrid wide(base);
  wide.with_policies({core::PolicyConfig::carbon_edge(), core::PolicyConfig::energy_aware()})
      .with_epochs({6});
  auto second_store = std::make_shared<SweepStore>(std::make_shared<ArtifactStore>(tmp.dir));
  const auto outcomes = runner::ScenarioRunner(runner::ScenarioRunnerOptions{
                                                   .sweep_store = second_store})
                            .run(wide);
  EXPECT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(second_store->hits(), 1u);    // the overlapping CarbonEdge cell
  EXPECT_EQ(second_store->stores(), 1u);  // only the new Energy-aware cell ran
}

}  // namespace
}  // namespace carbonedge::store
