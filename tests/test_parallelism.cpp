// The process worker-budget arbiter, the parallel loop that leases from it,
// and the layer it feeds (sweep cells): leases never exceed the configured
// lane count, and a simulation's result is bit-identical from run to run.
#include "util/parallelism.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "carbon/service.hpp"
#include "core/simulation.hpp"
#include "geo/region.hpp"
#include "runner/scenario_runner.hpp"
#include "sim/datacenter.hpp"
#include "util/random.hpp"

namespace carbonedge {
namespace {

using util::ParallelismBudget;

TEST(ConfiguredThreadCount, ParsePositiveIntegerWins) {
  // configured_thread_count() reads CARBONEDGE_THREADS through the util::env
  // shim, which snapshots the variable once per process — so the parsing
  // seam is exercised directly (tests/test_env.cpp covers the snapshotting).
  EXPECT_EQ(util::parse_thread_count("7"), 7u);
  EXPECT_EQ(util::parse_thread_count("1"), 1u);
  EXPECT_EQ(util::parse_thread_count("64"), 64u);
}

TEST(ConfiguredThreadCount, FallsBackOnGarbageZeroAndUnset) {
  EXPECT_GE(util::parse_thread_count(nullptr), 1u);
  EXPECT_GE(util::parse_thread_count(""), 1u);
  EXPECT_GE(util::parse_thread_count("0"), 1u);
  EXPECT_GE(util::parse_thread_count("lots"), 1u);
  EXPECT_NE(util::parse_thread_count("3extra"), 3u);  // trailing junk rejected
  // Digits only: a sign or a space is garbage too ("-2" once wrapped to
  // 2^64 - 2 lanes).
  EXPECT_EQ(util::parse_thread_count("-2"), util::parse_thread_count(nullptr));
  EXPECT_EQ(util::parse_thread_count("+4"), util::parse_thread_count(nullptr));
  EXPECT_EQ(util::parse_thread_count(" 4"), util::parse_thread_count(nullptr));
  EXPECT_EQ(util::parse_thread_count("99999999999999999999"), util::parse_thread_count(nullptr));
  // Above the ceiling is out of range too; parsing starts no thread.
  EXPECT_EQ(util::parse_thread_count("1024"), util::kMaxThreadCount);
  EXPECT_EQ(util::parse_thread_count("1025"), util::parse_thread_count(nullptr));
  EXPECT_EQ(util::parse_thread_count("100000"), util::parse_thread_count(nullptr));
  // The fallback is hardware concurrency, identical across spellings.
  EXPECT_EQ(util::parse_thread_count(nullptr), util::parse_thread_count("garbage"));
  // And the env-backed entry point always lands on something usable.
  EXPECT_GE(util::configured_thread_count(), 1u);
}

TEST(ParallelismBudget, GrantsWantedLanesUpToTotal) {
  ParallelismBudget budget(4);
  EXPECT_EQ(budget.total(), 4u);
  EXPECT_EQ(budget.available(), 3u);

  const auto lease = budget.acquire(3);
  EXPECT_EQ(lease.lanes(), 3u);
  EXPECT_EQ(budget.available(), 1u);

  // Asking for more than remains degrades, it never blocks or overdraws.
  const auto rest = budget.acquire(16);
  EXPECT_EQ(rest.lanes(), 2u);
  EXPECT_EQ(budget.available(), 0u);
  const auto dry = budget.acquire(16);
  EXPECT_EQ(dry.lanes(), 1u);
}

TEST(ParallelismBudget, LeaseReleaseRestoresAvailability) {
  ParallelismBudget budget(4);
  {
    const auto lease = budget.acquire(4);
    EXPECT_EQ(lease.lanes(), 4u);
    EXPECT_EQ(budget.available(), 0u);
  }
  EXPECT_EQ(budget.available(), 3u);
  EXPECT_EQ(budget.peak_lanes(), 4u);
}

TEST(ParallelismBudget, MoveTransfersTheGrant) {
  ParallelismBudget budget(3);
  auto lease = budget.acquire(3);
  EXPECT_EQ(budget.available(), 0u);
  ParallelismBudget::Lease moved = std::move(lease);
  EXPECT_EQ(moved.lanes(), 3u);
  EXPECT_EQ(budget.available(), 0u);  // single outstanding grant, not two
  moved = ParallelismBudget::Lease();
  EXPECT_EQ(budget.available(), 2u);
}

TEST(ParallelismBudget, SingleLaneBudgetIsAlwaysSerial) {
  ParallelismBudget budget(1);
  EXPECT_EQ(budget.acquire(64).lanes(), 1u);
  EXPECT_EQ(budget.peak_lanes(), 1u);
}

TEST(ParallelismBudget, ConcurrentHammeringNeverOverGrants) {
  constexpr std::size_t kTotal = 5;
  ParallelismBudget budget(kTotal);
  std::atomic<std::size_t> extras_out{0};
  std::atomic<bool> violated{false};
  std::vector<std::thread> threads;
  threads.reserve(8);
  for (std::size_t t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      util::Rng rng(0xBADCAFE + t);
      for (int i = 0; i < 2000; ++i) {
        const auto lease = budget.acquire(1 + rng.uniform_index(8));
        const std::size_t extras = lease.lanes() - 1;
        if (extras_out.fetch_add(extras) + extras > kTotal - 1) violated.store(true);
        extras_out.fetch_sub(extras);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_FALSE(violated.load());
  EXPECT_EQ(budget.available(), kTotal - 1);
  EXPECT_LE(budget.peak_lanes(), kTotal);
}

// ---------------------------------------------------------- parallel_for --

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  for (const std::size_t lanes : {1u, 2u, 4u}) {
    ParallelismBudget budget(lanes);
    std::vector<std::atomic<int>> hits(1000);
    util::parallel_for(budget, hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << lanes << " lanes";
    EXPECT_EQ(budget.available(), budget.total() - 1);
    EXPECT_EQ(budget.peak_lanes(), lanes);
  }
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  ParallelismBudget budget(2);
  int calls = 0;
  util::parallel_for(budget, 0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(budget.peak_lanes(), 0u);  // nothing leased
}

TEST(ParallelFor, ComputesSameResultAsSerial) {
  ParallelismBudget budget(3);
  std::vector<double> out(2048, 0.0);
  util::parallel_for(budget, out.size(),
                     [&](std::size_t i) { out[i] = static_cast<double>(i) * 0.5; });
  std::vector<double> serial(out.size(), 0.0);
  for (std::size_t i = 0; i < serial.size(); ++i) serial[i] = static_cast<double>(i) * 0.5;
  EXPECT_EQ(out, serial);
  EXPECT_DOUBLE_EQ(std::accumulate(out.begin(), out.end(), 0.0), 0.5 * 2047.0 * 2048.0 / 2.0);
}

TEST(ParallelFor, PropagatesFirstException) {
  for (const std::size_t lanes : {1u, 4u}) {
    ParallelismBudget budget(lanes);
    std::atomic<std::size_t> calls{0};
    try {
      util::parallel_for(budget, 100, [&](std::size_t i) {
        calls.fetch_add(1);
        if (i == 37) throw std::runtime_error("failure at 37");
      });
      ADD_FAILURE() << "parallel_for swallowed the exception";
    } catch (const std::runtime_error& error) {
      EXPECT_STREQ(error.what(), "failure at 37");
    }
    // Every thread is joined and the lease comes back.
    EXPECT_EQ(budget.available(), budget.total() - 1);
    // On one lane the loop is inline: no index past the failure runs.
    if (lanes == 1) {
      EXPECT_EQ(calls.load(), 38u);
    }
  }
}

TEST(ParallelFor, NestedCallCompletesWithinTheBudget) {
  // Every outer lane starts an inner loop on the same budget. With no queue
  // to block on, the inner loops run on whatever lanes are left.
  ParallelismBudget budget(2);
  std::vector<std::vector<int>> out(4, std::vector<int>(8, 0));
  util::parallel_for(budget, out.size(), [&](std::size_t outer) {
    util::parallel_for(budget, out[outer].size(), [&](std::size_t inner) {
      out[outer][inner] = static_cast<int>(inner) + 1;
    });
  });
  for (const auto& row : out) {
    for (std::size_t i = 0; i < row.size(); ++i) EXPECT_EQ(row[i], static_cast<int>(i) + 1);
  }
  EXPECT_LE(budget.peak_lanes(), budget.total());
  EXPECT_EQ(budget.available(), budget.total() - 1);
}

// ------------------------------------------------------- nested layers --

core::SimulationConfig busy_config(std::uint64_t seed) {
  core::SimulationConfig config;
  config.epochs = 48;
  config.workload.arrivals_per_site = 1.5;
  config.workload.mean_lifetime_epochs = 12.0;
  config.workload.max_defer_epochs = 6;
  config.workload.model_weights = {1.0, 1.0, 1.0, 0.0};
  config.workload.seed = seed;
  config.reoptimize_every = 8;
  config.migration.cost_aware = true;
  config.failures.mtbf_epochs = 200.0;
  return config;
}

TEST(ParallelismBudget, NestedRunnerSimSolverLoadStaysWithinBudget) {
  // Eight cells of re-optimizing, failure-injecting simulations on a
  // three-lane budget: the high-water lane count must never exceed the
  // configured total, and every lease must come back.
  ParallelismBudget budget(3);
  runner::ScenarioGrid grid(busy_config(21));
  grid.with_regions({geo::florida_region()})
      .with_policies({core::PolicyConfig::carbon_edge()})
      .with_workload_seeds({1, 2, 3, 4, 5, 6, 7, 8});
  const auto outcomes =
      runner::ScenarioRunner(runner::ScenarioRunnerOptions{.budget = &budget}).run(grid);
  ASSERT_EQ(outcomes.size(), 8u);
  EXPECT_LE(budget.peak_lanes(), budget.total());
  EXPECT_EQ(budget.available(), budget.total() - 1);  // every lease returned
}

// ------------------------------------------------- run-to-run identity --

void expect_bit_identical(const core::SimulationResult& a, const core::SimulationResult& b) {
  EXPECT_EQ(a.apps_placed, b.apps_placed);
  EXPECT_EQ(a.apps_rejected, b.apps_rejected);
  EXPECT_EQ(a.apps_deferred, b.apps_deferred);
  EXPECT_EQ(a.apps_expired_deferred, b.apps_expired_deferred);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.migrations_skipped, b.migrations_skipped);
  EXPECT_EQ(a.migration_energy_wh, b.migration_energy_wh);
  EXPECT_EQ(a.migration_carbon_g, b.migration_carbon_g);
  EXPECT_EQ(a.server_failures, b.server_failures);
  EXPECT_EQ(a.apps_redeployed, b.apps_redeployed);
  EXPECT_EQ(a.app_downtime_epochs, b.app_downtime_epochs);
  ASSERT_EQ(a.telemetry.size(), b.telemetry.size());
  for (std::size_t e = 0; e < a.telemetry.size(); ++e) {
    const sim::EpochRecord& ra = a.telemetry.epochs()[e];
    const sim::EpochRecord& rb = b.telemetry.epochs()[e];
    EXPECT_EQ(ra.rtt_weighted_sum_ms, rb.rtt_weighted_sum_ms);
    EXPECT_EQ(ra.response_weighted_sum_ms, rb.response_weighted_sum_ms);
    EXPECT_EQ(ra.rps_total, rb.rps_total);
    EXPECT_EQ(ra.apps_placed, rb.apps_placed);
    EXPECT_EQ(ra.apps_rejected, rb.apps_rejected);
    EXPECT_EQ(ra.migrations, rb.migrations);
    EXPECT_EQ(ra.failures, rb.failures);
    ASSERT_EQ(ra.sites.size(), rb.sites.size());
    for (std::size_t s = 0; s < ra.sites.size(); ++s) {
      EXPECT_EQ(ra.sites[s].energy_wh, rb.sites[s].energy_wh);
      EXPECT_EQ(ra.sites[s].carbon_g, rb.sites[s].carbon_g);
      EXPECT_EQ(ra.sites[s].intensity_g_kwh, rb.sites[s].intensity_g_kwh);
      EXPECT_EQ(ra.sites[s].apps_hosted, rb.sites[s].apps_hosted);
      EXPECT_EQ(ra.sites[s].rps_hosted, rb.sites[s].rps_hosted);
    }
  }
  EXPECT_EQ(a.telemetry.response_percentile(50.0), b.telemetry.response_percentile(50.0));
  EXPECT_EQ(a.telemetry.response_percentile(99.0), b.telemetry.response_percentile(99.0));
  EXPECT_EQ(a.telemetry.load_intensity_sample(), b.telemetry.load_intensity_sample());
}

TEST(ParallelismDeterminism, ShardedRunsAreBitIdenticalToSerialOnRandomizedScenarios) {
  // Randomized scenario set: arrival intensity, deferral budget, cadence,
  // cost-awareness, failures, and policy all drawn per scenario. Every
  // scenario (40-site CDN region, heavy arrivals) re-optimizes batches that
  // split into several components, which the solver solves one after
  // another. A second run of the same simulation must come back
  // bit-identical to the first: run() starts from the pristine cluster and
  // nothing carries over between solves.
  const geo::Region region = geo::cdn_region(geo::Continent::kNorthAmerica, 40);
  carbon::CarbonIntensityService service;
  service.add_region(region);
  core::EdgeSimulation simulation(
      sim::make_uniform_cluster(region, 2, sim::DeviceType::kA2), service);

  util::Rng seeder(0x5EED5);
  for (int round = 0; round < 4; ++round) {
    util::Rng rng(seeder());  // per-scenario stream
    core::SimulationConfig config;
    config.epochs = 36;
    config.workload.arrivals_per_site = 1.0 + rng.uniform(0.0, 1.5);
    config.workload.mean_lifetime_epochs = 8.0 + rng.uniform(0.0, 8.0);
    config.workload.max_defer_epochs = static_cast<std::uint32_t>(rng.uniform_index(8));
    config.workload.model_weights = {1.0, 1.0, 1.0, 0.0};
    config.workload.seed = rng();
    config.policy = rng.bernoulli(0.5) ? core::PolicyConfig::carbon_edge()
                                       : core::PolicyConfig::latency_aware();
    config.reoptimize_every = 6 + static_cast<std::uint32_t>(rng.uniform_index(6));
    config.migration.cost_aware = rng.bernoulli(0.5);
    config.failures.mtbf_epochs = rng.bernoulli(0.5) ? 150.0 : 0.0;
    config.failures.seed = rng();

    const core::SimulationResult first = simulation.run(config);
    const core::SimulationResult second = simulation.run(config);

    SCOPED_TRACE("randomized scenario round " + std::to_string(round));
    expect_bit_identical(first, second);
  }
}

}  // namespace
}  // namespace carbonedge
