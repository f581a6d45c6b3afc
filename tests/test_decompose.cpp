#include "solver/decompose.hpp"

#include <gtest/gtest.h>

#include "util/parallelism.hpp"
#include "util/random.hpp"

namespace carbonedge::solver {
namespace {

// K independent blocks glued into one problem: block-diagonal feasibility,
// two resources, one cold spare per block so activation decisions are in
// play. Mirrors a latency-filtered multi-metro batch. `strand_app` (if in
// range) still draws its pairs but keeps none of them.
AssignmentProblem block_instance(std::size_t blocks, std::size_t apps_per,
                                 std::size_t servers_per, std::uint64_t seed,
                                 double infeasible_p = 0.1,
                                 std::size_t strand_app = kUnassigned) {
  util::Rng rng(seed);
  AssignmentProblem p(blocks * apps_per, blocks * servers_per, 2);
  for (std::size_t b = 0; b < blocks; ++b) {
    for (std::size_t j = 0; j < servers_per; ++j) {
      p.set_capacity(b * servers_per + j, 0, rng.uniform(2.0, 6.0));
      p.set_capacity(b * servers_per + j, 1, rng.uniform(2.0, 6.0));
    }
    p.set_initially_on(b * servers_per + servers_per - 1, false);
    p.set_activation_cost(b * servers_per + servers_per - 1, rng.uniform(1.0, 6.0));
    for (std::size_t i = 0; i < apps_per; ++i) {
      for (std::size_t j = 0; j < servers_per; ++j) {
        if (rng.bernoulli(infeasible_p)) continue;
        const std::size_t row = b * apps_per + i;
        // Draw into locals: argument evaluation order is unspecified.
        const double cost = rng.uniform(0.5, 10.0);
        const double memory = rng.uniform(0.2, 1.2);
        const double compute = rng.uniform(0.2, 1.2);
        if (row == strand_app) continue;
        p.add_pair(row, b * servers_per + j, cost, {memory, compute});
      }
    }
  }
  return p;
}

// Copy of `p` with the pair (app, server) spliced into app's row.
AssignmentProblem with_pair(const AssignmentProblem& p, std::size_t app, std::size_t server,
                            double cost, std::initializer_list<double> demand) {
  AssignmentProblem copy(p.num_apps(), p.num_servers(), p.num_resources());
  for (std::size_t j = 0; j < p.num_servers(); ++j) {
    for (std::size_t k = 0; k < p.num_resources(); ++k) copy.set_capacity(j, k, p.capacity(j, k));
    copy.set_activation_cost(j, p.activation_cost(j));
    copy.set_initially_on(j, p.initially_on(j));
  }
  for (std::size_t i = 0; i < p.num_apps(); ++i) {
    bool spliced = i != app;
    for (std::size_t q = p.row_begin(i); q < p.row_end(i); ++q) {
      if (!spliced && p.server(q) > server) {
        copy.add_pair(app, server, cost, demand);
        spliced = true;
      }
      copy.add_pair(i, p.server(q), p.cost(q), p.demands(q));
    }
    if (!spliced) copy.add_pair(app, server, cost, demand);
  }
  return copy;
}

TEST(ConnectedComponents, SplitsBlockDiagonalInstances) {
  const AssignmentProblem p = block_instance(3, 2, 2, 42, /*infeasible_p=*/0.0);
  const std::vector<Component> components = connected_components(p);
  ASSERT_EQ(components.size(), 3u);
  for (std::size_t b = 0; b < 3; ++b) {
    EXPECT_EQ(components[b].apps, (std::vector<std::size_t>{2 * b, 2 * b + 1}));
    EXPECT_EQ(components[b].servers, (std::vector<std::size_t>{2 * b, 2 * b + 1}));
  }
}

TEST(ConnectedComponents, UnplaceableAppIsAnAppOnlySingleton) {
  AssignmentProblem p(3, 2, 1);
  p.add_pair(0, 0, 1.0, {0.0});
  p.add_pair(2, 1, 1.0, {0.0});  // app 1 has no feasible server
  const std::vector<Component> components = connected_components(p);
  ASSERT_EQ(components.size(), 3u);
  EXPECT_EQ(components[1].apps, (std::vector<std::size_t>{1}));
  EXPECT_TRUE(components[1].servers.empty());
}

TEST(ConnectedComponents, ServerWithoutPairsJoinsNoComponent) {
  AssignmentProblem p(2, 3, 1);
  p.add_pair(0, 0, 1.0, {0.0});
  p.add_pair(1, 2, 1.0, {0.0});  // server 1 never appears
  const std::vector<Component> components = connected_components(p);
  ASSERT_EQ(components.size(), 2u);
  for (const Component& component : components) {
    for (const std::size_t j : component.servers) EXPECT_NE(j, 1u);
  }
}

TEST(ConnectedComponents, BridgingAppMergesBlocks) {
  const AssignmentProblem p = block_instance(2, 2, 2, 7, /*infeasible_p=*/0.0);
  ASSERT_EQ(connected_components(p).size(), 2u);
  // App 0 can now reach block 2's server.
  const AssignmentProblem bridged = with_pair(p, 0, 3, 5.0, {0.5, 0.5});
  EXPECT_EQ(connected_components(bridged).size(), 1u);
}

TEST(ExtractComponent, PreservesCostsDemandsCapacitiesAndPowerState) {
  const AssignmentProblem p = block_instance(2, 3, 2, 11);
  const std::vector<Component> components = connected_components(p);
  for (const Component& component : components) {
    const AssignmentProblem sub = extract_component(p, component);
    ASSERT_EQ(sub.num_apps(), component.apps.size());
    ASSERT_EQ(sub.num_servers(), component.servers.size());
    ASSERT_EQ(sub.num_resources(), p.num_resources());
    for (std::size_t ii = 0; ii < component.apps.size(); ++ii) {
      const std::size_t i = component.apps[ii];
      // Every pair of the app survives, in row order.
      ASSERT_EQ(sub.row_end(ii) - sub.row_begin(ii), p.row_end(i) - p.row_begin(i));
      for (std::size_t jj = 0; jj < component.servers.size(); ++jj) {
        const std::size_t j = component.servers[jj];
        const std::size_t sub_pair = sub.find_pair(ii, jj);
        const std::size_t pair = p.find_pair(i, j);
        ASSERT_EQ(sub_pair == kNoPair, pair == kNoPair);
        if (pair == kNoPair) continue;
        EXPECT_EQ(sub.cost(sub_pair), p.cost(pair));
        for (std::size_t k = 0; k < p.num_resources(); ++k) {
          EXPECT_EQ(sub.demand(sub_pair, k), p.demand(pair, k));
        }
      }
    }
    for (std::size_t jj = 0; jj < component.servers.size(); ++jj) {
      const std::size_t j = component.servers[jj];
      for (std::size_t k = 0; k < p.num_resources(); ++k) {
        EXPECT_EQ(sub.capacity(jj, k), p.capacity(j, k));
      }
      EXPECT_EQ(sub.activation_cost(jj), p.activation_cost(j));
      EXPECT_EQ(sub.initially_on(jj), p.initially_on(j));
    }
  }
}

// Differential property: the stitched sharded solve must reproduce the
// monolithic exact optimum on multi-component instances (the decomposition
// is exact — nothing couples components).
class ShardedVsMonolithic : public ::testing::TestWithParam<int> {};

TEST_P(ShardedVsMonolithic, StitchedCostEqualsMonolithicExact) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const std::size_t blocks = 2 + seed % 3;
  const AssignmentProblem p = block_instance(blocks, 3, 2, seed * 6151 + 13);

  const AssignmentSolution mono = solve_exact(p);
  AssignmentOptions options;
  options.exact_size_limit = 64;  // every component is testbed scale
  const AssignmentSolution sharded = solve_sharded(p, options);

  // Random infeasible pairs can split a block further (or strand an app),
  // so the block count is a lower bound; every solved shard must have gone
  // through the MILP at this size limit.
  EXPECT_GE(sharded.stats.components, blocks) << "seed " << seed;
  ASSERT_EQ(mono.feasible, sharded.feasible) << "seed " << seed;
  if (!mono.feasible) return;
  EXPECT_TRUE(validate(p, sharded)) << "seed " << seed;
  EXPECT_NEAR(mono.total_cost, sharded.total_cost, 1e-6) << "seed " << seed;
  // A fully placed sharded answer means every component went through the
  // MILP at this size limit (no unplaceable singletons, no fallbacks).
  EXPECT_EQ(sharded.stats.exact_shards, sharded.stats.components) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Sweep, ShardedVsMonolithic, ::testing::Range(0, 30));

// Sharded solve_auto must match the unsharded solve_auto cost exactly when
// both stay on exact paths, and never do worse when the monolith would have
// been heuristic.
class ShardedVsUnsharded : public ::testing::TestWithParam<int> {};

TEST_P(ShardedVsUnsharded, AutoCostNeverWorseThanMonolithicAuto) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const AssignmentProblem p = block_instance(2 + seed % 4, 3, 2, seed * 2953 + 5);

  const AssignmentOptions options;
  const AssignmentSolution sharded = solve_auto(p, options);
  const AssignmentSolution mono = solve_unsharded(p, options);

  // Sharding never loses a placement the monolith found (each component is
  // testbed scale here, so every shard solves exactly); the reverse can
  // happen — the monolithic heuristic may strand a placeable app.
  if (mono.feasible) {
    ASSERT_TRUE(sharded.feasible) << "seed " << seed;
  }
  if (!sharded.feasible) return;
  EXPECT_TRUE(validate(p, sharded)) << "seed " << seed;
  // The sharded answer solves every component exactly, so it can only match
  // or beat whatever path the monolithic auto picked.
  if (mono.feasible) {
    EXPECT_LE(sharded.total_cost, mono.total_cost + 1e-6) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ShardedVsUnsharded, ::testing::Range(0, 30));

TEST(SolveSharded, BitIdenticalAcrossThreadCounts) {
  for (const std::uint64_t seed : {3u, 17u, 99u}) {
    const AssignmentProblem p = block_instance(5, 3, 2, seed);
    util::ParallelismBudget one_lane(1);
    util::ParallelismBudget four_lanes(4);
    AssignmentOptions one;
    one.budget = &one_lane;
    AssignmentOptions many;
    many.budget = &four_lanes;
    const AssignmentSolution serial = solve_sharded(p, one);
    const AssignmentSolution parallel = solve_sharded(p, many);
    // The four-lane budget really dispatched components concurrently.
    EXPECT_EQ(one_lane.peak_lanes(), 1u);
    EXPECT_GT(four_lanes.peak_lanes(), 1u) << "seed " << seed;
    // Bit-identical, not approximately equal: disjoint slots mean the
    // schedule cannot perturb the arithmetic.
    EXPECT_EQ(serial.assignment, parallel.assignment) << "seed " << seed;
    EXPECT_EQ(serial.total_cost, parallel.total_cost) << "seed " << seed;
    EXPECT_EQ(serial.stats.components, parallel.stats.components) << "seed " << seed;
    EXPECT_EQ(serial.stats.milp_nodes, parallel.stats.milp_nodes) << "seed " << seed;
  }
}

TEST(SolveSharded, UnplaceableAppsAreIsolatedNotContagious) {
  // One app with no feasible server must not drag the rest of the batch
  // off the exact path: the other components still solve and stitch.
  const AssignmentProblem p =
      block_instance(2, 2, 2, 21, /*infeasible_p=*/0.0, /*strand_app=*/2);
  AssignmentOptions options;
  const AssignmentSolution sharded = solve_sharded(p, options);
  EXPECT_FALSE(sharded.feasible);  // the batch as a whole is not fully placed
  EXPECT_EQ(sharded.unassigned_count, 1u);
  EXPECT_EQ(sharded.assignment[2], kUnassigned);
  EXPECT_EQ(sharded.stats.unplaceable_apps, 1u);
  // Every other app landed.
  for (const std::size_t i : {0u, 1u, 3u}) EXPECT_NE(sharded.assignment[i], kUnassigned);
}

TEST(SolveAuto, ShardingKeepsLargeMultiComponentBatchesExact) {
  // 6 blocks x (3x2) = 18x12 = 216 pairs: far beyond exact_size_limit as a
  // monolith, yet every component is 6 pairs. The sharded auto must agree
  // with the (limit-free) monolithic exact optimum.
  const AssignmentProblem p = block_instance(6, 3, 2, 1234);
  AssignmentOptions options;  // exact_size_limit = 64
  const AssignmentSolution sharded = solve_auto(p, options);
  const AssignmentSolution exact = solve_exact(p);
  ASSERT_TRUE(exact.feasible);
  ASSERT_TRUE(sharded.feasible);
  EXPECT_NEAR(sharded.total_cost, exact.total_cost, 1e-6);
  EXPECT_EQ(sharded.stats.components, 6u);
  EXPECT_EQ(sharded.stats.exact_shards, 6u);
  EXPECT_EQ(sharded.stats.heuristic_shards, 0u);
}

TEST(SolveAuto, UnitSlotInstancesStayMonolithic) {
  // Block-diagonal unit-slot instance: flow is already exact, so solve_auto
  // keeps the monolithic flow path (flow_shards == 1, single component).
  AssignmentProblem p(4, 4, 1);
  for (std::size_t b = 0; b < 2; ++b) {
    for (std::size_t i = 0; i < 2; ++i) {
      for (std::size_t j = 0; j < 2; ++j) {
        p.add_pair(2 * b + i, 2 * b + j, static_cast<double>(i + j + 1), {1.0});
      }
    }
    p.set_capacity(2 * b, 0, 1.0);
    p.set_capacity(2 * b + 1, 0, 1.0);
  }
  ASSERT_TRUE(p.is_unit_slot());
  const AssignmentSolution sol = solve_auto(p);
  ASSERT_TRUE(sol.feasible);
  EXPECT_EQ(sol.stats.components, 1u);
  EXPECT_EQ(sol.stats.flow_shards, 1u);
}

TEST(SolveSharded, SingleComponentSpanningProblemSkipsExtraction) {
  // Fully connected instance: one component covering everything routes
  // straight through solve_unsharded (stats come back monolithic).
  AssignmentProblem p(2, 2, 1);
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 2; ++j) {
      p.add_pair(i, j, static_cast<double>(i + j + 1), {1.0});
    }
    p.set_capacity(i, 0, 2.0);
  }
  const AssignmentSolution sol = solve_sharded(p, {});
  ASSERT_TRUE(sol.feasible);
  EXPECT_EQ(sol.stats.components, 1u);
}

}  // namespace
}  // namespace carbonedge::solver
