#include "solver/decompose.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

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
  const std::vector<std::size_t> local = local_server_index(p.num_servers(), components);
  for (const Component& component : components) {
    const AssignmentProblem sub = extract_component(p, component, local);
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

// The extraction before the shared server index: a binary search over
// component.servers per pair. Kept as the oracle extract_component must
// reproduce bit for bit.
AssignmentProblem reference_extract(const AssignmentProblem& problem, const Component& component) {
  const std::size_t resources = problem.num_resources();
  AssignmentProblem sub(component.apps.size(), component.servers.size(), resources);
  for (std::size_t jj = 0; jj < component.servers.size(); ++jj) {
    const std::size_t j = component.servers[jj];
    for (std::size_t k = 0; k < resources; ++k) sub.set_capacity(jj, k, problem.capacity(j, k));
    sub.set_activation_cost(jj, problem.activation_cost(j));
    sub.set_initially_on(jj, problem.initially_on(j));
  }
  for (std::size_t ii = 0; ii < component.apps.size(); ++ii) {
    const std::size_t i = component.apps[ii];
    for (std::size_t p = problem.row_begin(i); p < problem.row_end(i); ++p) {
      const auto local = std::lower_bound(component.servers.begin(), component.servers.end(),
                                          problem.server(p));
      sub.add_pair(ii, static_cast<std::size_t>(local - component.servers.begin()),
                   problem.cost(p), problem.demands(p));
    }
  }
  return sub;
}

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

void expect_bit_identical(const AssignmentProblem& actual, const AssignmentProblem& expected) {
  ASSERT_EQ(actual.num_apps(), expected.num_apps());
  ASSERT_EQ(actual.num_servers(), expected.num_servers());
  ASSERT_EQ(actual.num_resources(), expected.num_resources());
  ASSERT_EQ(actual.num_pairs(), expected.num_pairs());
  for (std::size_t i = 0; i < expected.num_apps(); ++i) {
    ASSERT_EQ(actual.row_begin(i), expected.row_begin(i)) << "app " << i;
    ASSERT_EQ(actual.row_end(i), expected.row_end(i)) << "app " << i;
  }
  for (std::size_t p = 0; p < expected.num_pairs(); ++p) {
    ASSERT_EQ(actual.server(p), expected.server(p)) << "pair " << p;
    ASSERT_EQ(bits(actual.cost(p)), bits(expected.cost(p))) << "pair " << p;
    for (std::size_t k = 0; k < expected.num_resources(); ++k) {
      ASSERT_EQ(bits(actual.demand(p, k)), bits(expected.demand(p, k))) << "pair " << p;
    }
  }
  for (std::size_t j = 0; j < expected.num_servers(); ++j) {
    for (std::size_t k = 0; k < expected.num_resources(); ++k) {
      ASSERT_EQ(bits(actual.capacity(j, k)), bits(expected.capacity(j, k))) << "server " << j;
    }
    ASSERT_EQ(bits(actual.activation_cost(j)), bits(expected.activation_cost(j)))
        << "server " << j;
    ASSERT_EQ(actual.initially_on(j), expected.initially_on(j)) << "server " << j;
  }
}

// A random banded instance: each app's pairs fall in a short window of
// servers, so the graph splits into many components. About one app in ten
// keeps no pair (an app-only singleton), and servers no window reaches, or
// whose pairs were all dropped, have no pair at all.
AssignmentProblem random_sparse_instance(std::uint64_t seed) {
  util::Rng rng(seed * 0x2545f4914f6cdd1dULL + 3);
  const std::size_t resources = 1 + rng.uniform_index(3);
  const std::size_t apps = 1 + rng.uniform_index(60);
  const std::size_t servers = 1 + rng.uniform_index(80);
  const std::size_t width = 1 + rng.uniform_index(6);
  AssignmentProblem p(apps, servers, resources);
  for (std::size_t j = 0; j < servers; ++j) {
    for (std::size_t k = 0; k < resources; ++k) p.set_capacity(j, k, rng.uniform(0.5, 4.0));
    if (rng.bernoulli(0.3)) {
      p.set_initially_on(j, false);
      p.set_activation_cost(j, rng.uniform(0.0, 5.0));
    }
  }
  std::vector<double> demand(resources);
  for (std::size_t i = 0; i < apps; ++i) {
    if (rng.bernoulli(0.1)) continue;
    const std::size_t first = rng.uniform_index(servers);
    for (std::size_t j = first; j < std::min(servers, first + width); ++j) {
      if (rng.bernoulli(0.2)) continue;
      const double cost = rng.uniform(0.0, 10.0);
      for (double& d : demand) d = rng.uniform(0.1, 1.5);
      p.add_pair(i, j, cost, demand);
    }
  }
  return p;
}

TEST(ExtractComponent, IndexedExtractionMatchesBinarySearchReference) {
  std::size_t singletons = 0;
  std::size_t pairless_servers = 0;
  std::size_t components_checked = 0;
  for (std::uint64_t seed = 0; seed < 240; ++seed) {
    const AssignmentProblem p = random_sparse_instance(seed);
    const std::vector<Component> components = connected_components(p);
    const std::vector<std::size_t> local = local_server_index(p.num_servers(), components);
    std::size_t covered = 0;
    for (const Component& component : components) {
      SCOPED_TRACE("seed " + std::to_string(seed));
      expect_bit_identical(extract_component(p, component, local),
                           reference_extract(p, component));
      if (component.servers.empty()) ++singletons;
      covered += component.servers.size();
      ++components_checked;
    }
    for (std::size_t j = 0; j < p.num_servers(); ++j) {
      if (local[j] == kUnassigned) ++pairless_servers;
    }
    EXPECT_EQ(covered + static_cast<std::size_t>(std::count(local.begin(), local.end(), kUnassigned)),
              p.num_servers());
  }
  // The edge cases must actually occur, or their paths go unchecked.
  EXPECT_GE(singletons, 50u);
  EXPECT_GE(pairless_servers, 50u);
  EXPECT_GE(components_checked, 1000u);
}

// A hand-made component whose member apps are not contiguous and whose
// rows are empty in the middle and at the end: the bulk row copy must keep
// every row's bounds, and append_row must refuse a row that would break the
// problem's layout, leaving it unchanged.
TEST(ExtractComponent, BulkRowCopyKeepsEmptyRowsAndRejectsBrokenRows) {
  AssignmentProblem p(6, 5, 2);
  for (std::size_t j = 0; j < 5; ++j) {
    p.set_capacity(j, 0, 1.0 + static_cast<double>(j));
    p.set_capacity(j, 1, 0.5);
  }
  p.set_initially_on(4, false);
  p.set_activation_cost(4, 2.5);
  p.add_pair(0, 0, 1.5, {0.1, 0.2});
  p.add_pair(0, 2, 2.5, {0.3, 0.4});
  p.add_pair(1, 1, 3.5, {0.5, 0.6});
  p.add_pair(3, 0, 4.5, {0.7, 0.8});  // app 2 keeps no pair
  p.add_pair(3, 4, 5.5, {0.9, 1.0});
  p.add_pair(4, 3, 6.5, {1.1, 1.2});  // app 5 keeps no pair
  const Component component{{0, 2, 3, 5}, {0, 2, 4}};
  const std::vector<std::size_t> local = local_server_index(p.num_servers(), {&component, 1});

  const AssignmentProblem sub = extract_component(p, component, local);
  expect_bit_identical(sub, reference_extract(p, component));
  EXPECT_EQ(sub.num_pairs(), 4u);
  const std::vector<std::pair<std::size_t, std::size_t>> rows = {{0, 2}, {2, 2}, {2, 4}, {4, 4}};
  for (std::size_t ii = 0; ii < rows.size(); ++ii) {
    EXPECT_EQ(sub.row_begin(ii), rows[ii].first) << ii;
    EXPECT_EQ(sub.row_end(ii), rows[ii].second) << ii;
  }
  EXPECT_EQ(sub.server(3), 2u);
  EXPECT_EQ(bits(sub.cost(3)), bits(5.5));
  EXPECT_EQ(bits(sub.demand(3, 1)), bits(1.0));

  AssignmentProblem rows_out(3, 3, 2);
  rows_out.append_row(1, p, 0, local);
  ASSERT_EQ(rows_out.num_pairs(), 2u);
  // An earlier row, the same row again, or a row past the last app.
  EXPECT_THROW(rows_out.append_row(0, p, 3, local), std::invalid_argument);
  EXPECT_THROW(rows_out.append_row(1, p, 3, local), std::invalid_argument);
  EXPECT_THROW(rows_out.append_row(3, p, 3, local), std::invalid_argument);
  // App 1's server 1 is no member: it maps to kUnassigned.
  EXPECT_THROW(rows_out.append_row(2, p, 1, local), std::invalid_argument);
  // A mapping past the sub-problem's servers, and one that reverses a row.
  const std::vector<std::size_t> past = {0, 0, 3, 0, 2};
  EXPECT_THROW(rows_out.append_row(2, p, 0, past), std::invalid_argument);
  const std::vector<std::size_t> reversed = {2, 0, 1, 0, 0};
  EXPECT_THROW(rows_out.append_row(2, p, 0, reversed), std::invalid_argument);
  // A mapping shorter than the parent's servers, and a resource mismatch.
  EXPECT_THROW(rows_out.append_row(2, p, 0, std::span(local).first(4)), std::invalid_argument);
  AssignmentProblem one_resource(1, 3, 1);
  EXPECT_THROW(one_resource.append_row(0, p, 0, local), std::invalid_argument);
  // A refused row appends nothing, and the next valid row still fits.
  EXPECT_EQ(rows_out.num_pairs(), 2u);
  rows_out.append_row(2, p, 3, local);
  EXPECT_EQ(rows_out.row_begin(2), 2u);
  EXPECT_EQ(rows_out.row_end(2), 4u);
  EXPECT_EQ(rows_out.row_servers(2)[1], 2u);
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

// solve_sharded before components could settle without a solve: every
// component is extracted and goes through solve_unsharded. Kept as the
// oracle a settled component must reproduce bit for bit, stats included.
AssignmentSolution reference_solve_sharded(const AssignmentProblem& problem,
                                           const AssignmentOptions& options) {
  const std::vector<Component> components = connected_components(problem);
  if (components.size() == 1 && components.front().apps.size() == problem.num_apps() &&
      components.front().servers.size() == problem.num_servers()) {
    return solve_unsharded(problem, options);
  }
  const std::vector<std::size_t> local = local_server_index(problem.num_servers(), components);
  std::vector<std::size_t> assignment(problem.num_apps(), kUnassigned);
  SolveStats stats;
  stats.components = components.size();
  for (const Component& component : components) {
    if (component.servers.empty()) {
      stats.unplaceable_apps += component.apps.size();
      continue;
    }
    const AssignmentSolution sub =
        solve_unsharded(extract_component(problem, component, local), options);
    for (std::size_t k = 0; k < component.apps.size(); ++k) {
      const std::size_t jj = sub.assignment[k];
      if (jj != kUnassigned) assignment[component.apps[k]] = component.servers[jj];
    }
    stats.exact_shards += sub.stats.exact_shards;
    stats.heuristic_shards += sub.stats.heuristic_shards;
    stats.unplaceable_apps += sub.stats.unplaceable_apps;
    stats.milp_nodes += sub.stats.milp_nodes;
    stats.settled_nodes += sub.stats.settled_nodes;
  }
  AssignmentSolution result = evaluate(problem, assignment);
  result.stats = stats;
  return result;
}

void expect_same_solve(const AssignmentSolution& actual, const AssignmentSolution& expected,
                       const std::string& where) {
  ASSERT_EQ(actual.assignment, expected.assignment) << where;
  ASSERT_EQ(actual.powered_on, expected.powered_on) << where;
  ASSERT_EQ(actual.feasible, expected.feasible) << where;
  ASSERT_EQ(actual.unassigned_count, expected.unassigned_count) << where;
  ASSERT_EQ(bits(actual.total_cost), bits(expected.total_cost)) << where;
  const SolveStats& a = actual.stats;
  const SolveStats& e = expected.stats;
  ASSERT_EQ(a.components, e.components) << where;
  ASSERT_EQ(a.exact_shards, e.exact_shards) << where;
  ASSERT_EQ(a.heuristic_shards, e.heuristic_shards) << where;
  ASSERT_EQ(a.unplaceable_apps, e.unplaceable_apps) << where;
  ASSERT_EQ(a.milp_nodes, e.milp_nodes) << where;
  ASSERT_EQ(a.settled_nodes, e.settled_nodes) << where;
}

// Blocks of a few apps on a few servers. About a third of the blocks are
// tight (contention), and the rest are loose enough that every app's
// cheapest pair often fits. Costs come from a short integer grid half the
// time, so cheapest-pair ties are common. Off servers activate for free or
// at a positive (rarely negative) cost; a few demands are negative, a few
// costs lie past 2^16, about one app in twelve keeps no pair, and a bridging
// pair sometimes merges a block with the next.
AssignmentProblem settle_instance(std::uint64_t seed) {
  util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 11);
  const std::size_t resources = 1 + rng.uniform_index(2);
  const std::size_t blocks = 1 + rng.uniform_index(5);
  std::vector<std::size_t> app_start{0};
  std::vector<std::size_t> server_start{0};
  for (std::size_t b = 0; b < blocks; ++b) {
    app_start.push_back(app_start.back() + 1 + rng.uniform_index(8));
    server_start.push_back(server_start.back() + 1 + rng.uniform_index(6));
  }
  AssignmentProblem p(app_start.back(), server_start.back(), resources);
  for (std::size_t b = 0; b < blocks; ++b) {
    const bool tight = rng.bernoulli(0.35);
    for (std::size_t j = server_start[b]; j < server_start[b + 1]; ++j) {
      for (std::size_t k = 0; k < resources; ++k) {
        p.set_capacity(j, k, tight ? rng.uniform(0.5, 1.5) : rng.uniform(4.0, 12.0));
      }
      if (rng.bernoulli(0.35)) {
        p.set_initially_on(j, false);
        const double draw = rng.uniform();
        p.set_activation_cost(j, draw < 0.45 ? 0.0 : draw < 0.95 ? rng.uniform(0.5, 4.0) : -1.0);
      }
    }
    std::vector<double> demand(resources);
    for (std::size_t i = app_start[b]; i < app_start[b + 1]; ++i) {
      if (rng.bernoulli(0.08)) continue;
      for (std::size_t j = server_start[b]; j < server_start[b + 1]; ++j) {
        if (rng.bernoulli(0.25)) continue;
        double cost = rng.bernoulli(0.5) ? static_cast<double>(1 + rng.uniform_index(4))
                                         : rng.uniform(0.5, 6.0);
        if (rng.bernoulli(0.02)) cost = (rng.bernoulli(0.5) ? 1.0 : -1.0) * rng.uniform(7e4, 9e4);
        for (double& d : demand) {
          d = rng.bernoulli(0.03) ? -rng.uniform(0.05, 0.5) : rng.uniform(0.05, 1.0);
        }
        p.add_pair(i, j, cost, demand);
      }
      if (b + 1 < blocks && rng.bernoulli(0.04)) {
        for (double& d : demand) d = rng.uniform(0.05, 1.0);
        p.add_pair(i, server_start[b + 1], rng.uniform(0.5, 6.0), demand);
      }
    }
  }
  return p;
}

// The default path and every node budget and size limit that decides
// whether a component may settle, and as which path.
std::vector<std::pair<std::string, AssignmentOptions>> settle_option_sets() {
  std::vector<std::pair<std::string, AssignmentOptions>> sets;
  sets.emplace_back("default", AssignmentOptions{});
  for (const std::size_t limit : {std::size_t{0}, std::size_t{64}, std::size_t{1} << 20}) {
    for (const std::size_t nodes : {std::size_t{0}, std::size_t{1}, std::size_t{500}}) {
      AssignmentOptions options;
      options.exact_size_limit = limit;
      options.milp.max_nodes = nodes;
      sets.emplace_back("limit " + std::to_string(limit) + " nodes " + std::to_string(nodes),
                        options);
    }
  }
  return sets;
}

// Two instances where every app's cheapest pair would pass the certificate
// but for one condition, and the full search moves an app off it.
std::vector<std::pair<std::string, AssignmentProblem>> near_settle_instances() {
  std::vector<std::pair<std::string, AssignmentProblem>> instances;
  // Costs past the guard: app 0 ties at 2^53 on both servers and app 1 is
  // cheapest on server 1. Swapping them truly costs +0.5, but 2^53 + 1
  // rounds to 2^53, so local search computes -0.5 and swaps.
  AssignmentProblem swap(2, 2, 1);
  for (std::size_t j = 0; j < 2; ++j) swap.set_capacity(j, 0, 4.0);
  swap.add_pair(0, 0, 0x1.0p53, {1.0});
  swap.add_pair(0, 1, 0x1.0p53, {1.0});
  swap.add_pair(1, 0, 1.0, {1.0});
  swap.add_pair(1, 1, 0.5, {1.0});
  instances.emplace_back("swap rounding", std::move(swap));
  // Negative demands: apps 0-2 take -5 on servers 0-2 (capacity 2 each),
  // and app 3 + k needs 6.5 on server k (cost 1) or on the next server
  // (cost 2). The cheapest pairs fit (1.5 per server), but greedy places
  // app 5, then 3, then 4 on their costlier pair as each server gains room,
  // and local search cannot undo the three-way cycle one move at a time.
  AssignmentProblem cycle(6, 3, 1);
  for (std::size_t j = 0; j < 3; ++j) {
    cycle.set_capacity(j, 0, 2.0);
    cycle.add_pair(j, j, 1.0, {-5.0});
  }
  cycle.add_pair(3, 0, 1.0, {6.5});
  cycle.add_pair(3, 1, 2.0, {6.5});
  cycle.add_pair(4, 1, 1.0, {6.5});
  cycle.add_pair(4, 2, 2.0, {6.5});
  cycle.add_pair(5, 0, 2.0, {6.5});
  cycle.add_pair(5, 2, 1.0, {6.5});
  instances.emplace_back("negative demand", std::move(cycle));
  return instances;
}

TEST(SolveSharded, SettledShardsMatchFullSearch) {
  std::vector<std::pair<std::string, AssignmentProblem>> instances = near_settle_instances();
  for (std::uint64_t seed = 0; seed < 420; ++seed) {
    instances.emplace_back("seed " + std::to_string(seed), settle_instance(seed));
  }
  const auto option_sets = settle_option_sets();
  std::size_t settled = 0;
  std::size_t fell_back = 0;
  std::size_t settled_exact = 0;
  std::size_t settled_heuristic = 0;
  std::size_t settled_whole = 0;
  std::size_t whole = 0;
  std::size_t unplaceable = 0;
  std::size_t bridged = 0;
  for (const auto& [label, p] : instances) {
    const std::vector<Component> components = connected_components(p);
    const bool spans = components.size() == 1 &&
                       components.front().apps.size() == p.num_apps() &&
                       components.front().servers.size() == p.num_servers();
    whole += spans ? 1 : 0;
    for (const Component& component : components) {
      if (component.servers.empty()) ++unplaceable;
      if (component.servers.size() > 6) ++bridged;
    }
    for (const auto& [name, options] : option_sets) {
      const std::string where = label + ", " + name;
      const AssignmentSolution actual = solve_sharded(p, options);
      expect_same_solve(actual, reference_solve_sharded(p, options), where);
      const std::size_t solved = components.size() - actual.stats.unplaceable_apps;
      ASSERT_LE(actual.stats.settled_shards, solved) << where;
      settled += actual.stats.settled_shards;
      fell_back += solved - actual.stats.settled_shards;
      if (actual.stats.settled_shards > 0 && actual.stats.exact_shards > 0) ++settled_exact;
      if (actual.stats.settled_shards > 0 && actual.stats.heuristic_shards > 0) ++settled_heuristic;
      if (spans && actual.stats.settled_shards > 0) ++settled_whole;
    }
  }
  // Both paths must run, a settled shard must report each of the two
  // paths it stands in for, and the instance shapes that pick the solve's
  // branches must occur.
  EXPECT_GE(settled, 2000u);
  EXPECT_GE(fell_back, 2000u);
  EXPECT_GE(settled_exact, 100u);
  EXPECT_GE(settled_heuristic, 100u);
  EXPECT_GE(settled_whole, 20u);
  EXPECT_GE(whole, 20u);
  EXPECT_GE(unplaceable, 50u);
  EXPECT_GE(bridged, 5u);
}

// One workspace and one solution carried through a run of instances whose
// sizes and component counts rise and fall, as a PlacementService carries
// them through epochs: each solve must equal a solve on fresh buffers, and
// the components it sees must be the fresh ones, not a previous solve's.
TEST(SolveSharded, WorkspaceReuseMatchesFreshSolve) {
  const auto option_sets = settle_option_sets();
  ShardWorkspace workspace;
  AssignmentSolution reused;
  std::size_t shrank = 0;
  std::size_t previous_components = 0;
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    const AssignmentProblem p =
        seed % 3 == 0 ? random_sparse_instance(seed) : settle_instance(seed);
    const std::string where = "seed " + std::to_string(seed);
    const std::vector<Component> fresh = connected_components(p);
    const std::span<const Component> kept = connected_components(p, workspace);
    ASSERT_EQ(kept.size(), fresh.size()) << where;
    for (std::size_t c = 0; c < fresh.size(); ++c) {
      ASSERT_EQ(kept[c].apps, fresh[c].apps) << where;
      ASSERT_EQ(kept[c].servers, fresh[c].servers) << where;
    }
    shrank += fresh.size() < previous_components ? 1 : 0;
    previous_components = fresh.size();

    const AssignmentOptions& options = option_sets[seed % option_sets.size()].second;
    solve_sharded(p, options, workspace, reused);
    const AssignmentSolution expected = solve_sharded(p, options);
    expect_same_solve(reused, expected, where);
    ASSERT_EQ(reused.stats.settled_shards, expected.stats.settled_shards) << where;
  }
  EXPECT_GE(shrank, 50u);
}

// The capacity headroom the settle certificate keeps free on every server,
// relative to max(1, |capacity|) (kSettleHeadroom in decompose.cpp).
constexpr double kSettleHeadroom = 1e-7;

// Three apps whose cheapest pair is on server 0 (demands d, summed in app
// order), a costlier server 1 with room for all, and, with `block`, an
// independent fourth app on server 2 that always settles.
AssignmentProblem headroom_instance(const std::vector<double>& d, double capacity, bool block) {
  AssignmentProblem p(block ? 4 : 3, block ? 3 : 2, 1);
  p.set_capacity(0, 0, capacity);
  p.set_capacity(1, 0, 10.0 * capacity);
  for (std::size_t i = 0; i < 3; ++i) {
    p.add_pair(i, 0, 1.0, {d[i]});
    p.add_pair(i, 1, 2.0 + static_cast<double>(i), {d[i]});
  }
  if (block) {
    p.set_capacity(2, 0, 1.0);
    p.add_pair(3, 2, 1.0, {0.5});
  }
  return p;
}

// Server 0's capacity steps ulp by ulp across the summed demand S, and
// across the point above S where the certificate starts to settle. It must
// decline everywhere inside the headroom, and the answer must equal the
// full search on both sides. At demands near 1e9 an ulp of capacity
// exceeds greedy's 1e-9 fit slack, so just below S the full search moves
// an app off its cheapest pair.
TEST(SolveSharded, SettleDeclinesInsideCapacityHeadroom) {
  const AssignmentOptions heuristic_only = [] {
    AssignmentOptions options;
    options.exact_size_limit = 0;
    return options;
  }();
  std::size_t moved_off_cheapest = 0;
  for (const double scale : {1.0, 1e9}) {
    const std::vector<double> d = {0.1 * scale, 0.2 * scale, 0.7 * scale};
    const double sum = d[0] + d[1] + d[2];
    for (const bool block : {false, true}) {
      const std::string where =
          "scale " + std::to_string(scale) + (block ? ", two components" : ", one component");
      // Whether server 0 at `capacity` settles, after checking that both
      // option sets reproduce the full search and agree on it.
      const auto settles = [&](double capacity) {
        const AssignmentProblem p = headroom_instance(d, capacity, block);
        std::size_t settled = 0;
        for (const AssignmentOptions& options : {AssignmentOptions{}, heuristic_only}) {
          const AssignmentSolution expected = reference_solve_sharded(p, options);
          const AssignmentSolution actual = solve_sharded(p, options);
          expect_same_solve(actual, expected, where + ", capacity " + std::to_string(capacity));
          if (std::any_of(expected.assignment.begin(), expected.assignment.begin() + 3,
                          [](std::size_t j) { return j != 0; })) {
            ++moved_off_cheapest;
          }
          settled += actual.stats.settled_shards > (block ? 1u : 0u) ? 1 : 0;
        }
        EXPECT_NE(settled, 1u) << where << ", capacity " << capacity;
        return settled == 2;
      };

      double capacity = sum;
      for (int step = 0; step < 32; ++step) capacity = std::nextafter(capacity, 0.0);
      for (int step = 0; step < 64; ++step) {
        EXPECT_FALSE(settles(capacity)) << where << ", step " << step;
        capacity = std::nextafter(capacity, kInfinity);
      }

      // The first capacity that settles, by bisection over the bit patterns
      // of the positive doubles between S and S + 4 headrooms.
      std::uint64_t lo = bits(sum);
      std::uint64_t hi = bits(sum + 4.0 * kSettleHeadroom * std::max(1.0, sum));
      ASSERT_FALSE(settles(std::bit_cast<double>(lo))) << where;
      ASSERT_TRUE(settles(std::bit_cast<double>(hi))) << where;
      while (hi - lo > 1) {
        const std::uint64_t mid = lo + (hi - lo) / 2;
        (settles(std::bit_cast<double>(mid)) ? hi : lo) = mid;
      }
      const double first = std::bit_cast<double>(hi);
      // The headroom is max(1, capacity) * kSettleHeadroom, up to rounding.
      const double ulp = std::nextafter(first, kInfinity) - first;
      EXPECT_NEAR(first - sum, kSettleHeadroom * std::max(1.0, first), 4.0 * ulp) << where;
      capacity = first;
      for (int step = 0; step < 32; ++step) capacity = std::nextafter(capacity, 0.0);
      for (int step = 0; step < 64; ++step) {
        EXPECT_EQ(settles(capacity), capacity >= first) << where << ", step " << step;
        capacity = std::nextafter(capacity, kInfinity);
      }
    }
  }
  // Just below S the full search does move an app, so the decline matters.
  EXPECT_GT(moved_off_cheapest, 0u);
}

}  // namespace
}  // namespace carbonedge::solver
