#include "solver/assignment.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "solver/lp.hpp"
#include "solver_test_util.hpp"
#include "util/random.hpp"

namespace carbonedge::solver {
namespace {

// Tiny helper: single-resource problem with unit demands and cost i+j.
// Every pair is feasible unless `feasible` rejects it (latency-infeasible).
AssignmentProblem simple_problem(
    std::size_t apps, std::size_t servers,
    const std::function<bool(std::size_t, std::size_t)>& feasible = nullptr) {
  AssignmentProblem p(apps, servers, 1);
  for (std::size_t j = 0; j < servers; ++j) p.set_capacity(j, 0, static_cast<double>(apps));
  for (std::size_t i = 0; i < apps; ++i) {
    for (std::size_t j = 0; j < servers; ++j) {
      if (feasible && !feasible(i, j)) continue;
      p.add_pair(i, j, static_cast<double>(i + j), {1.0});
    }
  }
  return p;
}

TEST(AssignmentProblem, RowsHoldPairsInAddOrder) {
  AssignmentProblem p(4, 3, 2);
  EXPECT_EQ(p.num_pairs(), 0u);  // a new problem has no pairs and every server on
  EXPECT_EQ(p.find_pair(0, 0), kNoPair);
  EXPECT_TRUE(p.initially_on(0));
  p.add_pair(1, 0, 2.0, {0.5, 0.25});
  p.add_pair(1, 2, 3.0, {1.5, 1.25});
  p.add_pair(3, 1, 4.0, {2.5, 2.25});
  EXPECT_EQ(p.num_pairs(), 3u);
  EXPECT_EQ(p.row_begin(0), p.row_end(0));  // skipped app: empty row
  EXPECT_EQ(p.row_end(1) - p.row_begin(1), 2u);
  EXPECT_EQ(p.row_begin(2), p.row_end(2));
  EXPECT_EQ(p.row_end(3) - p.row_begin(3), 1u);
  const std::size_t pair = p.find_pair(1, 2);
  ASSERT_NE(pair, kNoPair);
  EXPECT_EQ(p.server(pair), 2u);
  EXPECT_EQ(p.cost(pair), 3.0);
  EXPECT_EQ(p.demand(pair, 1), 1.25);
  EXPECT_EQ(p.find_pair(1, 1), kNoPair);
  EXPECT_EQ(p.find_pair(0, 0), kNoPair);
}

TEST(AssignmentProblem, AddPairRejectsBrokenContract) {
  AssignmentProblem p(3, 3, 1);
  p.add_pair(1, 1, 1.0, {1.0});
  EXPECT_THROW(p.add_pair(1, 0, 1.0, {1.0}), std::invalid_argument);  // descending server
  EXPECT_THROW(p.add_pair(1, 1, 1.0, {1.0}), std::invalid_argument);  // duplicate
  EXPECT_THROW(p.add_pair(0, 2, 1.0, {1.0}), std::invalid_argument);  // earlier app
  EXPECT_THROW(p.add_pair(1, 3, 1.0, {1.0}), std::invalid_argument);  // server out of range
  EXPECT_THROW(p.add_pair(3, 0, 1.0, {1.0}), std::invalid_argument);  // app out of range
  EXPECT_THROW(p.add_pair(2, 0, std::numeric_limits<double>::quiet_NaN(), {1.0}),
               std::invalid_argument);
  EXPECT_THROW(p.add_pair(2, 0, kInfinity, {1.0}), std::invalid_argument);
  EXPECT_THROW(p.add_pair(2, 0, -kInfinity, {1.0}), std::invalid_argument);
  EXPECT_THROW(p.add_pair(2, 0, 1.0, {1.0, 2.0}), std::invalid_argument);  // demand count
  EXPECT_EQ(p.num_pairs(), 1u);  // rejected pairs leave no trace
  p.add_pair(1, 2, 1.0, {1.0});
  p.add_pair(2, 0, 1.0, {1.0});
  EXPECT_EQ(p.num_pairs(), 3u);
}

TEST(Evaluate, ComputesCostAndPowerStates) {
  AssignmentProblem p = simple_problem(2, 2);
  p.set_initially_on(1, false);
  p.set_activation_cost(1, 10.0);
  const AssignmentSolution sol = evaluate(p, {0, 1});
  EXPECT_TRUE(sol.feasible);
  // cost(0,0)=0 + cost(1,1)=2 + activation(1)=10.
  EXPECT_DOUBLE_EQ(sol.total_cost, 12.0);
  EXPECT_TRUE(sol.powered_on[1]);
}

TEST(Evaluate, CountsUnassigned) {
  const AssignmentProblem p = simple_problem(3, 2);
  const AssignmentSolution sol = evaluate(p, {0, kUnassigned, 1});
  EXPECT_FALSE(sol.feasible);
  EXPECT_EQ(sol.unassigned_count, 1u);
  EXPECT_EQ(sol.pairs[1], kNoPair);
}

// A hand-built answer that puts an app on a server it has no pair with
// (Eq. 2's latency filter, or past the servers) has no pair to name.
TEST(Evaluate, ThrowsOnServerWithoutPair) {
  // Pair (0, 1) is latency-infeasible.
  const AssignmentProblem p =
      simple_problem(2, 2, [](std::size_t i, std::size_t j) { return !(i == 0 && j == 1); });
  EXPECT_THROW((void)evaluate(p, {1, 0}), std::invalid_argument);
  EXPECT_THROW((void)evaluate(p, {0, 2}), std::invalid_argument);  // no server 2
  EXPECT_NO_THROW((void)evaluate(p, {0, 1}));
}

TEST(Validate, RejectsCapacityViolation) {
  AssignmentProblem p = simple_problem(3, 1);
  p.set_capacity(0, 0, 2.0);  // only two unit slots
  AssignmentSolution sol = evaluate(p, {0, 0, 0});
  EXPECT_FALSE(sol.feasible);
  EXPECT_FALSE(validate(p, sol));
}

// An answer names one pair per app, each from the app's own row. A pair of
// another app's row (here app 1's pair on server 1, where app 0 is latency
// infeasible), a pair past the last, or a missing entry is refused.
TEST(Validate, RejectsInfeasiblePairUse) {
  // Pair (0, 1) is latency-infeasible: app 0 owns pair 0, app 1 pairs 1-2.
  const AssignmentProblem p =
      simple_problem(2, 2, [](std::size_t i, std::size_t j) { return !(i == 0 && j == 1); });
  ASSERT_EQ(p.find_pair(1, 1), 2u);
  AssignmentSolution sol;
  sol.powered_on = {1, 1};
  sol.pairs = {0, 2};
  EXPECT_TRUE(validate(p, sol));
  sol.pairs = {2, 1};  // app 0 on app 1's pair
  EXPECT_FALSE(validate(p, sol));
  sol.pairs = {0, 0};  // app 1 on app 0's pair
  EXPECT_FALSE(validate(p, sol));
  sol.pairs = {0, 3};  // no pair 3
  EXPECT_FALSE(validate(p, sol));
  sol.pairs = {0};  // no entry for app 1
  EXPECT_FALSE(validate(p, sol));
}

TEST(Validate, RejectsPoweredOffHosting) {
  AssignmentProblem p = simple_problem(1, 1);
  AssignmentSolution sol;
  sol.pairs = {0};
  sol.powered_on = {0};  // claims server off while hosting (Eq. 5)
  EXPECT_FALSE(validate(p, sol));
}

TEST(Validate, RejectsPoweringOffInitiallyOnServer) {
  AssignmentProblem p = simple_problem(1, 2);
  AssignmentSolution sol;
  sol.pairs = {p.find_pair(0, 0)};
  sol.powered_on = {1, 0};  // server 1 initially on but reported off (Eq. 4)
  EXPECT_FALSE(validate(p, sol));
}

TEST(SolveExact, PicksCheapestFeasible) {
  AssignmentProblem p = simple_problem(2, 3);
  const AssignmentSolution sol = solve_exact(p);
  ASSERT_TRUE(sol.feasible);
  EXPECT_EQ(testutil::servers_of(p, sol), (std::vector<std::size_t>{0, 0}));  // costs i+j
  EXPECT_DOUBLE_EQ(sol.total_cost, 0.0 + 1.0);
}

TEST(SolveExact, RespectsCapacity) {
  AssignmentProblem p = simple_problem(2, 2);
  p.set_capacity(0, 0, 1.0);
  const AssignmentSolution sol = solve_exact(p);
  ASSERT_TRUE(sol.feasible);
  EXPECT_NE(p.server(sol.pairs[0]), p.server(sol.pairs[1]));
}

TEST(SolveExact, WeighsActivationAgainstPlacement) {
  // Server 1 is cheaper per-app but off with a big activation cost: with one
  // app the optimizer stays on server 0; with three apps activation
  // amortizes and server 1 wins.
  const auto build = [](std::size_t apps) {
    AssignmentProblem p(apps, 2, 1);
    p.set_capacity(0, 0, 10.0);
    p.set_capacity(1, 0, 10.0);
    p.set_initially_on(1, false);
    p.set_activation_cost(1, 5.0);
    for (std::size_t i = 0; i < apps; ++i) {
      p.add_pair(i, 0, 4.0, {1.0});
      p.add_pair(i, 1, 1.0, {1.0});
    }
    return p;
  };
  const AssignmentProblem one_app = build(1);
  const AssignmentSolution one = solve_exact(one_app);
  ASSERT_TRUE(one.feasible);
  EXPECT_EQ(testutil::servers_of(one_app, one), (std::vector<std::size_t>{0}));  // 4 < 1 + 5
  const AssignmentProblem three_apps = build(3);
  const AssignmentSolution three = solve_exact(three_apps);
  ASSERT_TRUE(three.feasible);
  EXPECT_EQ(testutil::servers_of(three_apps, three),
            (std::vector<std::size_t>{1, 1, 1}));  // 3+5 < 12
}

TEST(SolveExact, InfeasibleWhenAppHasNoServer) {
  AssignmentProblem p(1, 1, 1);  // no pairs added
  const AssignmentSolution sol = solve_exact(p);
  EXPECT_FALSE(sol.feasible);
  EXPECT_EQ(sol.unassigned_count, 1u);
}

TEST(SolveGreedy, FeasibleAndReasonable) {
  AssignmentProblem p = simple_problem(5, 3);
  const AssignmentSolution sol = solve_greedy(p);
  ASSERT_TRUE(sol.feasible);
  EXPECT_TRUE(validate(p, sol));
}

TEST(SolveGreedy, HandlesTightCapacities) {
  AssignmentProblem p = simple_problem(4, 4);
  for (std::size_t j = 0; j < 4; ++j) p.set_capacity(j, 0, 1.0);
  const AssignmentSolution sol = solve_greedy(p);
  ASSERT_TRUE(sol.feasible);
  // All four servers used exactly once.
  std::array<int, 4> used{};
  for (const std::size_t j : testutil::servers_of(p, sol)) ++used[j];
  for (const int u : used) EXPECT_EQ(u, 1);
}

// The regret greedy as it was first written, kept as an oracle: every round
// rescans the whole row of every unplaced app against the current capacity
// and power state. solve_greedy must make exactly the same picks.
AssignmentSolution full_rescan_greedy(const AssignmentProblem& problem) {
  const std::size_t apps = problem.num_apps();
  const std::size_t resources = problem.num_resources();
  std::vector<double> remaining(problem.num_servers() * resources);
  std::vector<std::uint8_t> planned_on(problem.num_servers());
  for (std::size_t j = 0; j < problem.num_servers(); ++j) {
    planned_on[j] = problem.initially_on(j) ? 1 : 0;
    for (std::size_t k = 0; k < resources; ++k) remaining[j * resources + k] = problem.capacity(j, k);
  }
  const auto fits = [&](std::size_t pair) {
    const std::size_t j = problem.server(pair);
    for (std::size_t k = 0; k < resources; ++k) {
      if (problem.demand(pair, k) > remaining[j * resources + k] + 1e-9) return false;
    }
    return true;
  };
  const auto effective_cost = [&](std::size_t pair) {
    const std::size_t j = problem.server(pair);
    double c = problem.cost(pair);
    if (!planned_on[j]) c += problem.activation_cost(j);
    return c;
  };

  std::vector<std::size_t> assignment(apps, kUnassigned);
  std::vector<std::uint8_t> placed(apps, 0);
  for (std::size_t round = 0; round < apps; ++round) {
    std::size_t pick = kUnassigned;
    std::size_t pick_pair = kNoPair;
    double pick_regret = -1.0;
    double pick_best_cost = -kInfinity;
    for (std::size_t i = 0; i < apps; ++i) {
      if (placed[i]) continue;
      double best = kInfinity;
      double second = kInfinity;
      std::size_t best_pair = kNoPair;
      for (std::size_t p = problem.row_begin(i); p < problem.row_end(i); ++p) {
        if (!fits(p)) continue;
        const double c = effective_cost(p);
        if (c < best) {
          second = best;
          best = c;
          best_pair = p;
        } else if (c < second) {
          second = c;
        }
      }
      if (best_pair == kNoPair) continue;
      const double regret = (second == kInfinity) ? kInfinity : second - best;
      if (regret > pick_regret || (regret == pick_regret && best > pick_best_cost)) {
        pick_regret = regret;
        pick_best_cost = best;
        pick = i;
        pick_pair = best_pair;
      }
    }
    if (pick == kUnassigned) break;
    assignment[pick] = problem.server(pick_pair);
    placed[pick] = 1;
    const std::size_t j = problem.server(pick_pair);
    for (std::size_t k = 0; k < resources; ++k) {
      remaining[j * resources + k] -= problem.demand(pick_pair, k);
    }
    planned_on[j] = 1;
  }
  return evaluate(problem, assignment);
}

// A random sparse instance for the greedy oracle. One seed in three draws
// integer costs, activation costs and demands from small ranges, so equal
// regrets and equal best costs are common (the tie rule decides most
// picks); one in four sizes capacity below total demand, so some apps are
// stranded and the answers compared are partial.
AssignmentProblem random_greedy_instance(std::uint64_t seed) {
  util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 11);
  const bool ties = seed % 3 == 0;
  const bool tight = seed % 4 == 1;
  const std::size_t resources = 1 + rng.uniform_index(3);
  const std::size_t apps = 4 + rng.uniform_index(45);
  const std::size_t servers = 2 + rng.uniform_index(14);
  const double drop = rng.uniform(0.15, 0.60);
  const double per_server = static_cast<double>(apps) / static_cast<double>(servers);
  AssignmentProblem p(apps, servers, resources);
  for (std::size_t j = 0; j < servers; ++j) {
    for (std::size_t k = 0; k < resources; ++k) {
      const double scale = tight ? rng.uniform(0.3, 0.9) : rng.uniform(1.2, 3.0);
      p.set_capacity(j, k, ties ? std::floor(scale * per_server * 1.5) : scale * per_server);
    }
    if (rng.bernoulli(0.35)) {
      p.set_initially_on(j, false);
      const double activation =
          ties ? static_cast<double>(rng.uniform_index(4)) : rng.uniform(0.0, 5.0);
      p.set_activation_cost(j, activation);
    }
  }
  std::vector<double> demand(resources);
  for (std::size_t i = 0; i < apps; ++i) {
    for (std::size_t j = 0; j < servers; ++j) {
      if (rng.bernoulli(drop)) continue;  // latency-infeasible pair
      const double cost = ties ? static_cast<double>(rng.uniform_index(4)) : rng.uniform(0.0, 10.0);
      for (double& d : demand) {
        d = ties ? static_cast<double>(1 + rng.uniform_index(2)) : rng.uniform(0.3, 1.5);
      }
      p.add_pair(i, j, cost, demand);
    }
  }
  return p;
}

// A catalog-shaped instance: a few hundred apps on hundreds of servers,
// each app's row a short band of neighboring servers, and origins skewed
// toward a few hot spots so some columns are long. Servers come in three
// sizes: tiny ones fill after one or two commits, and about a third start
// off, some of those with an activation cost of exactly 0. One seed in
// three draws integer costs, so tie cases (equal costs on the committed
// server and elsewhere) are common. One in four gives some pairs a negative
// compute demand (add_pair accepts it), so a commit can also grow a
// server's headroom.
AssignmentProblem random_catalog_instance(std::uint64_t seed) {
  util::Rng rng(seed * 0xd1b54a32d192ed03ULL + 29);
  const bool ties = seed % 3 == 0;
  const bool refunds = seed % 4 == 3;
  const std::size_t apps = 200 + rng.uniform_index(200);
  const std::size_t servers = 150 + rng.uniform_index(250);
  const std::size_t width = 3 + rng.uniform_index(10);
  AssignmentProblem p(apps, servers, 2);
  for (std::size_t j = 0; j < servers; ++j) {
    const double size_class = rng.uniform(0.0, 1.0);
    const double scale = size_class < 0.3 ? rng.uniform(1.0, 2.2)   // one or two apps
                         : size_class < 0.8 ? rng.uniform(3.0, 8.0)
                                            : rng.uniform(10.0, 30.0);
    // Under refunds memory is ample, so compute alone decides most fits.
    p.set_capacity(j, 0, refunds ? 4.0 * scale : ties ? std::floor(scale) : scale);
    p.set_capacity(j, 1, ties ? std::floor(scale) : scale * rng.uniform(0.8, 1.2));
    if (rng.bernoulli(0.35)) {
      p.set_initially_on(j, false);
      const double activation = rng.bernoulli(0.4) ? 0.0
                                : ties             ? static_cast<double>(1 + rng.uniform_index(3))
                                                   : rng.uniform(0.0, 5.0);
      p.set_activation_cost(j, activation);
    }
  }
  const std::size_t hot_spots = 1 + rng.uniform_index(4);
  std::vector<std::size_t> hot(hot_spots);
  for (std::size_t& h : hot) h = rng.uniform_index(servers);
  for (std::size_t i = 0; i < apps; ++i) {
    // Half the apps cluster around a hot spot; the rest spread uniformly.
    std::size_t origin = rng.uniform_index(servers);
    if (rng.bernoulli(0.5)) {
      const std::size_t spot = hot[rng.uniform_index(hot_spots)];
      origin = std::min(servers - 1, spot + rng.uniform_index(width));
    }
    const std::size_t first = origin >= width / 2 ? origin - width / 2 : 0;
    for (std::size_t j = first; j < std::min(servers, first + width); ++j) {
      if (rng.bernoulli(0.15)) continue;  // latency-infeasible pair
      const double cost = ties ? static_cast<double>(rng.uniform_index(4)) : rng.uniform(0.0, 10.0);
      const double memory = ties ? static_cast<double>(1 + rng.uniform_index(2)) : rng.uniform(0.5, 1.5);
      double compute = ties ? memory : rng.uniform(0.5, 1.5);
      if (refunds && rng.bernoulli(0.3)) compute = -compute;
      p.add_pair(i, j, cost, {memory, compute});
    }
  }
  return p;
}

TEST(SolveGreedy, MatchesFullRescanReference) {
  std::size_t partial = 0;
  for (std::uint64_t seed = 0; seed < 240; ++seed) {
    const AssignmentProblem p = random_greedy_instance(seed);
    const AssignmentSolution expected = full_rescan_greedy(p);
    const AssignmentSolution actual = solve_greedy(p);
    ASSERT_EQ(actual.pairs, expected.pairs) << "seed " << seed;
    ASSERT_EQ(actual.unassigned_count, expected.unassigned_count) << "seed " << seed;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(actual.total_cost),
              std::bit_cast<std::uint64_t>(expected.total_cost))
        << "seed " << seed;
    if (expected.unassigned_count > 0) ++partial;
  }
  // The tight instances must actually strand apps, or the partial-answer
  // path goes unchecked.
  EXPECT_GE(partial, 20u);

  // Catalog-shaped instances: long columns make most of a commit's
  // affected apps skippable, and tiny servers make pairs stop fitting.
  std::size_t catalog_partial = 0;
  for (std::uint64_t seed = 0; seed < 36; ++seed) {
    const AssignmentProblem p = random_catalog_instance(seed);
    const AssignmentSolution expected = full_rescan_greedy(p);
    const AssignmentSolution actual = solve_greedy(p);
    ASSERT_EQ(actual.pairs, expected.pairs) << "catalog seed " << seed;
    ASSERT_EQ(actual.unassigned_count, expected.unassigned_count) << "catalog seed " << seed;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(actual.total_cost),
              std::bit_cast<std::uint64_t>(expected.total_cost))
        << "catalog seed " << seed;
    if (expected.unassigned_count > 0) ++catalog_partial;
  }
  EXPECT_GE(catalog_partial, 6u);
}

TEST(LocalSearch, FixesGreedyMisstep) {
  // Construct an instance where a swap strictly improves: two apps with
  // opposite preferences on capacity-1 servers.
  AssignmentProblem p(2, 2, 1);
  p.set_capacity(0, 0, 1.0);
  p.set_capacity(1, 0, 1.0);
  p.add_pair(0, 0, 5.0, {1.0});
  p.add_pair(0, 1, 1.0, {1.0});
  p.add_pair(1, 0, 1.0, {1.0});
  p.add_pair(1, 1, 5.0, {1.0});
  AssignmentSolution sol = evaluate(p, {0, 1});  // the bad crossing, cost 10
  EXPECT_DOUBLE_EQ(sol.total_cost, 10.0);
  const std::size_t moves = improve_local_search(p, sol);
  EXPECT_GE(moves, 1u);
  EXPECT_DOUBLE_EQ(sol.total_cost, 2.0);
  EXPECT_TRUE(validate(p, sol));
}

// improve_local_search re-evaluates the solution it is handed even when no
// move applies: a hand-built solution with a stale cost and feasibility
// flag comes back with both recomputed, and its stats kept.
TEST(LocalSearch, RefreshesStaleSolutionWithoutMoves) {
  AssignmentProblem p(2, 2, 1);
  p.set_capacity(0, 0, 2.0);
  p.set_capacity(1, 0, 2.0);
  p.set_initially_on(1, false);
  p.set_activation_cost(1, 3.0);
  p.add_pair(0, 0, 1.0, {1.0});
  p.add_pair(0, 1, 4.0, {1.0});
  p.add_pair(1, 0, 2.0, {1.0});
  AssignmentSolution sol;
  sol.pairs = {p.find_pair(0, 0), p.find_pair(1, 0)};  // already optimal: no move improves it
  sol.feasible = false;
  sol.total_cost = 1234.5;
  sol.unassigned_count = 7;
  sol.stats.components = 1;
  sol.stats.heuristic_shards = 1;
  EXPECT_EQ(improve_local_search(p, sol), 0u);
  const AssignmentSolution fresh = evaluate(p, {0, 0});
  EXPECT_TRUE(sol.feasible);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(sol.total_cost),
            std::bit_cast<std::uint64_t>(fresh.total_cost));
  EXPECT_EQ(sol.total_cost, 3.0);
  EXPECT_EQ(sol.unassigned_count, 0u);
  EXPECT_EQ(sol.powered_on, fresh.powered_on);
  EXPECT_EQ(sol.stats.components, 1u);
  EXPECT_EQ(sol.stats.heuristic_shards, 1u);

  // And the other way round: a stale "feasible" on an overloaded placement.
  p.set_capacity(0, 0, 1.5);
  sol.feasible = true;
  sol.total_cost = 0.0;
  EXPECT_EQ(improve_local_search(p, sol), 0u);  // app 1 has no other server
  EXPECT_FALSE(sol.feasible);
  EXPECT_EQ(sol.total_cost, 3.0);
}

// improve_local_search moves an answer's pairs, so it refuses one that
// names a pair outside its app's row, or has no entry for some app.
TEST(LocalSearch, RejectsPairsOutsideTheirRows) {
  // Pair (0, 1) is latency-infeasible: app 0 owns pair 0, app 1 pairs 1-2.
  const AssignmentProblem p =
      simple_problem(2, 2, [](std::size_t i, std::size_t j) { return !(i == 0 && j == 1); });
  AssignmentSolution sol = evaluate(p, {0, 1});
  sol.pairs = {2, 1};  // app 0 on app 1's pair
  EXPECT_THROW(improve_local_search(p, sol), std::invalid_argument);
  sol.pairs = {0};
  EXPECT_THROW(improve_local_search(p, sol), std::invalid_argument);
  sol.pairs = {0, kNoPair};
  EXPECT_NO_THROW(improve_local_search(p, sol));
  EXPECT_EQ(sol.unassigned_count, 1u);
}

TEST(SolveAuto, UnitSlotInstanceSolvesExactly) {
  AssignmentProblem p = simple_problem(3, 2);
  const AssignmentSolution sol = testutil::solve_auto(p);
  ASSERT_TRUE(sol.feasible);
  const AssignmentSolution exact = solve_exact(p);
  EXPECT_NEAR(sol.total_cost, exact.total_cost, 1e-9);
}

// An app with no feasible server forms its own server-less component: it
// stays unassigned, and every placeable app still lands, at a cost never
// worse than greedy + local search on the whole instance.
TEST(SolveAuto, UnplaceableAppLeavesOthersPlaced) {
  // App 2 has no feasible server at all.
  AssignmentProblem p =
      simple_problem(3, 2, [](std::size_t i, std::size_t) { return i != 2; });
  p.set_capacity(0, 0, 1.0);
  p.set_capacity(1, 0, 1.0);

  const AssignmentSolution sol = testutil::solve_auto(p);
  EXPECT_FALSE(sol.feasible);
  EXPECT_EQ(sol.unassigned_count, 1u);
  EXPECT_NE(sol.pairs[0], kNoPair);  // placeable apps still land
  EXPECT_NE(sol.pairs[1], kNoPair);
  EXPECT_EQ(sol.pairs[2], kNoPair);

  // Never worse than the heuristic on the whole instance.
  AssignmentSolution heuristic = solve_greedy(p);
  improve_local_search(p, heuristic);
  EXPECT_LE(sol.unassigned_count, heuristic.unassigned_count);
  if (sol.unassigned_count == heuristic.unassigned_count) {
    EXPECT_LE(sol.total_cost, heuristic.total_cost + 1e-9);
  }
}

// A numerically stranded warm start: one initially-off server of capacity
// 2^33, where an ulp is 2^-19 (about 1.9e-6), and three apps whose demands
// sum to capacity + 2^-19. validate compares that sum with capacity + 1e-6,
// which rounds to the same value, so greedy's placement is feasible; the
// exact path's capacity row computes sum - capacity = 2^-19 > 1e-6 and
// rejects it as B&B's incumbent.
AssignmentProblem stranded_warm_start_instance() {
  AssignmentProblem p(3, 1, 1);
  p.set_capacity(0, 0, 0x1.0p33);
  p.set_initially_on(0, false);
  p.add_pair(0, 0, 1.0, {-0x1.8p-19});
  p.add_pair(1, 0, 1.0, {0x1.4p-19});
  p.add_pair(2, 0, 1.0, {0x1.0p33 + 0x1.0p-19});
  return p;
}

// Regression (fallback bug): when B&B comes up with no incumbent at all
// (here a stranded warm start on a zero-node budget), solve_exact used to
// discard the feasible greedy placement it had already computed and return
// an all-kUnassigned shell. It must return the greedy incumbent instead.
TEST(SolveExact, ReturnsGreedyIncumbentWhenSearchComesUpEmpty) {
  const AssignmentProblem p = stranded_warm_start_instance();
  ASSERT_TRUE(solve_greedy(p).feasible);
  MilpOptions starved;
  starved.max_nodes = 0;
  const AssignmentSolution sol = solve_exact(p, starved);
  ASSERT_TRUE(sol.feasible);
  EXPECT_EQ(sol.unassigned_count, 0u);
  EXPECT_TRUE(validate(p, sol));
  // The answer is the heuristic incumbent, not a proven optimum.
  EXPECT_EQ(sol.stats.heuristic_shards, 1u);
  EXPECT_EQ(sol.stats.exact_shards, 0u);
}

// The exact path's LP, built as solve_exact builds it: x_p is variable p,
// then one y_j per initially-off server with a pair; Eq. 3 rows, capacity
// rows (-cap * y_j on off servers) and per-pair x_p <= y_j links. Every app
// row must be non-empty.
struct ExactLp {
  LinearProgram lp;
  std::vector<int> integer_vars;
  std::vector<int> y_var;
};

ExactLp exact_lp(const AssignmentProblem& problem) {
  ExactLp out;
  std::vector<std::vector<std::size_t>> column(problem.num_servers());  // pairs, apps ascending
  for (std::size_t p = 0; p < problem.num_pairs(); ++p) column[problem.server(p)].push_back(p);
  for (std::size_t p = 0; p < problem.num_pairs(); ++p) {
    out.integer_vars.push_back(out.lp.add_variable(problem.cost(p), 0.0, 1.0));
  }
  out.y_var.assign(problem.num_servers(), -1);
  for (std::size_t j = 0; j < problem.num_servers(); ++j) {
    if (problem.initially_on(j) || column[j].empty()) continue;
    out.y_var[j] = out.lp.add_variable(problem.activation_cost(j), 0.0, 1.0);
    out.integer_vars.push_back(out.y_var[j]);
  }
  for (std::size_t i = 0; i < problem.num_apps(); ++i) {
    std::vector<std::pair<int, double>> terms;
    for (std::size_t p = problem.row_begin(i); p < problem.row_end(i); ++p) {
      terms.emplace_back(static_cast<int>(p), 1.0);
    }
    out.lp.add_constraint(std::move(terms), Sense::kEqual, 1.0);
  }
  for (std::size_t j = 0; j < problem.num_servers(); ++j) {
    if (column[j].empty()) continue;
    const int y = out.y_var[j];
    for (std::size_t k = 0; k < problem.num_resources(); ++k) {
      std::vector<std::pair<int, double>> terms;
      for (const std::size_t p : column[j]) terms.emplace_back(static_cast<int>(p), problem.demand(p, k));
      if (y >= 0) {
        terms.emplace_back(y, -problem.capacity(j, k));
        out.lp.add_constraint(std::move(terms), Sense::kLessEqual, 0.0);
      } else {
        out.lp.add_constraint(std::move(terms), Sense::kLessEqual, problem.capacity(j, k));
      }
    }
    if (y >= 0) {
      for (const std::size_t p : column[j]) {
        out.lp.add_constraint({{static_cast<int>(p), 1.0}, {y, -1.0}}, Sense::kLessEqual, 0.0);
      }
    }
  }
  return out;
}

/// `solution` as the exact path's 0/1 point: x = 1 on each placed app's
/// pair, y = 1 on each powered-on y-server.
std::vector<double> exact_point(const AssignmentProblem& problem, const ExactLp& exact,
                                const AssignmentSolution& solution) {
  std::vector<double> values(exact.lp.num_variables(), 0.0);
  for (const std::size_t p : solution.pairs) values[p] = 1.0;
  for (std::size_t j = 0; j < problem.num_servers(); ++j) {
    if (exact.y_var[j] >= 0 && solution.powered_on[j]) {
      values[static_cast<std::size_t>(exact.y_var[j])] = 1.0;
    }
  }
  return values;
}

// solve_exact as it was before a root could settle without building the LP,
// kept as an oracle: it always builds the LP and runs branch and bound from
// the greedy + local search warm start. `root_settles` predicts, from this
// LP, that the root settles without its LP relaxation: the warm start is
// B&B's incumbent, the row-minimum bound reaches it, and the node budget
// lets the root run.
struct ReferenceExact {
  AssignmentSolution solution;
  bool root_settles = false;
};

ReferenceExact reference_exact(const AssignmentProblem& problem, const MilpOptions& options) {
  const std::size_t apps = problem.num_apps();
  const ExactLp exact = exact_lp(problem);
  ReferenceExact out;
  std::optional<std::vector<double>> warm;
  AssignmentSolution greedy = solve_greedy(problem);
  if (greedy.feasible) {
    improve_local_search(problem, greedy);
    std::vector<double> values = exact_point(problem, exact, greedy);
    if (exact.lp.is_feasible(values)) warm = std::move(values);
  }
  if (warm && options.max_nodes >= 1) {
    bool activation_nonnegative = true;
    for (std::size_t j = 0; j < problem.num_servers(); ++j) {
      if (exact.y_var[j] >= 0 && !(problem.activation_cost(j) >= 0.0)) {
        activation_nonnegative = false;
      }
    }
    double bound = 0.0;
    for (std::size_t i = 0; i < apps; ++i) {
      double cheapest = kInfinity;
      for (std::size_t p = problem.row_begin(i); p < problem.row_end(i); ++p) {
        cheapest = std::min(cheapest, problem.cost(p));
      }
      bound += cheapest;
    }
    const double incumbent = exact.lp.evaluate(*warm);
    out.root_settles = activation_nonnegative && std::isfinite(incumbent) && bound >= incumbent;
  }

  const MilpSolution milp = solve_milp(exact.lp, exact.integer_vars, options, warm);
  if (milp.status != MilpStatus::kOptimal && milp.status != MilpStatus::kFeasible) {
    if (greedy.feasible) {
      greedy.stats.components = 1;
      greedy.stats.heuristic_shards = 1;
      greedy.stats.milp_nodes = milp.nodes_explored;
      greedy.stats.settled_nodes = milp.settled_nodes;
      out.solution = std::move(greedy);
      return out;
    }
    out.solution.pairs.assign(apps, kNoPair);
    out.solution.unassigned_count = apps;
    out.solution.stats.components = 1;
    out.solution.stats.exact_shards = 1;
    out.solution.stats.milp_nodes = milp.nodes_explored;
    out.solution.stats.settled_nodes = milp.settled_nodes;
    return out;
  }
  std::vector<std::size_t> assignment(apps, kUnassigned);
  for (std::size_t i = 0; i < apps; ++i) {
    for (std::size_t p = problem.row_begin(i); p < problem.row_end(i); ++p) {
      if (milp.values[p] > 0.5) {
        assignment[i] = problem.server(p);
        break;
      }
    }
  }
  out.solution = evaluate(problem, assignment);
  out.solution.stats.components = 1;
  out.solution.stats.exact_shards = 1;
  out.solution.stats.milp_nodes = milp.nodes_explored;
  out.solution.stats.settled_nodes = milp.settled_nodes;
  return out;
}

// A testbed-scale instance for the exact path: 1-4 sites of 1-3 identical
// servers (same capacity, cost and demand per app, so costs tie), 40% of
// servers off with an activation cost of 0 or more, and a few apps per
// site. Every other seed draws integer costs and demands; one seed in three
// has ample capacity, the rest hold one or two apps per server, so some
// instances cannot put every app on its cheapest site.
AssignmentProblem random_exact_instance(std::uint64_t seed) {
  util::Rng rng(seed * 0x2545f4914f6cdd1dULL + 3);
  const bool ties = seed % 2 == 0;
  const bool ample = seed % 3 == 0;
  const std::size_t resources = 1 + rng.uniform_index(2);
  const std::size_t sites = 1 + rng.uniform_index(4);
  std::vector<std::size_t> site_of;
  std::vector<double> site_capacity;
  for (std::size_t s = 0; s < sites; ++s) {
    const std::size_t copies = 1 + rng.uniform_index(3);
    site_of.insert(site_of.end(), copies, s);
    for (std::size_t k = 0; k < resources; ++k) {
      const double slots = ample ? 8.0 : rng.uniform(1.0, 2.5);
      site_capacity.push_back(ties ? std::floor(slots) : slots);
    }
  }
  const std::size_t servers = site_of.size();
  const std::size_t apps = 2 + rng.uniform_index(6);
  AssignmentProblem p(apps, servers, resources);
  for (std::size_t j = 0; j < servers; ++j) {
    for (std::size_t k = 0; k < resources; ++k) {
      p.set_capacity(j, k, site_capacity[site_of[j] * resources + k]);
    }
    if (rng.bernoulli(0.4)) {
      p.set_initially_on(j, false);
      const double activation = rng.bernoulli(0.5) ? 0.0
                                : ties             ? static_cast<double>(1 + rng.uniform_index(3))
                                                   : rng.uniform(0.5, 4.0);
      p.set_activation_cost(j, activation);
    }
  }
  std::vector<double> cost(sites);
  std::vector<double> demand(sites * resources);
  std::vector<std::uint8_t> reachable(sites);
  for (std::size_t i = 0; i < apps; ++i) {
    for (std::size_t s = 0; s < sites; ++s) {
      reachable[s] = rng.bernoulli(0.75) ? 1 : 0;
      cost[s] = ties ? static_cast<double>(rng.uniform_index(4)) : rng.uniform(0.0, 10.0);
      for (std::size_t k = 0; k < resources; ++k) {
        demand[s * resources + k] =
            ties ? static_cast<double>(1 + rng.uniform_index(2)) * 0.5 : rng.uniform(0.3, 1.2);
      }
    }
    reachable[rng.uniform_index(sites)] = 1;  // every app reaches some site
    for (std::size_t j = 0; j < servers; ++j) {
      const std::size_t s = site_of[j];
      if (!reachable[s]) continue;  // latency-infeasible site
      p.add_pair(i, j, cost[s],
                 std::span<const double>(demand).subspan(s * resources, resources));
    }
  }
  return p;
}

// solve_exact settles a root without an LP when the warm start meets the
// row-minimum bound; the answer, power states, cost bits and every counter
// must equal the full search's, for every node budget, and the root must
// settle wherever the oracle predicts it is only pruned.
TEST(SolveExact, RootBoundMatchesFullSearch) {
  std::vector<MilpOptions> option_sets;
  for (const std::size_t max_nodes : {std::size_t{0}, std::size_t{1}, std::size_t{500}}) {
    MilpOptions options;
    options.max_nodes = max_nodes;
    option_sets.push_back(options);
  }
  std::size_t settled = 0;
  std::size_t searched = 0;
  std::size_t settled_defaults = 0;  // with a budget past the root
  for (std::uint64_t seed = 0; seed < 400; ++seed) {
    const AssignmentProblem p = random_exact_instance(seed);
    for (std::size_t o = 0; o < option_sets.size(); ++o) {
      const MilpOptions& options = option_sets[o];
      const ReferenceExact expected = reference_exact(p, options);
      const AssignmentSolution actual = solve_exact(p, options);
      const std::string where = "seed " + std::to_string(seed) + " options " + std::to_string(o);
      ASSERT_EQ(actual.pairs, expected.solution.pairs) << where;
      ASSERT_EQ(actual.powered_on, expected.solution.powered_on) << where;
      ASSERT_EQ(actual.feasible, expected.solution.feasible) << where;
      ASSERT_EQ(actual.unassigned_count, expected.solution.unassigned_count) << where;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(actual.total_cost),
                std::bit_cast<std::uint64_t>(expected.solution.total_cost))
          << where;
      const SolveStats& a = actual.stats;
      const SolveStats& e = expected.solution.stats;
      ASSERT_EQ(a.components, e.components) << where;
      ASSERT_EQ(a.exact_shards, e.exact_shards) << where;
      ASSERT_EQ(a.heuristic_shards, e.heuristic_shards) << where;
      ASSERT_EQ(a.unplaceable_apps, e.unplaceable_apps) << where;
      ASSERT_EQ(a.milp_nodes, e.milp_nodes) << where;
      ASSERT_EQ(a.settled_nodes, e.settled_nodes) << where;
      if (expected.root_settles) {
        // Such a root is pruned at once, and settled without its LP.
        ASSERT_EQ(e.milp_nodes, 1u) << where;
        ASSERT_EQ(a.milp_nodes, 1u) << where;
        ASSERT_EQ(a.settled_nodes, 1u) << where;
        ++settled;
        if (options.max_nodes > 1) ++settled_defaults;
      } else if (e.milp_nodes > 1) {
        ++searched;
      }
    }
  }
  // Both branches must run: roots the bound settles, and (with default
  // options too) roots whose LP bound lies below the warm start.
  EXPECT_GE(settled, 200u);
  EXPECT_GE(settled_defaults, 100u);
  EXPECT_GE(searched, 50u);
}

// The path solve_unsharded took through it.
enum class Branch {
  kHeuristicOnly,      // beyond exact_size_limit
  kEmptyRow,           // an app has no pair: no LP is built
  kRootSettled,        // the row-minimum bound settled the root at the warm start
  kSearched,           // branch and bound returned a feasible answer
  kSearchEmpty,        // no answer from the search; greedy placed every app
  kExactNotFeasible,   // no feasible exact answer and no complete greedy
};

struct PreChange {
  AssignmentSolution solution;
  Branch branch = Branch::kHeuristicOnly;
  bool milp_proved_infeasible = false;  // the search ran and found nothing
};

// solve_unsharded + solve_exact as they were when an exact shard could run
// the heuristic twice, kept as an oracle: solve_exact ran greedy (and local
// search, if greedy placed every app) as its warm start, checked the warm
// start against the LP itself, and when its answer was not feasible
// solve_unsharded ran greedy + local search again.
PreChange pre_change_unsharded(const AssignmentProblem& problem, const AssignmentOptions& options) {
  const std::size_t apps = problem.num_apps();
  const MilpOptions& milp_options = options.milp;
  PreChange out;
  const auto heuristic_fallback = [&] {
    out.solution = solve_greedy(problem);
    improve_local_search(problem, out.solution, 20);
  };
  if (apps * problem.num_servers() > options.exact_size_limit) {
    heuristic_fallback();
    return out;
  }
  for (std::size_t i = 0; i < apps; ++i) {
    if (problem.row_begin(i) == problem.row_end(i)) {
      out.branch = Branch::kEmptyRow;
      heuristic_fallback();
      return out;
    }
  }

  AssignmentSolution greedy = solve_greedy(problem);
  if (greedy.feasible) improve_local_search(problem, greedy, 20);
  const ExactLp exact = exact_lp(problem);
  if (greedy.feasible && milp_options.max_nodes >= 1) {
    bool activation_nonnegative = true;
    for (std::size_t j = 0; j < problem.num_servers(); ++j) {
      if (exact.y_var[j] >= 0 && !(problem.activation_cost(j) >= 0.0)) {
        activation_nonnegative = false;
      }
    }
    double bound = 0.0;
    for (std::size_t i = 0; i < apps; ++i) {
      double cheapest = kInfinity;
      for (std::size_t p = problem.row_begin(i); p < problem.row_end(i); ++p) {
        cheapest = std::min(cheapest, problem.cost(p));
      }
      bound += cheapest;
    }
    const std::vector<double> point = exact_point(problem, exact, greedy);
    const double incumbent = exact.lp.evaluate(point);
    if (activation_nonnegative && std::isfinite(incumbent) && bound >= incumbent &&
        exact.lp.is_feasible(point)) {
      greedy.stats = SolveStats{};
      greedy.stats.components = 1;
      greedy.stats.exact_shards = 1;
      greedy.stats.milp_nodes = 1;
      greedy.stats.settled_nodes = 1;
      out.solution = std::move(greedy);
      out.branch = Branch::kRootSettled;
      return out;
    }
  }

  std::optional<std::vector<double>> warm;
  if (greedy.feasible) {
    std::vector<double> values = exact_point(problem, exact, greedy);
    if (exact.lp.is_feasible(values)) warm = std::move(values);
  }
  const MilpSolution milp = solve_milp(exact.lp, exact.integer_vars, milp_options, warm);
  if (milp.status != MilpStatus::kOptimal && milp.status != MilpStatus::kFeasible) {
    if (greedy.feasible) {
      greedy.stats.components = 1;
      greedy.stats.heuristic_shards = 1;
      greedy.stats.milp_nodes = milp.nodes_explored;
      greedy.stats.settled_nodes = milp.settled_nodes;
      out.solution = std::move(greedy);
      out.branch = Branch::kSearchEmpty;
      return out;
    }
    out.branch = Branch::kExactNotFeasible;
    out.milp_proved_infeasible = milp.status == MilpStatus::kInfeasible &&
                                 milp.nodes_explored < milp_options.max_nodes;
    heuristic_fallback();
    return out;
  }
  std::vector<std::size_t> assignment(apps, kUnassigned);
  for (std::size_t i = 0; i < apps; ++i) {
    for (std::size_t p = problem.row_begin(i); p < problem.row_end(i); ++p) {
      if (milp.values[p] > 0.5) {
        assignment[i] = problem.server(p);
        break;
      }
    }
  }
  out.solution = evaluate(problem, assignment);
  if (!out.solution.feasible) {
    out.branch = Branch::kExactNotFeasible;
    heuristic_fallback();
    return out;
  }
  out.solution.stats.components = 1;
  out.solution.stats.exact_shards = 1;
  out.solution.stats.milp_nodes = milp.nodes_explored;
  out.solution.stats.settled_nodes = milp.settled_nodes;
  out.branch = Branch::kSearched;
  return out;
}

// `p` with an extra app at row `at` that has no pair (an app whose every
// site is out of latency reach).
AssignmentProblem with_empty_row(const AssignmentProblem& p, std::size_t at) {
  AssignmentProblem q(p.num_apps() + 1, p.num_servers(), p.num_resources());
  for (std::size_t j = 0; j < p.num_servers(); ++j) {
    for (std::size_t k = 0; k < p.num_resources(); ++k) q.set_capacity(j, k, p.capacity(j, k));
    q.set_activation_cost(j, p.activation_cost(j));
    q.set_initially_on(j, p.initially_on(j));
  }
  for (std::size_t i = 0; i < p.num_apps(); ++i) {
    for (std::size_t pair = p.row_begin(i); pair < p.row_end(i); ++pair) {
      q.add_pair(i < at ? i : i + 1, p.server(pair), p.cost(pair), p.demands(pair));
    }
  }
  return q;
}

// solve_unsharded runs greedy + local search once per shard and hands it to
// the exact path as its warm start; every answer, power state, cost bit and
// counter must equal the path that ran the heuristic again after a failed
// exact solve, on every branch of it.
TEST(SolveUnsharded, MatchesPreChangePath) {
  std::vector<AssignmentProblem> instances;
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    AssignmentProblem p = random_exact_instance(seed);
    if (seed % 5 == 4) p = with_empty_row(p, seed % p.num_apps());
    instances.push_back(std::move(p));
  }
  instances.emplace_back(1, 0, 1);  // no servers at all
  instances.emplace_back(3, 0, 2);
  instances.push_back(stranded_warm_start_instance());  // the search can come up empty

  std::vector<AssignmentOptions> option_sets;
  for (const std::size_t limit : {AssignmentOptions{}.exact_size_limit, std::size_t{1000}}) {
    for (const std::size_t max_nodes : {std::size_t{0}, std::size_t{1}, std::size_t{500}}) {
      AssignmentOptions options;
      options.exact_size_limit = limit;
      options.milp.max_nodes = max_nodes;
      option_sets.push_back(options);
    }
  }

  std::vector<std::size_t> branches(6, 0);
  std::size_t greedy_stranded = 0;  // greedy misses an app the MILP places
  std::size_t proved_infeasible = 0;
  std::size_t no_servers = 0;
  for (std::size_t n = 0; n < instances.size(); ++n) {
    const AssignmentProblem& p = instances[n];
    const bool greedy_complete = solve_greedy(p).feasible;
    for (std::size_t o = 0; o < option_sets.size(); ++o) {
      const PreChange expected = pre_change_unsharded(p, option_sets[o]);
      const AssignmentSolution actual = solve_unsharded(p, option_sets[o]);
      const std::string where = "instance " + std::to_string(n) + " options " + std::to_string(o);
      const AssignmentSolution& e = expected.solution;
      ASSERT_EQ(actual.pairs, e.pairs) << where;
      ASSERT_EQ(actual.powered_on, e.powered_on) << where;
      ASSERT_EQ(actual.feasible, e.feasible) << where;
      ASSERT_EQ(actual.unassigned_count, e.unassigned_count) << where;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(actual.total_cost),
                std::bit_cast<std::uint64_t>(e.total_cost))
          << where;
      ASSERT_EQ(actual.stats.components, e.stats.components) << where;
      ASSERT_EQ(actual.stats.exact_shards, e.stats.exact_shards) << where;
      ASSERT_EQ(actual.stats.heuristic_shards, e.stats.heuristic_shards) << where;
      ASSERT_EQ(actual.stats.unplaceable_apps, e.stats.unplaceable_apps) << where;
      ASSERT_EQ(actual.stats.milp_nodes, e.stats.milp_nodes) << where;
      ASSERT_EQ(actual.stats.settled_nodes, e.stats.settled_nodes) << where;
      ++branches[static_cast<std::size_t>(expected.branch)];
      if (expected.branch == Branch::kSearched && !greedy_complete) ++greedy_stranded;
      if (expected.milp_proved_infeasible) ++proved_infeasible;
      if (p.num_servers() == 0) ++no_servers;
    }
  }
  for (std::size_t b = 0; b < branches.size(); ++b) {
    EXPECT_GT(branches[b], 0u) << "branch " << b << " never ran";
  }
  EXPECT_GT(greedy_stranded, 0u);
  EXPECT_GT(proved_infeasible, 0u);
  EXPECT_GT(no_servers, 0u);
}

// Property suite: random multi-resource instances — exact is never worse
// than greedy+LS, and both are valid.
class RandomAssignment : public ::testing::TestWithParam<int> {};

TEST_P(RandomAssignment, SolverHierarchyHolds) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 271828 + 7);
  const std::size_t apps = 2 + rng.uniform_index(5);
  const std::size_t servers = 2 + rng.uniform_index(3);
  AssignmentProblem p(apps, servers, 2);
  for (std::size_t j = 0; j < servers; ++j) {
    p.set_capacity(j, 0, rng.uniform(2.0, 8.0));
    p.set_capacity(j, 1, rng.uniform(2.0, 8.0));
    if (rng.bernoulli(0.3)) {
      p.set_initially_on(j, false);
      p.set_activation_cost(j, rng.uniform(0.0, 5.0));
    }
  }
  for (std::size_t i = 0; i < apps; ++i) {
    for (std::size_t j = 0; j < servers; ++j) {
      if (rng.bernoulli(0.15)) continue;  // latency-infeasible pair
      // Draw into locals: argument evaluation order is unspecified.
      const double cost = rng.uniform(0.0, 10.0);
      const double memory = rng.uniform(0.3, 1.5);
      const double compute = rng.uniform(0.3, 1.5);
      p.add_pair(i, j, cost, {memory, compute});
    }
  }

  const AssignmentSolution exact = solve_exact(p);
  AssignmentSolution heuristic = solve_greedy(p);
  improve_local_search(p, heuristic);

  if (exact.feasible) {
    EXPECT_TRUE(validate(p, exact));
    if (heuristic.feasible) {
      EXPECT_LE(exact.total_cost, heuristic.total_cost + 1e-6) << "seed " << GetParam();
    }
  } else {
    // If the exact solver proves infeasibility the heuristic cannot find a
    // valid full assignment either.
    EXPECT_FALSE(heuristic.feasible) << "seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomAssignment, ::testing::Range(0, 60));

// Property suite: random unit-slot transport instances. The optimal
// transport flow is the LP relaxation's optimum (the matrix is totally
// unimodular); solve_auto (sharding, then the exact path) and solve_milp on
// the textbook binary formulation must both reach it.
class RandomTransport : public ::testing::TestWithParam<int> {};

TEST_P(RandomTransport, FlowMatchesMilp) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 31337 + 5);
  const std::size_t apps = 2 + rng.uniform_index(6);
  const std::size_t servers = 2 + rng.uniform_index(3);
  std::vector<std::size_t> slots(servers);
  std::size_t total_slots = 0;
  for (auto& s : slots) {
    s = 1 + rng.uniform_index(3);
    total_slots += s;
  }
  if (total_slots < apps) slots[0] += apps;  // keep feasible
  AssignmentProblem p(apps, servers, 1);
  for (std::size_t j = 0; j < servers; ++j) p.set_capacity(j, 0, static_cast<double>(slots[j]));
  for (std::size_t i = 0; i < apps; ++i) {
    for (std::size_t j = 0; j < servers; ++j) p.add_pair(i, j, rng.uniform(0.0, 10.0), {1.0});
  }

  const LpSolution optimum = testutil::unit_slot_lp(p);
  ASSERT_EQ(optimum.status, LpStatus::kOptimal);
  const double tolerance = 1e-9 * std::max(1.0, std::abs(optimum.objective));

  const AssignmentSolution automatic = testutil::solve_auto(p);
  ASSERT_TRUE(automatic.feasible);
  EXPECT_NEAR(automatic.total_cost, optimum.objective, tolerance) << "seed " << GetParam();

  // Binary formulation: pair p is variable p, x <= 1, app rows = 1, server
  // rows <= slots.
  LinearProgram lp;
  std::vector<int> vars;
  std::vector<std::vector<std::pair<int, double>>> server_terms(servers);
  for (std::size_t i = 0; i < apps; ++i) {
    std::vector<std::pair<int, double>> terms;
    for (std::size_t q = p.row_begin(i); q < p.row_end(i); ++q) {
      vars.push_back(lp.add_variable(p.cost(q), 0.0, 1.0));
      terms.emplace_back(vars.back(), 1.0);
      server_terms[p.server(q)].emplace_back(vars.back(), 1.0);
    }
    lp.add_constraint(std::move(terms), Sense::kEqual, 1.0);
  }
  for (std::size_t j = 0; j < servers; ++j) {
    lp.add_constraint(std::move(server_terms[j]), Sense::kLessEqual,
                      static_cast<double>(slots[j]));
  }
  const MilpSolution milp = solve_milp(lp, vars);
  ASSERT_EQ(milp.status, MilpStatus::kOptimal);
  EXPECT_NEAR(milp.objective, optimum.objective, tolerance) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomTransport, ::testing::Range(0, 40));

}  // namespace
}  // namespace carbonedge::solver
