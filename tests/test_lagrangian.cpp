#include "solver/lagrangian.hpp"

#include <gtest/gtest.h>

#include "solver_test_util.hpp"
#include "util/random.hpp"

namespace carbonedge::solver {
namespace {

AssignmentProblem simple(std::size_t apps, std::size_t servers, double cap) {
  AssignmentProblem p(apps, servers, 1);
  for (std::size_t j = 0; j < servers; ++j) p.set_capacity(j, 0, cap);
  for (std::size_t i = 0; i < apps; ++i) {
    for (std::size_t j = 0; j < servers; ++j) {
      p.add_pair(i, j, static_cast<double>(i + 2 * j + 1), {1.0});
    }
  }
  return p;
}

TEST(Lagrangian, UncapacitatedBoundIsExact) {
  // Plenty of capacity: the relaxation at lambda=0 equals the optimum.
  const AssignmentProblem p = simple(3, 2, 10.0);
  const LagrangianResult lr = lagrangian_lower_bound(p);
  const AssignmentSolution exact = solve_exact(p);
  ASSERT_TRUE(exact.feasible);
  EXPECT_NEAR(lr.lower_bound, exact.total_cost, 1e-9);
}

TEST(Lagrangian, TightCapacityBoundImprovesOverRoot) {
  // Capacity 1 forces spreading: the capacity-ignoring root bound is loose;
  // subgradient ascent must close part of the gap.
  const AssignmentProblem p = simple(4, 4, 1.0);
  const LagrangianResult lr = lagrangian_lower_bound(p);
  EXPECT_GT(lr.lower_bound, lr.root_bound + 1e-9);
}

TEST(Lagrangian, BoundNeverExceedsOptimum) {
  util::Rng rng(99);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t apps = 2 + rng.uniform_index(5);
    const std::size_t servers = 2 + rng.uniform_index(3);
    AssignmentProblem p(apps, servers, 2);
    for (std::size_t j = 0; j < servers; ++j) {
      p.set_capacity(j, 0, rng.uniform(2.0, 6.0));
      p.set_capacity(j, 1, rng.uniform(2.0, 6.0));
    }
    for (std::size_t i = 0; i < apps; ++i) {
      for (std::size_t j = 0; j < servers; ++j) {
        if (rng.bernoulli(0.1)) continue;
        // Draw into locals: argument evaluation order is unspecified.
        const double cost = rng.uniform(0.5, 10.0);
        const double memory = rng.uniform(0.2, 1.2);
        const double compute = rng.uniform(0.2, 1.2);
        p.add_pair(i, j, cost, {memory, compute});
      }
    }
    const AssignmentSolution exact = solve_exact(p);
    const LagrangianResult lr = lagrangian_lower_bound(p);
    if (!lr.feasible_instance) continue;
    if (exact.feasible) {
      EXPECT_LE(lr.lower_bound, exact.total_cost + 1e-6) << "trial " << trial;
      EXPECT_LE(lr.root_bound, lr.lower_bound + 1e-9);
    }
  }
}

TEST(Lagrangian, CertifiesGreedyQualityAtScale) {
  // A CDN-sized instance the exact solver cannot touch: the dual bound must
  // bracket greedy+LS within a reasonable gap.
  util::Rng rng(7);
  const std::size_t apps = 80;
  const std::size_t servers = 40;
  AssignmentProblem p(apps, servers, 1);
  for (std::size_t j = 0; j < servers; ++j) p.set_capacity(j, 0, 4.0);
  for (std::size_t i = 0; i < apps; ++i) {
    for (std::size_t j = 0; j < servers; ++j) {
      p.add_pair(i, j, rng.uniform(1.0, 10.0), {1.0});
    }
  }
  AssignmentSolution heuristic = solve_greedy(p);
  improve_local_search(p, heuristic);
  ASSERT_TRUE(heuristic.feasible);
  LagrangianOptions options;
  options.upper_bound = heuristic.total_cost;
  const LagrangianResult lr = lagrangian_lower_bound(p, options);
  EXPECT_LE(lr.lower_bound, heuristic.total_cost + 1e-6);
  EXPECT_GT(lr.lower_bound, 0.0);
  // Unit-slot: the LP relaxation gives the true optimum to compare all three.
  const LpSolution optimal = testutil::unit_slot_lp(p);
  ASSERT_EQ(optimal.status, LpStatus::kOptimal);
  EXPECT_LE(optimal.objective, heuristic.total_cost + 1e-6);
  EXPECT_LE(lr.lower_bound, optimal.objective + 1e-6);
  EXPECT_GE(lr.lower_bound, optimal.objective * 0.9);  // within 10% of OPT
}

TEST(Lagrangian, InfeasibleInstanceFlagged) {
  AssignmentProblem p(2, 2, 1);  // no feasible pairs
  const LagrangianResult lr = lagrangian_lower_bound(p);
  EXPECT_FALSE(lr.feasible_instance);
  EXPECT_EQ(lr.lower_bound, -kInfinity);
}

TEST(Lagrangian, RespectsIterationBudget) {
  const AssignmentProblem p = simple(6, 3, 2.0);
  LagrangianOptions options;
  options.max_iterations = 3;
  const LagrangianResult lr = lagrangian_lower_bound(p, options);
  EXPECT_LE(lr.iterations, 3u);
}

}  // namespace
}  // namespace carbonedge::solver
