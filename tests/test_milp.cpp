#include "solver/milp.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/random.hpp"

namespace carbonedge::solver {
namespace {

TEST(Milp, SolvesBinaryKnapsack) {
  // max 10a + 13b + 7c s.t. 3a + 4b + 2c <= 6  ->  {a, c} = 17.
  LinearProgram lp;
  const int a = lp.add_variable(-10.0, 0.0, 1.0);
  const int b = lp.add_variable(-13.0, 0.0, 1.0);
  const int c = lp.add_variable(-7.0, 0.0, 1.0);
  lp.add_constraint({{a, 3.0}, {b, 4.0}, {c, 2.0}}, Sense::kLessEqual, 6.0);
  const MilpSolution sol = solve_milp(lp, {a, b, c});
  ASSERT_EQ(sol.status, MilpStatus::kOptimal);
  EXPECT_NEAR(sol.objective, -20.0, 1e-6);  // {b, c}: 13 + 7
  EXPECT_NEAR(sol.values[b], 1.0, 1e-6);
  EXPECT_NEAR(sol.values[c], 1.0, 1e-6);
  EXPECT_NEAR(sol.values[a], 0.0, 1e-6);
}

TEST(Milp, IntegralRelaxationNeedsNoBranching) {
  LinearProgram lp;
  const int x = lp.add_variable(1.0, 0.0, 5.0);
  lp.add_constraint({{x, 1.0}}, Sense::kGreaterEqual, 3.0);
  const MilpSolution sol = solve_milp(lp, {x});
  ASSERT_EQ(sol.status, MilpStatus::kOptimal);
  EXPECT_NEAR(sol.values[x], 3.0, 1e-6);
  EXPECT_EQ(sol.nodes_explored, 1u);
}

TEST(Milp, GeneralIntegerBranching) {
  // min -x s.t. 2x <= 7, x integer -> x = 3 (LP gives 3.5).
  LinearProgram lp;
  const int x = lp.add_variable(-1.0, 0.0, kInfinity);
  lp.add_constraint({{x, 2.0}}, Sense::kLessEqual, 7.0);
  const MilpSolution sol = solve_milp(lp, {x});
  ASSERT_EQ(sol.status, MilpStatus::kOptimal);
  EXPECT_NEAR(sol.values[x], 3.0, 1e-6);
}

TEST(Milp, DetectsInfeasible) {
  // 0.4 <= x <= 0.6 with x binary has no integer point.
  LinearProgram lp;
  const int x = lp.add_variable(1.0, 0.0, 1.0);
  lp.add_constraint({{x, 1.0}}, Sense::kGreaterEqual, 0.4);
  lp.add_constraint({{x, 1.0}}, Sense::kLessEqual, 0.6);
  EXPECT_EQ(solve_milp(lp, {x}).status, MilpStatus::kInfeasible);
}

TEST(Milp, DetectsUnbounded) {
  LinearProgram lp;
  const int x = lp.add_variable(-1.0);
  EXPECT_EQ(solve_milp(lp, {x}).status, MilpStatus::kUnbounded);
}

TEST(Milp, WarmStartDoesNotChangeOptimum) {
  LinearProgram lp;
  const int a = lp.add_variable(-2.0, 0.0, 1.0);
  const int b = lp.add_variable(-3.0, 0.0, 1.0);
  lp.add_constraint({{a, 1.0}, {b, 1.0}}, Sense::kLessEqual, 1.0);
  const MilpSolution cold = solve_milp(lp, {a, b});
  const MilpSolution warm = solve_milp(lp, {a, b}, {}, std::vector<double>{1.0, 0.0});
  ASSERT_EQ(cold.status, MilpStatus::kOptimal);
  ASSERT_EQ(warm.status, MilpStatus::kOptimal);
  EXPECT_NEAR(cold.objective, warm.objective, 1e-9);
  EXPECT_NEAR(warm.objective, -3.0, 1e-6);
}

TEST(Milp, NodeLimitReturnsIncumbent) {
  // A problem with an obvious feasible warm start but tiny node budget.
  LinearProgram lp;
  std::vector<int> vars;
  for (int i = 0; i < 12; ++i) vars.push_back(lp.add_variable(-(1.0 + 0.1 * i), 0.0, 1.0));
  std::vector<std::pair<int, double>> terms;
  for (const int v : vars) terms.emplace_back(v, 1.0 + 0.01 * v);
  lp.add_constraint(std::move(terms), Sense::kLessEqual, 5.5);
  MilpOptions options;
  options.max_nodes = 1;
  const MilpSolution sol =
      solve_milp(lp, vars, options, std::vector<double>(vars.size(), 0.0));
  EXPECT_EQ(sol.status, MilpStatus::kFeasible);
}

TEST(Milp, IterationLimitedNodeIsNotProvenOptimal) {
  // SolvesBinaryKnapsack, but every LP stops at its first iteration: the root
  // is never solved, so the warm start may come back only as kFeasible.
  LinearProgram lp;
  const int a = lp.add_variable(-10.0, 0.0, 1.0);
  const int b = lp.add_variable(-13.0, 0.0, 1.0);
  const int c = lp.add_variable(-7.0, 0.0, 1.0);
  lp.add_constraint({{a, 3.0}, {b, 4.0}, {c, 2.0}}, Sense::kLessEqual, 6.0);
  MilpOptions options;
  options.lp.max_iterations = 1;
  const std::vector<double> warm{1.0, 0.0, 1.0};
  const MilpSolution sol = solve_milp(lp, {a, b, c}, options, warm);
  ASSERT_EQ(sol.status, MilpStatus::kFeasible);
  EXPECT_NEAR(sol.objective, -17.0, 1e-9);
  EXPECT_EQ(sol.values, warm);
}

TEST(Milp, MixedContinuousAndInteger) {
  // min x + y, x binary, y continuous, x + y >= 1.5 -> x=1, y=0.5.
  LinearProgram lp;
  const int x = lp.add_variable(1.0, 0.0, 1.0);
  const int y = lp.add_variable(1.0, 0.0, kInfinity);
  lp.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::kGreaterEqual, 1.5);
  const MilpSolution sol = solve_milp(lp, {x});
  ASSERT_EQ(sol.status, MilpStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 1.5, 1e-6);
  const double xv = sol.values[x];
  EXPECT_NEAR(xv, std::round(xv), 1e-6);
}

// Property suite: random binary MILPs (<= 10 vars) vs exhaustive search.
class RandomMilp : public ::testing::TestWithParam<int> {};

TEST_P(RandomMilp, MatchesExhaustiveEnumeration) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 6271 + 11);
  const std::size_t n = 4 + rng.uniform_index(6);
  LinearProgram lp;
  std::vector<int> vars;
  std::vector<double> costs(n);
  for (std::size_t i = 0; i < n; ++i) {
    costs[i] = rng.uniform(-4.0, 4.0);
    vars.push_back(lp.add_variable(costs[i], 0.0, 1.0));
  }
  struct Row {
    std::vector<double> coeffs;
    double rhs;
  };
  std::vector<Row> rows;
  const std::size_t num_rows = 1 + rng.uniform_index(3);
  for (std::size_t r = 0; r < num_rows; ++r) {
    Row row;
    row.coeffs.resize(n);
    std::vector<std::pair<int, double>> terms;
    for (std::size_t i = 0; i < n; ++i) {
      row.coeffs[i] = rng.uniform(-1.0, 2.0);
      terms.emplace_back(static_cast<int>(i), row.coeffs[i]);
    }
    row.rhs = rng.uniform(0.5, static_cast<double>(n));
    rows.push_back(row);
    lp.add_constraint(std::move(terms), Sense::kLessEqual, rows.back().rhs);
  }

  double best = kInfinity;
  for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
    bool ok = true;
    for (const Row& row : rows) {
      double lhs = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        if (mask & (1u << i)) lhs += row.coeffs[i];
      }
      if (lhs > row.rhs + 1e-9) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    double obj = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (mask & (1u << i)) obj += costs[i];
    }
    best = std::min(best, obj);
  }

  const MilpSolution sol = solve_milp(lp, vars);
  if (best == kInfinity) {
    EXPECT_EQ(sol.status, MilpStatus::kInfeasible);
  } else {
    ASSERT_EQ(sol.status, MilpStatus::kOptimal) << "seed " << GetParam();
    EXPECT_NEAR(sol.objective, best, 1e-5) << "seed " << GetParam();
    for (const int v : vars) {
      const double value = sol.values[static_cast<std::size_t>(v)];
      EXPECT_NEAR(value, std::round(value), 1e-6);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomMilp, ::testing::Range(0, 50));

}  // namespace
}  // namespace carbonedge::solver
