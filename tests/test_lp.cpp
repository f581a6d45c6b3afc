#include "solver/lp.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>

#include "solver/milp.hpp"
#include "util/hash.hpp"
#include "util/random.hpp"

namespace carbonedge::solver {
namespace {

TEST(LinearProgram, VariableAndConstraintBookkeeping) {
  LinearProgram lp;
  const int x = lp.add_variable(1.0, 0.0, 5.0);
  const int y = lp.add_variable(-2.0);
  lp.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::kLessEqual, 4.0);
  EXPECT_EQ(lp.num_variables(), 2u);
  EXPECT_EQ(lp.num_constraints(), 1u);
  EXPECT_DOUBLE_EQ(lp.objective_coeff(y), -2.0);
  EXPECT_DOUBLE_EQ(lp.upper_bound(x), 5.0);
}

TEST(LinearProgram, InvalidInputsThrow) {
  LinearProgram lp;
  EXPECT_THROW(lp.add_variable(0.0, 2.0, 1.0), std::invalid_argument);
  const int x = lp.add_variable(0.0);
  EXPECT_THROW(lp.add_constraint({{x + 5, 1.0}}, Sense::kEqual, 0.0), std::out_of_range);
}

TEST(LinearProgram, EvaluateAndFeasibility) {
  LinearProgram lp;
  const int x = lp.add_variable(3.0, 0.0, 10.0);
  lp.add_constraint({{x, 1.0}}, Sense::kGreaterEqual, 2.0);
  EXPECT_DOUBLE_EQ(lp.evaluate({4.0}), 12.0);
  EXPECT_TRUE(lp.is_feasible({4.0}));
  EXPECT_FALSE(lp.is_feasible({1.0}));   // violates >= 2
  EXPECT_FALSE(lp.is_feasible({11.0}));  // violates upper bound
}

TEST(Simplex, SolvesTextbookMaximization) {
  // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  (min of negative).
  LinearProgram lp;
  const int x = lp.add_variable(-3.0);
  const int y = lp.add_variable(-5.0);
  lp.add_constraint({{x, 1.0}}, Sense::kLessEqual, 4.0);
  lp.add_constraint({{y, 2.0}}, Sense::kLessEqual, 12.0);
  lp.add_constraint({{x, 3.0}, {y, 2.0}}, Sense::kLessEqual, 18.0);
  const LpSolution sol = solve_lp(lp);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_NEAR(sol.objective, -36.0, 1e-7);
  EXPECT_NEAR(sol.values[x], 2.0, 1e-7);
  EXPECT_NEAR(sol.values[y], 6.0, 1e-7);
}

TEST(Simplex, HandlesEqualityAndGeConstraints) {
  // min x + 2y s.t. x + y = 3, x >= 1.
  LinearProgram lp;
  const int x = lp.add_variable(1.0);
  const int y = lp.add_variable(2.0);
  lp.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::kEqual, 3.0);
  lp.add_constraint({{x, 1.0}}, Sense::kGreaterEqual, 1.0);
  const LpSolution sol = solve_lp(lp);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_NEAR(sol.values[x], 3.0, 1e-7);
  EXPECT_NEAR(sol.values[y], 0.0, 1e-7);
  EXPECT_NEAR(sol.objective, 3.0, 1e-7);
}

TEST(Simplex, RespectsVariableBounds) {
  // min -x with x in [1, 2.5]: optimum at the upper bound.
  LinearProgram lp;
  const int x = lp.add_variable(-1.0, 1.0, 2.5);
  const LpSolution sol = solve_lp(lp);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_NEAR(sol.values[x], 2.5, 1e-7);
}

TEST(Simplex, NonzeroLowerBoundsShiftCorrectly) {
  // min x + y with x >= 2, y >= 3, x + y >= 7.
  LinearProgram lp;
  const int x = lp.add_variable(1.0, 2.0, kInfinity);
  const int y = lp.add_variable(1.0, 3.0, kInfinity);
  lp.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::kGreaterEqual, 7.0);
  const LpSolution sol = solve_lp(lp);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 7.0, 1e-7);
}

TEST(Simplex, DetectsInfeasible) {
  LinearProgram lp;
  const int x = lp.add_variable(1.0, 0.0, 1.0);
  lp.add_constraint({{x, 1.0}}, Sense::kGreaterEqual, 2.0);
  EXPECT_EQ(solve_lp(lp).status, LpStatus::kInfeasible);
}

TEST(Simplex, DetectsUnbounded) {
  LinearProgram lp;
  const int x = lp.add_variable(-1.0);  // min -x, x unbounded above
  (void)x;
  EXPECT_EQ(solve_lp(lp).status, LpStatus::kUnbounded);
}

TEST(Simplex, EmptyProgramIsTriviallyOptimal) {
  const LinearProgram lp;
  const LpSolution sol = solve_lp(lp);
  EXPECT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_DOUBLE_EQ(sol.objective, 0.0);
}

TEST(Simplex, DegenerateProblemTerminates) {
  // Classic degeneracy: multiple identical constraints.
  LinearProgram lp;
  const int x = lp.add_variable(-1.0);
  for (int i = 0; i < 5; ++i) lp.add_constraint({{x, 1.0}}, Sense::kLessEqual, 1.0);
  const LpSolution sol = solve_lp(lp);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_NEAR(sol.values[x], 1.0, 1e-7);
}

TEST(Simplex, NegativeRhsRowsNormalize) {
  // -x <= -2  ==  x >= 2.
  LinearProgram lp;
  const int x = lp.add_variable(1.0);
  lp.add_constraint({{x, -1.0}}, Sense::kLessEqual, -2.0);
  const LpSolution sol = solve_lp(lp);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_NEAR(sol.values[x], 2.0, 1e-7);
}

// Property suite: random 2-variable LPs checked against exhaustive vertex
// enumeration (intersections of all constraint/bound pairs).
class RandomLp2D : public ::testing::TestWithParam<int> {};

TEST_P(RandomLp2D, SimplexMatchesVertexEnumeration) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 1);
  LinearProgram lp;
  const double c0 = rng.uniform(-5.0, 5.0);
  const double c1 = rng.uniform(-5.0, 5.0);
  const double ub0 = rng.uniform(1.0, 10.0);
  const double ub1 = rng.uniform(1.0, 10.0);
  const int x0 = lp.add_variable(c0, 0.0, ub0);
  const int x1 = lp.add_variable(c1, 0.0, ub1);

  struct Line {
    double a0, a1, b;  // a0 x0 + a1 x1 <= b
  };
  std::vector<Line> lines;
  const int num_rows = 2 + static_cast<int>(rng.uniform_index(4));
  for (int r = 0; r < num_rows; ++r) {
    Line line{rng.uniform(-2.0, 3.0), rng.uniform(-2.0, 3.0), rng.uniform(1.0, 12.0)};
    lines.push_back(line);
    lp.add_constraint({{x0, line.a0}, {x1, line.a1}}, Sense::kLessEqual, line.b);
  }
  // Bounds as lines for vertex enumeration.
  lines.push_back({1.0, 0.0, ub0});
  lines.push_back({0.0, 1.0, ub1});
  lines.push_back({-1.0, 0.0, 0.0});
  lines.push_back({0.0, -1.0, 0.0});

  const auto feasible = [&](double v0, double v1) {
    for (const Line& l : lines) {
      if (l.a0 * v0 + l.a1 * v1 > l.b + 1e-7) return false;
    }
    return true;
  };
  double best = kInfinity;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    for (std::size_t j = i + 1; j < lines.size(); ++j) {
      const double det = lines[i].a0 * lines[j].a1 - lines[j].a0 * lines[i].a1;
      if (std::abs(det) < 1e-9) continue;
      const double v0 = (lines[i].b * lines[j].a1 - lines[j].b * lines[i].a1) / det;
      const double v1 = (lines[i].a0 * lines[j].b - lines[j].a0 * lines[i].b) / det;
      if (feasible(v0, v1)) best = std::min(best, c0 * v0 + c1 * v1);
    }
  }

  const LpSolution sol = solve_lp(lp);
  if (best == kInfinity) {
    EXPECT_EQ(sol.status, LpStatus::kInfeasible);
  } else {
    ASSERT_EQ(sol.status, LpStatus::kOptimal) << "seed " << GetParam();
    EXPECT_NEAR(sol.objective, best, 1e-5) << "seed " << GetParam();
    EXPECT_TRUE(lp.is_feasible(sol.values, 1e-5));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomLp2D, ::testing::Range(0, 60));

// Property suite: on larger random feasible LPs the simplex answer must be
// feasible and no worse than any sampled feasible point.
class RandomLpNd : public ::testing::TestWithParam<int> {};

TEST_P(RandomLpNd, OptimumDominatesSampledFeasiblePoints) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 3);
  const std::size_t n = 3 + rng.uniform_index(5);
  LinearProgram lp;
  std::vector<double> ub(n);
  for (std::size_t i = 0; i < n; ++i) {
    ub[i] = rng.uniform(0.5, 4.0);
    lp.add_variable(rng.uniform(-3.0, 3.0), 0.0, ub[i]);
  }
  const std::size_t rows = 2 + rng.uniform_index(4);
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<std::pair<int, double>> terms;
    for (std::size_t i = 0; i < n; ++i) {
      terms.emplace_back(static_cast<int>(i), rng.uniform(0.0, 2.0));
    }
    lp.add_constraint(std::move(terms), Sense::kLessEqual, rng.uniform(2.0, 10.0));
  }
  const LpSolution sol = solve_lp(lp);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);  // origin is always feasible here
  ASSERT_TRUE(lp.is_feasible(sol.values, 1e-5));
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<double> candidate(n);
    for (std::size_t i = 0; i < n; ++i) candidate[i] = rng.uniform(0.0, ub[i]);
    if (lp.is_feasible(candidate)) {
      EXPECT_LE(sol.objective, lp.evaluate(candidate) + 1e-6);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomLpNd, ::testing::Range(0, 40));

// ---------------------------------------------------------------------------
// Reference kernel: the dense two-phase simplex over vector<vector<double>>
// that the flat tableau in src/solver/lp.cpp replaced, kept here unchanged
// (dead objective-shift bookkeeping aside) as the oracle. The flat kernel
// must follow the same pivot path, so every result matches it bit for bit.
// `bland_pivots`, when given, counts the pivots chosen in Bland mode.

class ReferenceTableau {
 public:
  ReferenceTableau(const LinearProgram& lp, const LpOptions& options, std::size_t* bland_pivots)
      : lp_(lp), options_(options), bland_pivots_(bland_pivots) {}

  LpSolution solve();

 private:
  void standardize();
  bool phase(bool phase_one);
  void pivot(std::size_t row, std::size_t col);
  void price_out_objective(const std::vector<double>& cost);
  [[nodiscard]] std::size_t choose_entering(bool bland) const;
  [[nodiscard]] std::size_t choose_leaving(std::size_t col) const;

  const LinearProgram& lp_;
  LpOptions options_;
  std::size_t* bland_pivots_;

  std::size_t num_struct_ = 0;
  std::size_t num_total_ = 0;
  std::size_t first_artificial_ = 0;
  std::size_t rows_ = 0;
  std::vector<std::vector<double>> tableau_;
  std::vector<double> obj_;
  double obj_rhs_ = 0.0;
  std::vector<std::size_t> basis_;
  std::vector<double> struct_cost_;
  std::size_t entering_limit_ = 0;
  std::size_t iterations_ = 0;
  static constexpr std::size_t kNoCol = static_cast<std::size_t>(-1);
};

void ReferenceTableau::standardize() {
  const std::size_t n = lp_.num_variables();
  num_struct_ = n;

  struct Stdrow {
    std::vector<double> coeffs;
    Sense sense;
    double rhs;
  };
  std::vector<Stdrow> stdrows;
  stdrows.reserve(lp_.num_constraints() + n);

  for (const LinearProgram::Row& row : lp_.rows()) {
    Stdrow sr{std::vector<double>(n, 0.0), row.sense, row.rhs};
    for (const auto& [var, coeff] : row.terms) {
      sr.coeffs[static_cast<std::size_t>(var)] += coeff;
      sr.rhs -= coeff * lp_.lower_bound(var);
    }
    stdrows.push_back(std::move(sr));
  }
  for (std::size_t i = 0; i < n; ++i) {
    const double ub = lp_.upper_bound(static_cast<int>(i));
    if (std::isfinite(ub)) {
      Stdrow sr{std::vector<double>(n, 0.0), Sense::kLessEqual,
                ub - lp_.lower_bound(static_cast<int>(i))};
      sr.coeffs[i] = 1.0;
      stdrows.push_back(std::move(sr));
    }
  }

  for (Stdrow& sr : stdrows) {
    if (sr.rhs < 0.0) {
      for (double& c : sr.coeffs) c = -c;
      sr.rhs = -sr.rhs;
      if (sr.sense == Sense::kLessEqual) {
        sr.sense = Sense::kGreaterEqual;
      } else if (sr.sense == Sense::kGreaterEqual) {
        sr.sense = Sense::kLessEqual;
      }
    }
  }

  rows_ = stdrows.size();
  std::size_t num_slack = 0;
  std::size_t num_artificial = 0;
  for (const Stdrow& sr : stdrows) {
    if (sr.sense != Sense::kEqual) ++num_slack;
    if (sr.sense != Sense::kLessEqual) ++num_artificial;
  }
  first_artificial_ = num_struct_ + num_slack;
  num_total_ = first_artificial_ + num_artificial;

  tableau_.assign(rows_, std::vector<double>(num_total_ + 1, 0.0));
  basis_.assign(rows_, kNoCol);

  std::size_t slack_col = num_struct_;
  std::size_t art_col = first_artificial_;
  for (std::size_t r = 0; r < rows_; ++r) {
    const Stdrow& sr = stdrows[r];
    for (std::size_t i = 0; i < n; ++i) tableau_[r][i] = sr.coeffs[i];
    tableau_[r][num_total_] = sr.rhs;
    switch (sr.sense) {
      case Sense::kLessEqual:
        tableau_[r][slack_col] = 1.0;
        basis_[r] = slack_col++;
        break;
      case Sense::kGreaterEqual:
        tableau_[r][slack_col] = -1.0;
        ++slack_col;
        tableau_[r][art_col] = 1.0;
        basis_[r] = art_col++;
        break;
      case Sense::kEqual:
        tableau_[r][art_col] = 1.0;
        basis_[r] = art_col++;
        break;
    }
  }

  struct_cost_.assign(num_total_, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    struct_cost_[i] = lp_.objective_coeff(static_cast<int>(i));
  }
}

void ReferenceTableau::price_out_objective(const std::vector<double>& cost) {
  obj_.assign(num_total_, 0.0);
  obj_rhs_ = 0.0;
  for (std::size_t j = 0; j < num_total_; ++j) obj_[j] = cost[j];
  for (std::size_t r = 0; r < rows_; ++r) {
    const double cb = cost[basis_[r]];
    if (cb == 0.0) continue;
    for (std::size_t j = 0; j < num_total_; ++j) obj_[j] -= cb * tableau_[r][j];
    obj_rhs_ -= cb * tableau_[r][num_total_];
  }
}

std::size_t ReferenceTableau::choose_entering(bool bland) const {
  const double tol = options_.pivot_tolerance;
  if (bland) {
    for (std::size_t j = 0; j < entering_limit_; ++j) {
      if (obj_[j] < -tol) return j;
    }
    return kNoCol;
  }
  std::size_t best = kNoCol;
  double best_value = -tol;
  for (std::size_t j = 0; j < entering_limit_; ++j) {
    if (obj_[j] < best_value) {
      best_value = obj_[j];
      best = j;
    }
  }
  return best;
}

std::size_t ReferenceTableau::choose_leaving(std::size_t col) const {
  const double tol = options_.pivot_tolerance;
  std::size_t best_row = kNoCol;
  double best_ratio = kInfinity;
  for (std::size_t r = 0; r < rows_; ++r) {
    const double a = tableau_[r][col];
    if (a <= tol) continue;
    const double ratio = tableau_[r][num_total_] / a;
    if (ratio < best_ratio - 1e-12 ||
        (ratio < best_ratio + 1e-12 && best_row != kNoCol && basis_[r] < basis_[best_row])) {
      best_ratio = ratio;
      best_row = r;
    }
  }
  return best_row;
}

void ReferenceTableau::pivot(std::size_t row, std::size_t col) {
  std::vector<double>& prow = tableau_[row];
  const double inv = 1.0 / prow[col];
  for (double& v : prow) v *= inv;
  prow[col] = 1.0;

  for (std::size_t r = 0; r < rows_; ++r) {
    if (r == row) continue;
    const double factor = tableau_[r][col];
    if (factor == 0.0) continue;
    std::vector<double>& target = tableau_[r];
    for (std::size_t j = 0; j <= num_total_; ++j) target[j] -= factor * prow[j];
    target[col] = 0.0;
  }
  const double ofactor = obj_[col];
  if (ofactor != 0.0) {
    for (std::size_t j = 0; j < num_total_; ++j) obj_[j] -= ofactor * prow[j];
    obj_rhs_ -= ofactor * prow[num_total_];
    obj_[col] = 0.0;
  }
  basis_[row] = col;
}

bool ReferenceTableau::phase(bool phase_one) {
  std::size_t stall = 0;
  for (;;) {
    if (++iterations_ > options_.max_iterations) return false;
    const bool bland = stall > rows_ + num_total_;
    const std::size_t col = choose_entering(bland);
    if (col == kNoCol) return true;
    const std::size_t row = choose_leaving(col);
    if (row == kNoCol) {
      if (phase_one) return true;
      return false;
    }
    const double before = obj_rhs_;
    if (bland && bland_pivots_ != nullptr) ++*bland_pivots_;
    pivot(row, col);
    stall = std::abs(obj_rhs_ - before) < 1e-12 ? stall + 1 : 0;
  }
}

LpSolution ReferenceTableau::solve() {
  standardize();
  LpSolution solution;

  if (rows_ == 0) {
    for (std::size_t i = 0; i < num_struct_; ++i) {
      if (lp_.objective_coeff(static_cast<int>(i)) < 0.0) {
        solution.status = LpStatus::kUnbounded;
        return solution;
      }
    }
  }

  if (rows_ > 0) {
    entering_limit_ = num_total_;
    std::vector<double> phase1_cost(num_total_, 0.0);
    for (std::size_t j = first_artificial_; j < num_total_; ++j) phase1_cost[j] = 1.0;
    price_out_objective(phase1_cost);
    if (!phase(/*phase_one=*/true)) {
      solution.status = LpStatus::kIterationLimit;
      return solution;
    }
    if (-obj_rhs_ > options_.feasibility_tolerance) {
      solution.status = LpStatus::kInfeasible;
      return solution;
    }
    for (std::size_t r = 0; r < rows_; ++r) {
      if (basis_[r] < first_artificial_) continue;
      std::size_t col = kNoCol;
      for (std::size_t j = 0; j < first_artificial_; ++j) {
        if (std::abs(tableau_[r][j]) > options_.pivot_tolerance) {
          col = j;
          break;
        }
      }
      if (col != kNoCol) pivot(r, col);
    }
    entering_limit_ = first_artificial_;
    price_out_objective(struct_cost_);
    if (!phase(/*phase_one=*/false)) {
      solution.status =
          iterations_ > options_.max_iterations ? LpStatus::kIterationLimit : LpStatus::kUnbounded;
      return solution;
    }
  }

  solution.status = LpStatus::kOptimal;
  solution.values.assign(lp_.num_variables(), 0.0);
  std::vector<double> z(num_total_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) z[basis_[r]] = tableau_[r][num_total_];
  for (std::size_t i = 0; i < num_struct_; ++i) {
    solution.values[i] = z[i] + lp_.lower_bound(static_cast<int>(i));
  }
  solution.objective = lp_.evaluate(solution.values);
  return solution;
}

LpSolution reference_solve_lp(const LinearProgram& lp, const LpOptions& options = {},
                              std::size_t* bland_pivots = nullptr) {
  if (lp.num_variables() == 0) {
    LpSolution trivial;
    trivial.status = LpStatus::kOptimal;
    trivial.objective = 0.0;
    return trivial;
  }
  ReferenceTableau tableau(lp, options, bland_pivots);
  return tableau.solve();
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// Status, objective and every value, bit for bit.
void expect_same_solution(const LpSolution& actual, const LpSolution& expected,
                          const std::string& where) {
  ASSERT_EQ(actual.status, expected.status) << where;
  ASSERT_EQ(bits(actual.objective), bits(expected.objective)) << where;
  ASSERT_EQ(actual.values.size(), expected.values.size()) << where;
  for (std::size_t i = 0; i < actual.values.size(); ++i) {
    ASSERT_EQ(bits(actual.values[i]), bits(expected.values[i])) << where << " value " << i;
  }
}

// A placement LP in the shape solve_exact builds (src/solver/assignment.cpp):
// x_p in [0, 1] per feasible (app, server) pair, y_j in [0, 1] per
// initially-off server, one Eq. 3 equality row per app, capacity rows with
// -cap * y_j on off servers, and per-pair x_p <= y_j links. Seeds mix in:
//   - tie-heavy instances: identical servers, integer costs and demands;
//   - B&B-style bound overrides (lb = 1 or ub = 0) on random variables;
//   - the same rows written as >= rows and with negative right-hand sides,
//     plus a minimum-load >= row;
//   - infeasible instances (an app with no pair, or capacity far below
//     demand) and unbounded ones (a free surplus variable with negative
//     cost).
struct PlacementLp {
  LinearProgram lp;
  std::vector<int> integer_vars;
};

PlacementLp placement_lp(std::uint64_t seed) {
  util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 17);
  const bool ties = seed % 4 == 0;
  const bool overrides = seed % 3 == 1;
  const bool flipped = seed % 5 == 2;
  const bool infeasible = seed % 11 == 3;
  const bool unbounded = seed % 13 == 5;
  const std::size_t apps = 3 + rng.uniform_index(10);
  const std::size_t servers = 2 + rng.uniform_index(6);
  const std::size_t resources = 1 + rng.uniform_index(2);

  std::vector<double> capacity(servers * resources);
  std::vector<double> activation(servers, 0.0);
  std::vector<bool> on(servers);
  const double per_server = static_cast<double>(apps) / static_cast<double>(servers);
  const double tie_capacity = std::ceil(per_server) * static_cast<double>(2 + rng.uniform_index(2));
  const double tie_activation = static_cast<double>(rng.uniform_index(4));
  for (std::size_t j = 0; j < servers; ++j) {
    on[j] = rng.bernoulli(0.5);
    activation[j] = ties ? tie_activation : rng.uniform(0.0, 6.0);
    for (std::size_t k = 0; k < resources; ++k) {
      double cap = ties ? tie_capacity : rng.uniform(0.9, 2.5) * per_server;
      if (infeasible && seed % 2 == 0) cap *= 0.05;
      capacity[j * resources + k] = cap;
    }
  }

  struct Pair {
    std::size_t server;
    std::vector<double> demand;
  };
  PlacementLp out;
  LinearProgram& lp = out.lp;
  std::vector<Pair> pairs;
  std::vector<std::vector<int>> app_vars(apps);
  for (std::size_t i = 0; i < apps; ++i) {
    const double tie_cost = static_cast<double>(rng.uniform_index(5));
    std::vector<double> demand(resources);
    for (double& d : demand) {
      d = ties ? static_cast<double>(1 + rng.uniform_index(2)) : rng.uniform(0.2, 1.5);
    }
    const bool stranded = infeasible && seed % 2 == 1 && i == 0;
    for (std::size_t j = 0; j < servers; ++j) {
      if (stranded || (j > 0 && rng.bernoulli(0.3))) continue;
      const double cost = ties ? tie_cost : rng.uniform(0.0, 10.0);
      const int var = lp.add_variable(cost, 0.0, 1.0);
      out.integer_vars.push_back(var);
      app_vars[i].push_back(var);
      pairs.push_back(Pair{j, demand});
    }
  }
  std::vector<int> y_var(servers, -1);
  for (std::size_t j = 0; j < servers; ++j) {
    if (on[j]) continue;
    y_var[j] = lp.add_variable(activation[j], 0.0, 1.0);
    out.integer_vars.push_back(y_var[j]);
  }

  // Eq. 3, written as one equality, as -sum = -1, or as a >= pair.
  for (std::size_t i = 0; i < apps; ++i) {
    std::vector<std::pair<int, double>> terms;
    std::vector<std::pair<int, double>> negated;
    for (const int var : app_vars[i]) {
      terms.emplace_back(var, 1.0);
      negated.emplace_back(var, -1.0);
    }
    const std::uint64_t form = flipped ? rng.uniform_index(3) : 0;
    if (form == 0) {
      lp.add_constraint(std::move(terms), Sense::kEqual, 1.0);
    } else if (form == 1) {
      lp.add_constraint(std::move(negated), Sense::kEqual, -1.0);
    } else {
      lp.add_constraint(std::move(terms), Sense::kGreaterEqual, 1.0);
      lp.add_constraint(std::move(negated), Sense::kGreaterEqual, -1.0);
    }
  }
  // Eq. 1 capacity and Eq. 5 per-pair links.
  for (std::size_t j = 0; j < servers; ++j) {
    for (std::size_t k = 0; k < resources; ++k) {
      std::vector<std::pair<int, double>> terms;
      for (std::size_t p = 0; p < pairs.size(); ++p) {
        if (pairs[p].server == j) terms.emplace_back(static_cast<int>(p), pairs[p].demand[k]);
      }
      const double cap = capacity[j * resources + k];
      const bool as_ge = flipped && rng.bernoulli(0.5);
      if (as_ge) {
        for (auto& term : terms) term.second = -term.second;
      }
      if (y_var[j] >= 0) {
        terms.emplace_back(y_var[j], as_ge ? cap : -cap);
        lp.add_constraint(std::move(terms), as_ge ? Sense::kGreaterEqual : Sense::kLessEqual, 0.0);
      } else {
        lp.add_constraint(std::move(terms), as_ge ? Sense::kGreaterEqual : Sense::kLessEqual,
                          as_ge ? -cap : cap);
      }
    }
    if (y_var[j] >= 0) {
      for (std::size_t p = 0; p < pairs.size(); ++p) {
        if (pairs[p].server != j) continue;
        lp.add_constraint({{static_cast<int>(p), 1.0}, {y_var[j], -1.0}}, Sense::kLessEqual, 0.0);
      }
    }
  }
  if (flipped) {
    // Minimum load on one server: at least one app lands there.
    const std::size_t j = rng.uniform_index(servers);
    std::vector<std::pair<int, double>> terms;
    for (std::size_t p = 0; p < pairs.size(); ++p) {
      if (pairs[p].server == j) terms.emplace_back(static_cast<int>(p), 1.0);
    }
    if (!terms.empty()) lp.add_constraint(std::move(terms), Sense::kGreaterEqual, 1.0);
  }
  if (overrides) {
    for (const int var : out.integer_vars) {
      if (!rng.bernoulli(0.12)) continue;
      if (rng.bernoulli(0.3)) {
        lp.set_bounds(var, 1.0, 1.0);
      } else {
        lp.set_bounds(var, 0.0, 0.0);
      }
    }
  }
  if (unbounded && !pairs.empty()) {
    // s >= x_0 - 0.5 with cost -1: s grows without bound.
    const int s = lp.add_variable(-1.0);
    lp.add_constraint({{0, 1.0}, {s, -1.0}}, Sense::kLessEqual, 0.5);
  }
  return out;
}

constexpr std::uint64_t kCorpusSize = 360;

TEST(SimplexOracle, MatchesReferenceKernelBitForBit) {
  std::size_t optimal = 0;
  std::size_t infeasible = 0;
  std::size_t unbounded = 0;
  std::size_t ge_rows = 0;
  for (std::uint64_t seed = 0; seed < kCorpusSize; ++seed) {
    const PlacementLp instance = placement_lp(seed);
    const LpSolution expected = reference_solve_lp(instance.lp);
    expect_same_solution(solve_lp(instance.lp), expected, "seed " + std::to_string(seed));
    if (HasFatalFailure()) return;
    optimal += expected.status == LpStatus::kOptimal;
    infeasible += expected.status == LpStatus::kInfeasible;
    unbounded += expected.status == LpStatus::kUnbounded;
    for (const LinearProgram::Row& row : instance.lp.rows()) {
      if (row.sense == Sense::kGreaterEqual) {
        ++ge_rows;
        break;
      }
    }
  }
  // Every branch of the kernel's outcome must be exercised.
  EXPECT_GE(optimal, 240u);
  EXPECT_GE(infeasible, 50u);
  EXPECT_GE(unbounded, 20u);
  EXPECT_GE(ge_rows, 50u);
}

// Digest over solve_milp on the same corpus: status, nodes explored, and
// the bits of the objective and every value. Recorded on the dense kernel
// before the flat tableau replaced it; any change to a pivot path anywhere
// in branch and bound moves it.
TEST(SimplexOracle, MilpCorpusMatchesRecordedDigest) {
  MilpOptions options;
  options.max_nodes = 200;
  util::Fingerprint fp;
  for (std::uint64_t seed = 0; seed < kCorpusSize; ++seed) {
    const PlacementLp instance = placement_lp(seed);
    const MilpSolution sol = solve_milp(instance.lp, instance.integer_vars, options);
    fp.mix(static_cast<std::uint64_t>(sol.status));
    fp.mix(static_cast<std::uint64_t>(sol.nodes_explored));
    fp.mix(bits(sol.objective));
    fp.mix(static_cast<std::uint64_t>(sol.values.size()));
    for (const double v : sol.values) fp.mix(bits(v));
  }
  EXPECT_EQ(fp.digest().hex(), "8ec39db0183bde07d9c484341d3d0da8");
}

// Dantzig pricing keeps the first column among equal most-negative reduced
// costs. Here the minimum -3 repeats at columns 2, 5, 6 and 8, which fall in
// different lanes of a four-wide scan; first-index ties fill x2, then x5,
// then half of x6, and leave x8 at 0.
TEST(SimplexOracle, PricingTiesTakeTheFirstColumn) {
  LinearProgram lp;
  for (const double cost : {-1.0, 0.5, -3.0, -2.0, 0.0, -3.0, -3.0, 1.0, -3.0}) {
    lp.add_variable(cost, 0.0, 1.0);
  }
  std::vector<std::pair<int, double>> terms;
  for (int v = 0; v < 9; ++v) terms.emplace_back(v, 1.0);
  lp.add_constraint(std::move(terms), Sense::kLessEqual, 2.5);
  const LpSolution sol = solve_lp(lp);
  expect_same_solution(sol, reference_solve_lp(lp), "repeated minimum");
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_EQ(sol.values[2], 1.0);
  EXPECT_EQ(sol.values[5], 1.0);
  EXPECT_EQ(sol.values[6], 0.5);
  EXPECT_EQ(sol.values[8], 0.0);
}

// A reduced cost of exactly -pivot_tolerance does not enter the basis; one a
// bit below it does.
TEST(SimplexOracle, ReducedCostAtMinusPivotToleranceDoesNotEnter) {
  const double tol = LpOptions{}.pivot_tolerance;
  LinearProgram at;
  at.add_variable(-tol, 0.0, 1.0);
  at.add_variable(-tol, 0.0, 1.0);
  at.add_constraint({{0, 1.0}, {1, 1.0}}, Sense::kLessEqual, 1.0);
  const LpSolution none = solve_lp(at);
  expect_same_solution(none, reference_solve_lp(at), "minimum at -tol");
  EXPECT_EQ(none.values, (std::vector<double>{0.0, 0.0}));

  LinearProgram below;
  below.add_variable(-tol, 0.0, 1.0);
  below.add_variable(std::nextafter(-tol, -1.0), 0.0, 1.0);
  below.add_variable(-tol, 0.0, 1.0);
  below.add_constraint({{0, 1.0}, {1, 1.0}, {2, 1.0}}, Sense::kLessEqual, 1.0);
  const LpSolution one = solve_lp(below);
  expect_same_solution(one, reference_solve_lp(below), "minimum just below -tol");
  EXPECT_EQ(one.values, (std::vector<double>{0.0, 1.0, 0.0}));
}

// Random B&B-style fixings on top of a corpus instance: each integer
// variable is branched up (lb 1) or down (ub 0) with the given odds, as
// solve_milp intersects a branch's bounds with the node's.
LinearProgram fixed_node(const PlacementLp& instance, util::Rng& rng, double branch,
                         double up) {
  LinearProgram node = instance.lp;
  for (const int var : instance.integer_vars) {
    if (!rng.bernoulli(branch)) continue;
    const double lo = node.lower_bound(var);
    const double hi = node.upper_bound(var);
    if (rng.bernoulli(up)) {
      if (hi >= 1.0) node.set_bounds(var, std::max(lo, 1.0), hi);
    } else if (lo <= 0.0) {
      node.set_bounds(var, lo, std::min(hi, 0.0));
    }
  }
  return node;
}

// Every node the certificates settle is one the LP would prune: kInfeasible
// only where the reference kernel reports infeasible, and kBounded only
// where it reports infeasible or an objective at or above the cutoff. The
// incumbents straddle each node's LP optimum, so a bound that overshoots
// the optimum by more than the gap fails here.
TEST(SimplexOracle, NodeCertificatesSettleOnlyPrunedNodes) {
  struct Mode {
    double branch;
    double up;
  };
  // Sparse mixed fixings; up-heavy ones that overload capacity and hold two
  // variables of one row; down-heavy ones that close servers and rows.
  constexpr Mode kModes[] = {{0.12, 0.3}, {0.3, 0.7}, {0.35, 0.1}};
  std::size_t infeasible = 0;
  std::size_t bounded = 0;
  std::size_t open_optimal = 0;
  for (std::uint64_t seed = 0; seed < kCorpusSize; ++seed) {
    const PlacementLp instance = placement_lp(seed);
    NodeCertifier certifier(instance.lp);
    util::Rng rng(seed + 101);
    for (const Mode mode : kModes) {
      for (int draw = 0; draw < 3; ++draw) {
        const LinearProgram node = fixed_node(instance, rng, mode.branch, mode.up);
        const LpSolution ref = reference_solve_lp(node);
        const std::string where = "seed " + std::to_string(seed) + " draw " + std::to_string(draw);
        ASSERT_NE(ref.status, LpStatus::kIterationLimit) << where;
        // With no incumbent only the infeasibility certificate may fire.
        const NodeCertifier::Verdict plain = certifier.settle(node, kInfinity);
        ASSERT_NE(plain, NodeCertifier::Verdict::kBounded) << where;
        if (plain == NodeCertifier::Verdict::kInfeasible) {
          ASSERT_EQ(ref.status, LpStatus::kInfeasible) << where;
          ++infeasible;
          continue;
        }
        if (ref.status == LpStatus::kUnbounded) {
          for (const double incumbent : {-1e6, 0.0, 1e6}) {
            ASSERT_NE(certifier.settle(node, incumbent), NodeCertifier::Verdict::kBounded)
                << where << " incumbent " << incumbent;
          }
          continue;
        }
        if (ref.status == LpStatus::kInfeasible) continue;  // any verdict prunes it
        ++open_optimal;
        for (const double offset : {-1.0, -1e-3, -1e-9, 0.0, 1e-9, 1e-7, 1e-3, 1.0}) {
          const double incumbent = ref.objective + offset;
          const NodeCertifier::Verdict verdict = certifier.settle(node, incumbent);
          ASSERT_NE(verdict, NodeCertifier::Verdict::kInfeasible) << where;
          if (verdict != NodeCertifier::Verdict::kBounded) continue;
          const double cutoff = incumbent - kGapTolerance * (1.0 + std::abs(incumbent));
          ASSERT_GE(ref.objective, cutoff) << where << " offset " << offset;
          ++bounded;
        }
      }
    }
  }
  EXPECT_GE(infeasible, 300u);
  EXPECT_GE(bounded, 300u);
  EXPECT_GE(open_optimal, 500u);
}

// ---------------------------------------------------------------------------
// Reference branch and bound: solve_milp as it was before nodes could be
// settled without an LP, kept here as the oracle. Certificates only skip
// LPs that would have pruned their node, so every answer must match it bit
// for bit, node counts included.

MilpSolution reference_solve_milp(const LinearProgram& lp, const std::vector<int>& integer_vars,
                                  const MilpOptions& options,
                                  const std::optional<std::vector<double>>& warm_start) {
  struct Node {
    std::vector<std::pair<int, std::pair<double, double>>> bounds;
  };
  const auto is_integral = [](double v) {
    return std::abs(v - std::round(v)) <= kIntegralityTolerance;
  };
  MilpSolution result;

  double incumbent = kInfinity;
  std::vector<double> incumbent_values;
  if (warm_start && lp.is_feasible(*warm_start)) {
    bool integral = true;
    for (const int var : integer_vars) {
      if (!is_integral((*warm_start)[static_cast<std::size_t>(var)])) {
        integral = false;
        break;
      }
    }
    if (integral) {
      incumbent = lp.evaluate(*warm_start);
      incumbent_values = *warm_start;
    }
  }

  LinearProgram working = lp;
  std::vector<Node> stack;
  stack.push_back(Node{});
  bool limit_hit = false;

  while (!stack.empty()) {
    if (result.nodes_explored >= options.max_nodes) {
      limit_hit = true;
      break;
    }
    const Node node = std::move(stack.back());
    stack.pop_back();
    ++result.nodes_explored;

    std::vector<std::pair<int, std::pair<double, double>>> saved;
    saved.reserve(node.bounds.size());
    bool bounds_ok = true;
    for (const auto& [var, bounds] : node.bounds) {
      saved.emplace_back(var, std::make_pair(working.lower_bound(var), working.upper_bound(var)));
      const double lo = std::max(bounds.first, working.lower_bound(var));
      const double hi = std::min(bounds.second, working.upper_bound(var));
      if (lo > hi) {
        bounds_ok = false;
        break;
      }
      working.set_bounds(var, lo, hi);
    }

    if (bounds_ok) {
      const LpSolution relaxed = solve_lp(working, options.lp);
      if (relaxed.status == LpStatus::kUnbounded && incumbent == kInfinity) {
        result.status = MilpStatus::kUnbounded;
        return result;
      }
      const double cutoff =
          std::isfinite(incumbent)
              ? incumbent - kGapTolerance * (1.0 + std::abs(incumbent))
              : kInfinity;
      if (relaxed.status == LpStatus::kOptimal && relaxed.objective < cutoff) {
        int branch_var = -1;
        double branch_frac = kIntegralityTolerance;
        for (const int var : integer_vars) {
          const double v = relaxed.values[static_cast<std::size_t>(var)];
          const double frac = std::abs(v - std::round(v));
          if (frac > branch_frac) {
            branch_frac = frac;
            branch_var = var;
          }
        }
        if (branch_var < 0) {
          incumbent = relaxed.objective;
          incumbent_values = relaxed.values;
          for (const int var : integer_vars) {
            incumbent_values[static_cast<std::size_t>(var)] =
                std::round(incumbent_values[static_cast<std::size_t>(var)]);
          }
        } else {
          const double v = relaxed.values[static_cast<std::size_t>(branch_var)];
          const double floor_v = std::floor(v);
          Node down;
          down.bounds = node.bounds;
          down.bounds.emplace_back(branch_var, std::make_pair(-kInfinity, floor_v));
          Node up;
          up.bounds = node.bounds;
          up.bounds.emplace_back(branch_var, std::make_pair(floor_v + 1.0, kInfinity));
          if (v - floor_v < 0.5) {
            stack.push_back(std::move(up));
            stack.push_back(std::move(down));
          } else {
            stack.push_back(std::move(down));
            stack.push_back(std::move(up));
          }
        }
      }
      if (relaxed.status == LpStatus::kIterationLimit) limit_hit = true;
    }

    for (auto it = saved.rbegin(); it != saved.rend(); ++it) {
      working.set_bounds(it->first, it->second.first, it->second.second);
    }
  }

  if (incumbent_values.empty()) {
    result.status = MilpStatus::kInfeasible;
    return result;
  }
  result.status = limit_hit ? MilpStatus::kFeasible : MilpStatus::kOptimal;
  result.objective = incumbent;
  result.values = std::move(incumbent_values);
  return result;
}

// Status, node count, objective and every value, bit for bit.
void expect_same_milp(const MilpSolution& actual, const MilpSolution& expected,
                      const std::string& where) {
  ASSERT_EQ(actual.status, expected.status) << where;
  ASSERT_EQ(actual.nodes_explored, expected.nodes_explored) << where;
  ASSERT_EQ(bits(actual.objective), bits(expected.objective)) << where;
  ASSERT_EQ(actual.values.size(), expected.values.size()) << where;
  for (std::size_t i = 0; i < actual.values.size(); ++i) {
    ASSERT_EQ(bits(actual.values[i]), bits(expected.values[i])) << where << " value " << i;
  }
}

// solve_milp against the reference search over 400 corpus instances: node
// budgets 1/50/500, cold and warm-started by the reference's 50-node answer
// (an incumbent the bound certificate can reach). Returns the nodes settled
// without an LP, and the nodes explored.
std::pair<std::size_t, std::size_t> expect_milp_matches_reference() {
  std::size_t settled = 0;
  std::size_t explored = 0;
  for (std::uint64_t seed = 0; seed < 400; ++seed) {
    const PlacementLp instance = placement_lp(seed);
    MilpOptions warm_options;
    warm_options.max_nodes = 50;
    const MilpSolution warm_source =
        reference_solve_milp(instance.lp, instance.integer_vars, warm_options, std::nullopt);
    std::optional<std::vector<double>> warm;
    if (!warm_source.values.empty()) warm = warm_source.values;
    for (const std::size_t budget : {1u, 50u, 500u}) {
      MilpOptions options;
      options.max_nodes = budget;
      for (const bool use_warm : {false, true}) {
        const auto& start = use_warm ? warm : std::nullopt;
        const MilpSolution actual = solve_milp(instance.lp, instance.integer_vars, options, start);
        expect_same_milp(actual,
                         reference_solve_milp(instance.lp, instance.integer_vars, options, start),
                         "seed " + std::to_string(seed) + " budget " + std::to_string(budget) +
                             (use_warm ? " warm" : " cold"));
        if (::testing::Test::HasFatalFailure()) return {settled, explored};
        EXPECT_LE(actual.settled_nodes, actual.nodes_explored);
        settled += actual.settled_nodes;
        explored += actual.nodes_explored;
      }
    }
  }
  return {settled, explored};
}

TEST(SimplexOracle, MilpMatchesReferenceSearchAtDefaultGap) {
  const auto [settled, explored] = expect_milp_matches_reference();
  EXPECT_GE(settled, explored / 20);
}

// Beale's example (1955): with Dantzig pricing and a degenerate tie the
// textbook simplex cycles here forever. The stall counter must switch to
// Bland's rule and reach the optimum, x4 = 1/25, x6 = 1: objective -1/20.
LinearProgram beale_lp() {
  LinearProgram lp;
  const int x4 = lp.add_variable(-0.75);
  const int x5 = lp.add_variable(150.0);
  const int x6 = lp.add_variable(-0.02);
  const int x7 = lp.add_variable(6.0);
  lp.add_constraint({{x4, 0.25}, {x5, -60.0}, {x6, -0.04}, {x7, 9.0}}, Sense::kLessEqual, 0.0);
  lp.add_constraint({{x4, 0.5}, {x5, -90.0}, {x6, -0.02}, {x7, 3.0}}, Sense::kLessEqual, 0.0);
  lp.add_constraint({{x6, 1.0}}, Sense::kLessEqual, 1.0);
  return lp;
}

TEST(SimplexAntiCycling, BealeExampleReachesOptimum) {
  const LinearProgram lp = beale_lp();
  const LpSolution sol = solve_lp(lp);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_NEAR(sol.objective, -0.05, 1e-12);
  EXPECT_NEAR(sol.values[0], 0.04, 1e-12);
  EXPECT_NEAR(sol.values[2], 1.0, 1e-12);
  expect_same_solution(sol, reference_solve_lp(lp), "beale");
}

// Beale's cycle stalls the objective long enough to trip the Bland switch
// in choose_entering. The kernel must take the same path as the reference
// through it: cut off after every iteration count, both report the same
// status and the same point.
TEST(SimplexAntiCycling, StallSwitchesToBlandRuleOnTheReferencePath) {
  const LinearProgram lp = beale_lp();
  std::size_t bland_pivots = 0;
  ASSERT_EQ(reference_solve_lp(lp, {}, &bland_pivots).status, LpStatus::kOptimal);
  ASSERT_GT(bland_pivots, 0u);
  LpOptions options;
  for (options.max_iterations = 1;; ++options.max_iterations) {
    ASSERT_LT(options.max_iterations, 100u);
    const LpSolution expected = reference_solve_lp(lp, options);
    expect_same_solution(solve_lp(lp, options), expected,
                         "max_iterations " + std::to_string(options.max_iterations));
    if (expected.status == LpStatus::kOptimal) break;
    ASSERT_EQ(expected.status, LpStatus::kIterationLimit);
  }
  // The cycle alone is longer than the stall threshold (rows + columns).
  EXPECT_GT(options.max_iterations, 3u + 7u);
}

TEST(SimplexLimits, TinyIterationLimitStopsEitherPhase) {
  LpOptions options;
  options.max_iterations = 1;
  // All <= rows: phase 1 ends at once and phase 2 hits the limit.
  LinearProgram textbook;
  const int x = textbook.add_variable(-3.0);
  const int y = textbook.add_variable(-5.0);
  textbook.add_constraint({{x, 3.0}, {y, 2.0}}, Sense::kLessEqual, 18.0);
  const LpSolution two = solve_lp(textbook, options);
  EXPECT_EQ(two.status, LpStatus::kIterationLimit);
  EXPECT_TRUE(two.values.empty());
  // An equality row needs a phase-1 pivot, so phase 1 hits the limit.
  LinearProgram equality;
  const int a = equality.add_variable(1.0);
  const int b = equality.add_variable(2.0);
  equality.add_constraint({{a, 1.0}, {b, 1.0}}, Sense::kEqual, 3.0);
  EXPECT_EQ(solve_lp(equality, options).status, LpStatus::kIterationLimit);
  options.max_iterations = 50;
  EXPECT_EQ(solve_lp(equality, options).status, LpStatus::kOptimal);
}

}  // namespace
}  // namespace carbonedge::solver
