// Linear programming: model container and a two-phase primal simplex over a
// flat tableau.
//
// Substitutes for Google OR-Tools (unavailable offline). Sized for the
// paper's placement instances: the testbed-scale MILPs relaxed here have a
// few hundred rows/columns; larger components take the greedy + local-search
// path instead (see assignment.hpp). Branch and bound (milp.hpp) calls
// solve_lp once per node it cannot settle by a certificate, so its speed is
// the exact solver's speed.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace carbonedge::solver {

inline constexpr double kInfinity = std::numeric_limits<double>::infinity();

enum class Sense : std::uint8_t { kLessEqual, kGreaterEqual, kEqual };

/// A linear program: minimize c.x subject to row constraints and variable
/// bounds lb <= x <= ub (lb defaults to 0).
class LinearProgram {
 public:
  /// Adds a variable; returns its index.
  int add_variable(double objective, double lower = 0.0, double upper = kInfinity);

  /// Adds a constraint sum(coeff_k * x_{var_k}) sense rhs.
  void add_constraint(std::vector<std::pair<int, double>> terms, Sense sense, double rhs);

  [[nodiscard]] std::size_t num_variables() const noexcept { return objective_.size(); }
  [[nodiscard]] std::size_t num_constraints() const noexcept { return rows_.size(); }

  [[nodiscard]] double objective_coeff(int var) const { return objective_.at(var); }
  [[nodiscard]] double lower_bound(int var) const { return lower_.at(var); }
  [[nodiscard]] double upper_bound(int var) const { return upper_.at(var); }
  [[nodiscard]] const std::vector<double>& objective() const noexcept { return objective_; }
  [[nodiscard]] const std::vector<double>& lower_bounds() const noexcept { return lower_; }
  [[nodiscard]] const std::vector<double>& upper_bounds() const noexcept { return upper_; }
  void set_bounds(int var, double lower, double upper);

  struct Row {
    std::vector<std::pair<int, double>> terms;
    Sense sense = Sense::kLessEqual;
    double rhs = 0.0;
  };
  [[nodiscard]] const std::vector<Row>& rows() const noexcept { return rows_; }

  /// Objective value of a candidate point.
  [[nodiscard]] double evaluate(const std::vector<double>& x) const;

  /// True if x satisfies all constraints and bounds within `tol`.
  [[nodiscard]] bool is_feasible(const std::vector<double>& x, double tol = 1e-6) const;

 private:
  std::vector<double> objective_;
  std::vector<double> lower_;
  std::vector<double> upper_;
  std::vector<Row> rows_;
};

enum class LpStatus : std::uint8_t { kOptimal, kInfeasible, kUnbounded, kIterationLimit };

[[nodiscard]] const char* to_string(LpStatus status) noexcept;

struct LpSolution {
  LpStatus status = LpStatus::kIterationLimit;
  double objective = 0.0;
  std::vector<double> values;  // one per variable, empty unless kOptimal
};

struct LpOptions {
  std::size_t max_iterations = 50'000;
  double pivot_tolerance = 1e-9;
  double feasibility_tolerance = 1e-7;
};

/// Solve with the two-phase primal simplex. Lower bounds are shifted to
/// zero and every finite upper bound becomes a tableau row. Pricing is
/// Dantzig's (most negative reduced cost, first index on ties), switching to
/// Bland's rule after a long run of degenerate pivots; the ratio test breaks
/// ties on the lowest basic column index.
///
/// The tableau is one row-major array, the reduced-cost row last. Dantzig
/// pricing scans the reduced costs with four independent running minima,
/// then takes the first column that holds the least. One strided pass down
/// the entering column lists its nonzero rows: the ratio test reads only
/// those, and the pivot eliminates exactly them. The pivot notes the pivot
/// row's nonzero columns, scales those, and updates only those columns of
/// the listed rows. Placement LPs are sparse (a scaled pivot row is about 7%
/// nonzero, and about one row in ten meets the entering column), so this
/// skips most of a dense sweep. It does the same arithmetic on every nonzero
/// entry as a dense sweep would, so the result is bit-identical.
[[nodiscard]] LpSolution solve_lp(const LinearProgram& lp, const LpOptions& options = {});

}  // namespace carbonedge::solver
