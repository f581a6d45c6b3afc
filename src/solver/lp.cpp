#include "solver/lp.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace carbonedge::solver {

int LinearProgram::add_variable(double objective, double lower, double upper) {
  if (lower > upper) throw std::invalid_argument("lp: lower bound exceeds upper bound");
  if (!std::isfinite(lower)) throw std::invalid_argument("lp: lower bound must be finite");
  objective_.push_back(objective);
  lower_.push_back(lower);
  upper_.push_back(upper);
  return static_cast<int>(objective_.size()) - 1;
}

void LinearProgram::add_constraint(std::vector<std::pair<int, double>> terms, Sense sense,
                                   double rhs) {
  for (const auto& [var, coeff] : terms) {
    (void)coeff;
    if (var < 0 || static_cast<std::size_t>(var) >= objective_.size()) {
      throw std::out_of_range("lp: constraint references unknown variable");
    }
  }
  rows_.push_back(Row{std::move(terms), sense, rhs});
}

void LinearProgram::set_bounds(int var, double lower, double upper) {
  if (lower > upper) throw std::invalid_argument("lp: lower bound exceeds upper bound");
  lower_.at(var) = lower;
  upper_.at(var) = upper;
}

double LinearProgram::evaluate(const std::vector<double>& x) const {
  double total = 0.0;
  for (std::size_t i = 0; i < objective_.size(); ++i) total += objective_[i] * x.at(i);
  return total;
}

bool LinearProgram::is_feasible(const std::vector<double>& x, double tol) const {
  if (x.size() != objective_.size()) return false;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i] < lower_[i] - tol || x[i] > upper_[i] + tol) return false;
  }
  for (const Row& row : rows_) {
    double lhs = 0.0;
    for (const auto& [var, coeff] : row.terms) lhs += coeff * x[var];
    switch (row.sense) {
      case Sense::kLessEqual:
        if (lhs > row.rhs + tol) return false;
        break;
      case Sense::kGreaterEqual:
        if (lhs < row.rhs - tol) return false;
        break;
      case Sense::kEqual:
        if (std::abs(lhs - row.rhs) > tol) return false;
        break;
    }
  }
  return true;
}

const char* to_string(LpStatus status) noexcept {
  switch (status) {
    case LpStatus::kOptimal: return "optimal";
    case LpStatus::kInfeasible: return "infeasible";
    case LpStatus::kUnbounded: return "unbounded";
    case LpStatus::kIterationLimit: return "iteration_limit";
  }
  return "?";
}

namespace {

/// Two-phase primal simplex over one flat, row-major tableau.
class SimplexTableau {
 public:
  SimplexTableau(const LinearProgram& lp, const LpOptions& options)
      : lp_(lp), options_(options) {}

  LpSolution solve();

 private:
  // Standardized data: minimize cost.z over A z = b, z >= 0, where z holds
  // the shifted structural variables followed by slack/surplus/artificials.
  void standardize();
  bool phase(bool phase_one);
  // pivot() eliminates the rows list_column_rows(col) listed last.
  void pivot(std::size_t row, std::size_t col);
  void list_column_rows(std::size_t col);
  void price_out_objective(const std::vector<double>& cost);
  [[nodiscard]] std::size_t choose_entering(bool bland) const;
  [[nodiscard]] std::size_t choose_leaving(std::size_t col);

  [[nodiscard]] double* row(std::size_t r) noexcept { return tableau_.data() + r * stride_; }
  [[nodiscard]] const double* row(std::size_t r) const noexcept {
    return tableau_.data() + r * stride_;
  }
  [[nodiscard]] double rhs(std::size_t r) const noexcept { return row(r)[num_total_]; }

  const LinearProgram& lp_;
  LpOptions options_;

  std::size_t num_struct_ = 0;   // structural (shifted) variables
  std::size_t num_total_ = 0;    // structural + slack + artificial
  std::size_t first_artificial_ = 0;
  std::size_t rows_ = 0;
  // rows_ constraint rows, then the reduced-cost row at index rows_, each
  // stride_ = num_total_ + 1 wide with the rhs last. The reduced-cost row's
  // rhs holds minus the objective value.
  std::size_t stride_ = 0;
  std::vector<double> tableau_;
  // Pivot scratch, each used as a prefix: the nonzero columns of the pivot
  // row, and the column_rows_ rows with a nonzero in the entering column.
  std::vector<std::size_t> pivot_cols_;
  std::vector<std::size_t> pivot_rows_;
  std::size_t column_rows_ = 0;
  std::vector<std::size_t> basis_;       // basis_[r] = column basic in row r
  std::vector<double> struct_cost_;      // phase-2 costs over all columns
  std::size_t entering_limit_ = 0;       // columns eligible to enter the basis
  std::size_t iterations_ = 0;
  static constexpr std::size_t kNoCol = static_cast<std::size_t>(-1);
};

void SimplexTableau::standardize() {
  const std::size_t n = lp_.num_variables();
  num_struct_ = n;

  // Shift x = z + lb so structural z >= 0; finite upper bounds become rows.
  // A row with a negative rhs is negated, which swaps <= and >=. The first
  // pass fixes each row's rhs and sense, which set the column layout.
  std::vector<double> std_rhs;
  std::vector<Sense> std_sense;
  std_rhs.reserve(lp_.num_constraints() + n);
  std_sense.reserve(lp_.num_constraints() + n);
  for (const LinearProgram::Row& r : lp_.rows()) {
    double b = r.rhs;
    for (const auto& [var, coeff] : r.terms) b -= coeff * lp_.lower_bound(var);
    std_rhs.push_back(b);
    std_sense.push_back(r.sense);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const double ub = lp_.upper_bound(static_cast<int>(i));
    if (std::isfinite(ub)) {
      std_rhs.push_back(ub - lp_.lower_bound(static_cast<int>(i)));
      std_sense.push_back(Sense::kLessEqual);
    }
  }
  rows_ = std_rhs.size();
  std::size_t num_slack = 0;
  std::size_t num_artificial = 0;
  for (std::size_t r = 0; r < rows_; ++r) {
    Sense& sense = std_sense[r];
    if (std_rhs[r] < 0.0) {
      if (sense == Sense::kLessEqual) {
        sense = Sense::kGreaterEqual;
      } else if (sense == Sense::kGreaterEqual) {
        sense = Sense::kLessEqual;
      }
    }
    if (sense != Sense::kEqual) ++num_slack;
    if (sense != Sense::kLessEqual) ++num_artificial;
  }
  first_artificial_ = num_struct_ + num_slack;
  num_total_ = first_artificial_ + num_artificial;
  stride_ = num_total_ + 1;

  // Second pass: write each row straight into the tableau.
  tableau_.assign((rows_ + 1) * stride_, 0.0);
  pivot_cols_.resize(stride_);
  pivot_rows_.resize(rows_ + 1);
  basis_.assign(rows_, kNoCol);
  const std::size_t num_lp_rows = lp_.num_constraints();
  std::size_t next_bound = 0;  // structural variable of the next bound row
  std::size_t slack_col = num_struct_;
  std::size_t art_col = first_artificial_;
  for (std::size_t r = 0; r < rows_; ++r) {
    double* t = row(r);
    if (r < num_lp_rows) {
      for (const auto& [var, coeff] : lp_.rows()[r].terms) {
        t[static_cast<std::size_t>(var)] += coeff;
      }
    } else {
      while (!std::isfinite(lp_.upper_bound(static_cast<int>(next_bound)))) ++next_bound;
      t[next_bound++] = 1.0;
    }
    if (std_rhs[r] < 0.0) {
      for (std::size_t i = 0; i < n; ++i) t[i] = -t[i];
      std_rhs[r] = -std_rhs[r];
    }
    t[num_total_] = std_rhs[r];
    switch (std_sense[r]) {
      case Sense::kLessEqual:
        t[slack_col] = 1.0;
        basis_[r] = slack_col++;
        break;
      case Sense::kGreaterEqual:
        t[slack_col] = -1.0;
        ++slack_col;
        t[art_col] = 1.0;
        basis_[r] = art_col++;
        break;
      case Sense::kEqual:
        t[art_col] = 1.0;
        basis_[r] = art_col++;
        break;
    }
  }

  struct_cost_.assign(num_total_, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    struct_cost_[i] = lp_.objective_coeff(static_cast<int>(i));
  }
}

void SimplexTableau::price_out_objective(const std::vector<double>& cost) {
  double* obj = row(rows_);
  for (std::size_t j = 0; j < num_total_; ++j) obj[j] = cost[j];
  obj[num_total_] = 0.0;
  for (std::size_t r = 0; r < rows_; ++r) {
    const double cb = cost[basis_[r]];
    if (cb == 0.0) continue;
    const double* t = row(r);
    for (std::size_t j = 0; j < stride_; ++j) obj[j] -= cb * t[j];
  }
}

std::size_t SimplexTableau::choose_entering(bool bland) const {
  // entering_limit_ excludes artificial columns during phase 2: once driven
  // out they must never re-enter, or the equality constraints they stand in
  // for silently relax.
  const double tol = options_.pivot_tolerance;
  const double* obj = row(rows_);
  if (bland) {
    for (std::size_t j = 0; j < entering_limit_; ++j) {
      if (obj[j] < -tol) return j;
    }
    return kNoCol;
  }
  // Dantzig: the minimum below -tol over four independent running minima
  // (no compare chain from one column to the next), then the first column
  // that holds it, the one a sequential strict-minimum scan keeps.
  const std::size_t limit = entering_limit_;
  double lane[4] = {-tol, -tol, -tol, -tol};
  std::size_t j = 0;
  for (; j + 4 <= limit; j += 4) {
    for (std::size_t k = 0; k < 4; ++k) {
      lane[k] = obj[j + k] < lane[k] ? obj[j + k] : lane[k];
    }
  }
  for (; j < limit; ++j) lane[0] = obj[j] < lane[0] ? obj[j] : lane[0];
  double best = lane[0];
  for (std::size_t k = 1; k < 4; ++k) best = lane[k] < best ? lane[k] : best;
  if (!(best < -tol)) return kNoCol;
  std::size_t first = 0;
  while (obj[first] != best) ++first;
  return first;
}

void SimplexTableau::list_column_rows(std::size_t col) {
  // The rows with a nonzero in column `col`, the reduced-cost row included,
  // about one in ten, listed without a branch per row.
  std::size_t* rows = pivot_rows_.data();
  std::size_t touched = 0;
  for (std::size_t r = 0; r <= rows_; ++r) {
    rows[touched] = r;
    touched += row(r)[col] != 0.0 ? 1 : 0;
  }
  column_rows_ = touched;
}

std::size_t SimplexTableau::choose_leaving(std::size_t col) {
  // One strided pass over the entering column lists its nonzero rows; the
  // ratio test reads only those, and pivot() eliminates the same list.
  list_column_rows(col);
  const double tol = options_.pivot_tolerance;
  std::size_t best_row = kNoCol;
  double best_ratio = kInfinity;
  for (std::size_t i = 0; i < column_rows_; ++i) {
    const std::size_t r = pivot_rows_[i];
    if (r == rows_) break;  // the reduced-cost row, listed last
    const double a = row(r)[col];
    if (a <= tol) continue;
    const double ratio = rhs(r) / a;
    // Bland tie-break on the basic column index for anti-cycling.
    if (ratio < best_ratio - 1e-12 ||
        (ratio < best_ratio + 1e-12 && best_row != kNoCol && basis_[r] < basis_[best_row])) {
      best_ratio = ratio;
      best_row = r;
    }
  }
  return best_row;
}

void SimplexTableau::pivot(std::size_t pivot_row, std::size_t col) {
  // Scale the pivot row and note its nonzero columns. Eliminating the other
  // rows, the reduced-cost row included, touches only those columns: a
  // skipped update would subtract factor * (+-0), which at most flips the
  // sign of a zero, and no comparison or result depends on that sign.
  double* prow = row(pivot_row);
  const double inv = 1.0 / prow[col];
  std::size_t* cols = pivot_cols_.data();
  std::size_t nonzeros = 0;
  for (std::size_t j = 0; j < stride_; ++j) {
    prow[j] *= inv;
    cols[nonzeros] = j;
    nonzeros += prow[j] != 0.0 ? 1 : 0;
  }
  prow[col] = 1.0;  // exact

  // The rows to eliminate: the entering column's nonzero rows, listed by
  // list_column_rows before the pivot row was scaled.
  for (std::size_t i = 0; i < column_rows_; ++i) {
    const std::size_t r = pivot_rows_[i];
    if (r == pivot_row) continue;
    double* target = row(r);
    const double factor = target[col];
    for (std::size_t k = 0; k < nonzeros; ++k) target[cols[k]] -= factor * prow[cols[k]];
    target[col] = 0.0;
  }
  basis_[pivot_row] = col;
}

bool SimplexTableau::phase(bool phase_one) {
  // Returns false on unboundedness (phase 2 only) or iteration limit.
  std::size_t stall = 0;
  for (;;) {
    if (++iterations_ > options_.max_iterations) return false;
    const bool bland = stall > rows_ + num_total_;  // switch after long stall
    const std::size_t col = choose_entering(bland);
    if (col == kNoCol) return true;  // optimal for this phase
    const std::size_t leaving = choose_leaving(col);
    if (leaving == kNoCol) {
      if (phase_one) return true;  // phase-1 objective bounded below by 0
      return false;                // genuine unboundedness
    }
    const double before = rhs(rows_);
    pivot(leaving, col);
    stall = std::abs(rhs(rows_) - before) < 1e-12 ? stall + 1 : 0;
  }
}

LpSolution SimplexTableau::solve() {
  standardize();
  LpSolution solution;

  if (rows_ == 0) {
    // No constraints and no finite upper bounds: each variable sits at its
    // lower bound unless its cost is negative, which means unboundedness.
    for (std::size_t i = 0; i < num_struct_; ++i) {
      if (lp_.objective_coeff(static_cast<int>(i)) < 0.0) {
        solution.status = LpStatus::kUnbounded;
        return solution;
      }
    }
  }

  if (rows_ > 0) {
    // Phase 1: minimize sum of artificials.
    entering_limit_ = num_total_;
    std::vector<double> phase1_cost(num_total_, 0.0);
    for (std::size_t j = first_artificial_; j < num_total_; ++j) phase1_cost[j] = 1.0;
    price_out_objective(phase1_cost);
    if (!phase(/*phase_one=*/true)) {
      solution.status = LpStatus::kIterationLimit;
      return solution;
    }
    if (-rhs(rows_) > options_.feasibility_tolerance) {
      solution.status = LpStatus::kInfeasible;
      return solution;
    }
    // Drive any remaining artificial out of the basis where possible.
    for (std::size_t r = 0; r < rows_; ++r) {
      if (basis_[r] < first_artificial_) continue;
      const double* t = row(r);
      std::size_t col = kNoCol;
      for (std::size_t j = 0; j < first_artificial_; ++j) {
        if (std::abs(t[j]) > options_.pivot_tolerance) {
          col = j;
          break;
        }
      }
      if (col != kNoCol) {
        list_column_rows(col);
        pivot(r, col);
      }
      // else: redundant row with zero rhs; it stays basic in an artificial
      // at value 0, harmless for phase 2 since its cost is 0 there.
    }
    // Phase 2: original objective; artificial columns are frozen out.
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
  for (std::size_t r = 0; r < rows_; ++r) z[basis_[r]] = rhs(r);
  for (std::size_t i = 0; i < num_struct_; ++i) {
    solution.values[i] = z[i] + lp_.lower_bound(static_cast<int>(i));
  }
  solution.objective = lp_.evaluate(solution.values);
  return solution;
}

}  // namespace

LpSolution solve_lp(const LinearProgram& lp, const LpOptions& options) {
  if (lp.num_variables() == 0) {
    LpSolution trivial;
    trivial.status = LpStatus::kOptimal;
    trivial.objective = 0.0;
    return trivial;
  }
  SimplexTableau tableau(lp, options);
  return tableau.solve();
}

}  // namespace carbonedge::solver
