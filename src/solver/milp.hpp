// Mixed-integer linear programming via LP-relaxation branch-and-bound.
//
// Handles the paper's Eq. 7 placement MILPs at testbed scale exactly (the
// decision variables x_ij and y_j are binary). Branching is depth-first on
// the most fractional integer variable with incumbent pruning; a caller-
// supplied warm start (e.g. the regret-greedy placement) seeds the
// incumbent so pruning bites early. Before a node solves its LP, the
// NodeCertifier below tries to settle it without one; at the root that is
// the row-minimum bound, which settles most small shards' warm starts.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "solver/lp.hpp"

namespace carbonedge::solver {

/// A value within this of an integer counts as integral (warm start and LP
/// relaxation alike).
inline constexpr double kIntegralityTolerance = 1e-6;
/// Relative optimality gap at which search stops: a node is pruned unless
/// its LP beats incumbent - kGapTolerance * (1 + |incumbent|).
inline constexpr double kGapTolerance = 1e-9;

struct MilpOptions {
  LpOptions lp;
  /// Node budget: a node that NodeCertifier cannot settle solves its LP
  /// relaxation from scratch, so this bounds the worst-case latency of an
  /// exact solve; past it the best incumbent is returned (status kFeasible),
  /// as it is when a node's LP hits `lp.max_iterations`. Settled nodes count
  /// against the budget too.
  std::size_t max_nodes = 5'000;
};

enum class MilpStatus : std::uint8_t {
  kOptimal,
  kFeasible,     // node/iteration limit hit; best incumbent returned
  kInfeasible,
  kUnbounded,
};

[[nodiscard]] const char* to_string(MilpStatus status) noexcept;

struct MilpSolution {
  MilpStatus status = MilpStatus::kInfeasible;
  double objective = 0.0;
  std::vector<double> values;
  std::size_t nodes_explored = 0;
  std::size_t settled_nodes = 0;  // of nodes_explored, closed without an LP
};

/// Settles a branch-and-bound node without its LP relaxation when a cheap
/// certificate shows that the LP would prune it. It reads two row shapes of
/// the root LP once: unit-sum rows (sum x_v = 1 over distinct variables with
/// lb >= 0, no variable in two of them) and linking rows (x - y <= 0).
///
/// settle() takes the node's LP (the root's rows under the node's bounds)
/// and tightens its bounds in one pass: a linking row whose y is held at 0
/// closes its x (ub 0), then a unit-sum variable held at 1 or more closes
/// its siblings. Under the tightened bounds it reports
///  - kInfeasible when some row's activity range misses its rhs by more than
///    kInfeasibleMargin, far above the simplex's feasibility tolerance, so
///    phase 1 ends infeasible too;
///  - kBounded when the incumbent is finite and the row-minimum bound
///    reaches it: per unit-sum row the cost of its cheapest open variable,
///    plus each other variable's cost at the bound that minimizes it. The LP
///    optimum is at least that bound, which lies above the pruning cutoff by
///    kGapTolerance * (1 + |incumbent|), far more than LP rounding;
///  - kOpen otherwise: the node needs its LP.
/// Every settled node is one the LP would prune, so the search explores the
/// same nodes and returns the same answer as without it, bit for bit; only a
/// node whose LP would hit `lp.max_iterations` now settles without marking
/// the search kFeasible.
class NodeCertifier {
 public:
  enum class Verdict : std::uint8_t { kOpen, kInfeasible, kBounded };
  static constexpr double kInfeasibleMargin = 1e-6;

  explicit NodeCertifier(const LinearProgram& lp);

  [[nodiscard]] Verdict settle(const LinearProgram& node, double incumbent);

 private:
  // Unit-sum row r holds unit_vars_[unit_start_[r] .. unit_start_[r + 1]).
  std::vector<std::size_t> unit_start_;
  std::vector<int> unit_vars_;
  std::vector<std::uint8_t> in_unit_;    // per variable
  std::vector<std::pair<int, int>> links_;  // (x, y): x - y <= 0
  std::vector<double> lower_;            // the node's tightened bounds
  std::vector<double> upper_;
};

/// Minimize the LP's objective with the listed variables restricted to
/// integers (bounds come from the LP). `warm_start`, if given, must be an
/// integer-feasible point; it seeds the incumbent.
[[nodiscard]] MilpSolution solve_milp(const LinearProgram& lp,
                                      const std::vector<int>& integer_vars,
                                      const MilpOptions& options = {},
                                      const std::optional<std::vector<double>>& warm_start =
                                          std::nullopt);

}  // namespace carbonedge::solver
