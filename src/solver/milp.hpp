// Mixed-integer linear programming via LP-relaxation branch-and-bound.
//
// Handles the paper's Eq. 7 placement MILPs at testbed scale exactly (the
// decision variables x_ij and y_j are binary). Branching is depth-first on
// the most fractional integer variable with incumbent pruning; a caller-
// supplied warm start (e.g. the regret-greedy placement) seeds the
// incumbent so pruning bites early. solve_exact (assignment.hpp) calls this
// only when a root-bound check cannot already show that the root relaxation
// is no cheaper than the warm start; a settled root never reaches here.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "solver/lp.hpp"

namespace carbonedge::solver {

struct MilpOptions {
  LpOptions lp;
  /// Node budget: each node solves its LP relaxation from scratch, so this
  /// bounds the worst-case latency of an exact solve; past it the best
  /// incumbent is returned (status kFeasible), as it is when a node's LP hits
  /// `lp.max_iterations`.
  std::size_t max_nodes = 5'000;
  double integrality_tolerance = 1e-6;
  /// Relative optimality gap at which search stops (0 = prove optimality).
  double gap_tolerance = 1e-9;
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
