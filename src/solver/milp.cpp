#include "solver/milp.hpp"

#include <algorithm>
#include <cmath>

namespace carbonedge::solver {

const char* to_string(MilpStatus status) noexcept {
  switch (status) {
    case MilpStatus::kOptimal: return "optimal";
    case MilpStatus::kFeasible: return "feasible";
    case MilpStatus::kInfeasible: return "infeasible";
    case MilpStatus::kUnbounded: return "unbounded";
  }
  return "?";
}

namespace {

struct Node {
  // Variable bound overrides accumulated along the branch.
  std::vector<std::pair<int, std::pair<double, double>>> bounds;
};

bool is_integral(double v, double tol) noexcept {
  return std::abs(v - std::round(v)) <= tol;
}

}  // namespace

MilpSolution solve_milp(const LinearProgram& lp, const std::vector<int>& integer_vars,
                        const MilpOptions& options,
                        const std::optional<std::vector<double>>& warm_start) {
  MilpSolution result;

  double incumbent = kInfinity;
  std::vector<double> incumbent_values;
  if (warm_start && lp.is_feasible(*warm_start)) {
    bool integral = true;
    for (const int var : integer_vars) {
      if (!is_integral((*warm_start)[static_cast<std::size_t>(var)],
                       options.integrality_tolerance)) {
        integral = false;
        break;
      }
    }
    if (integral) {
      incumbent = lp.evaluate(*warm_start);
      incumbent_values = *warm_start;
    }
  }

  // Depth-first stack; mutable copy of the LP for bound overrides.
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

    // Apply node bounds on top of the original ones.
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
        // Restore bounds before returning.
        for (auto it = saved.rbegin(); it != saved.rend(); ++it) {
          working.set_bounds(it->first, it->second.first, it->second.second);
        }
        result.status = MilpStatus::kUnbounded;
        return result;
      }
      // Cutoff guard: with no incumbent yet, every optimal node is explored.
      const double cutoff =
          std::isfinite(incumbent)
              ? incumbent - options.gap_tolerance * (1.0 + std::abs(incumbent))
              : kInfinity;
      if (relaxed.status == LpStatus::kOptimal && relaxed.objective < cutoff) {
        // Find the most fractional integer variable.
        int branch_var = -1;
        double branch_frac = options.integrality_tolerance;
        for (const int var : integer_vars) {
          const double v = relaxed.values[static_cast<std::size_t>(var)];
          const double frac = std::abs(v - std::round(v));
          if (frac > branch_frac) {
            branch_frac = frac;
            branch_var = var;
          }
        }
        if (branch_var < 0) {
          // Integral solution improving the incumbent.
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
          // Explore the branch nearer the fractional value first (DFS order:
          // push the *other* branch first).
          if (v - floor_v < 0.5) {
            stack.push_back(std::move(up));
            stack.push_back(std::move(down));
          } else {
            stack.push_back(std::move(down));
            stack.push_back(std::move(up));
          }
        }
      }
      // An iteration-limited LP leaves its subtree unexplored, so the search
      // can no longer prove optimality, as with the node budget.
      if (relaxed.status == LpStatus::kIterationLimit) limit_hit = true;
      // kInfeasible / bound-dominated nodes are pruned silently.
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

}  // namespace carbonedge::solver
