#include "solver/milp.hpp"

#include <algorithm>
#include <cmath>
#include <span>

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

bool is_integral(double v) noexcept {
  return std::abs(v - std::round(v)) <= kIntegralityTolerance;
}

}  // namespace

NodeCertifier::NodeCertifier(const LinearProgram& lp)
    : unit_start_{0}, in_unit_(lp.num_variables(), 0) {
  for (const LinearProgram::Row& row : lp.rows()) {
    const auto& terms = row.terms;
    if (row.sense == Sense::kLessEqual && row.rhs == 0.0 && terms.size() == 2 &&
        terms[0].first != terms[1].first) {
      if (terms[0].second == 1.0 && terms[1].second == -1.0) {
        links_.emplace_back(terms[0].first, terms[1].first);
      } else if (terms[0].second == -1.0 && terms[1].second == 1.0) {
        links_.emplace_back(terms[1].first, terms[0].first);
      }
      continue;
    }
    if (row.sense != Sense::kEqual || row.rhs != 1.0 || terms.empty()) continue;
    // Marks this row's variables as it goes; a repeat, or one already in an
    // earlier unit-sum row, unmarks them and drops the row.
    const std::size_t first = unit_vars_.size();
    bool unit = true;
    for (const auto& [var, coeff] : terms) {
      const auto v = static_cast<std::size_t>(var);
      if (coeff != 1.0 || in_unit_[v] != 0 || lp.lower_bound(var) < 0.0) {
        unit = false;
        break;
      }
      in_unit_[v] = 1;
      unit_vars_.push_back(var);
    }
    if (!unit) {
      for (std::size_t k = first; k < unit_vars_.size(); ++k) {
        in_unit_[static_cast<std::size_t>(unit_vars_[k])] = 0;
      }
      unit_vars_.resize(first);
      continue;
    }
    unit_start_.push_back(unit_vars_.size());
  }
}

NodeCertifier::Verdict NodeCertifier::settle(const LinearProgram& node, double incumbent) {
  lower_ = node.lower_bounds();
  upper_ = node.upper_bounds();

  // Tighten. Each step copies a bound exactly, and the row it reads holds
  // exactly at every phase-1 point unless its own activity check fails
  // below (x held above its closed y; two variables held in one row).
  for (const auto& [x, y] : links_) {
    const auto xi = static_cast<std::size_t>(x);
    const auto yi = static_cast<std::size_t>(y);
    if (lower_[yi] >= 0.0 && upper_[yi] <= 0.0) upper_[xi] = std::min(upper_[xi], 0.0);
  }
  for (std::size_t r = 0; r + 1 < unit_start_.size(); ++r) {
    const std::span<const int> vars(unit_vars_.data() + unit_start_[r],
                                    unit_start_[r + 1] - unit_start_[r]);
    const auto held = std::find_if(vars.begin(), vars.end(), [&](int v) {
      return lower_[static_cast<std::size_t>(v)] >= 1.0;
    });
    if (held == vars.end()) continue;
    for (const int v : vars) {
      if (v != *held) upper_[static_cast<std::size_t>(v)] = 0.0;
    }
  }

  // Infeasible: a row's activity range misses its rhs. Lower bounds are
  // finite, so a minimum is finite or -inf and a maximum finite or +inf.
  for (const LinearProgram::Row& row : node.rows()) {
    double min_activity = 0.0;
    double max_activity = 0.0;
    for (const auto& [var, coeff] : row.terms) {
      const auto v = static_cast<std::size_t>(var);
      if (coeff > 0.0) {
        min_activity += coeff * lower_[v];
        max_activity += coeff * upper_[v];
      } else if (coeff < 0.0) {
        min_activity += coeff * upper_[v];
        max_activity += coeff * lower_[v];
      }
    }
    const bool too_high = row.sense != Sense::kGreaterEqual &&
                          min_activity > row.rhs + kInfeasibleMargin;
    const bool too_low = row.sense != Sense::kLessEqual &&
                         max_activity < row.rhs - kInfeasibleMargin;
    if (too_high || too_low) return Verdict::kInfeasible;
  }

  // Bounded: the row-minimum bound reaches the incumbent.
  if (!std::isfinite(incumbent)) return Verdict::kOpen;
  const std::vector<double>& cost = node.objective();
  double bound = 0.0;
  for (std::size_t r = 0; r + 1 < unit_start_.size(); ++r) {
    double cheapest = kInfinity;
    for (std::size_t k = unit_start_[r]; k < unit_start_[r + 1]; ++k) {
      const auto v = static_cast<std::size_t>(unit_vars_[k]);
      if (upper_[v] > 0.0) cheapest = std::min(cheapest, cost[v]);
    }
    bound += cheapest;  // some variable is open, or the row failed above
  }
  for (std::size_t v = 0; v < cost.size(); ++v) {
    if (in_unit_[v] != 0) continue;
    bound += cost[v] >= 0.0 ? cost[v] * lower_[v] : cost[v] * upper_[v];
  }
  return bound >= incumbent ? Verdict::kBounded : Verdict::kOpen;
}

MilpSolution solve_milp(const LinearProgram& lp, const std::vector<int>& integer_vars,
                        const MilpOptions& options,
                        const std::optional<std::vector<double>>& warm_start) {
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

  // Depth-first stack; mutable copy of the LP for bound overrides.
  LinearProgram working = lp;
  NodeCertifier certifier(lp);
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

    if (!bounds_ok || certifier.settle(working, incumbent) != NodeCertifier::Verdict::kOpen) {
      ++result.settled_nodes;
    } else {
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
              ? incumbent - kGapTolerance * (1.0 + std::abs(incumbent))
              : kInfinity;
      if (relaxed.status == LpStatus::kOptimal && relaxed.objective < cutoff) {
        // Find the most fractional integer variable.
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
