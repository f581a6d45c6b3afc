#include "solver/lagrangian.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

namespace carbonedge::solver {

LagrangianResult lagrangian_lower_bound(const AssignmentProblem& problem,
                                        const LagrangianOptions& options) {
  LagrangianResult result;
  const std::size_t apps = problem.num_apps();
  const std::size_t servers = problem.num_servers();
  const std::size_t resources = problem.num_resources();

  // Infeasibility check: every app needs at least one feasible pair.
  for (std::size_t i = 0; i < apps; ++i) {
    if (problem.row_begin(i) == problem.row_end(i)) {
      result.feasible_instance = false;
      result.lower_bound = -kInfinity;
      return result;
    }
  }

  std::vector<double> lambda(servers * resources, 0.0);
  std::vector<std::size_t> argmin(apps, 0);  // the pair each app's relaxed choice uses

  // Evaluate L(lambda) and the subgradient of the capacity constraints.
  const auto evaluate = [&](std::vector<double>& subgradient) {
    double value = 0.0;
    for (std::size_t i = 0; i < apps; ++i) {
      double best = kInfinity;
      std::size_t best_pair = 0;
      for (std::size_t p = problem.row_begin(i); p < problem.row_end(i); ++p) {
        const std::size_t j = problem.server(p);
        double penalized = problem.cost(p);
        for (std::size_t k = 0; k < resources; ++k) {
          penalized += lambda[j * resources + k] * problem.demand(p, k);
        }
        if (penalized < best) {
          best = penalized;
          best_pair = p;
        }
      }
      value += best;
      argmin[i] = best_pair;
    }
    std::fill(subgradient.begin(), subgradient.end(), 0.0);
    for (std::size_t i = 0; i < apps; ++i) {
      const std::size_t p = argmin[i];
      const std::size_t j = problem.server(p);
      for (std::size_t k = 0; k < resources; ++k) {
        subgradient[j * resources + k] += problem.demand(p, k);
      }
    }
    for (std::size_t j = 0; j < servers; ++j) {
      for (std::size_t k = 0; k < resources; ++k) {
        const std::size_t cell = j * resources + k;
        subgradient[cell] -= problem.capacity(j, k);
        value -= lambda[cell] * problem.capacity(j, k);
      }
    }
    return value;
  };

  std::vector<double> subgradient(servers * resources, 0.0);
  double best = evaluate(subgradient);
  result.root_bound = best;

  // Upper bound for the Polyak step.
  double upper = options.upper_bound;
  if (!std::isfinite(upper)) {
    AssignmentSolution greedy = solve_greedy(problem);
    if (greedy.feasible) {
      improve_local_search(problem, greedy, 5);
      upper = greedy.total_cost;
    } else {
      // Crude fallback: sum of per-app maxima over feasible pairs.
      upper = 0.0;
      for (std::size_t i = 0; i < apps; ++i) {
        double worst = 0.0;
        for (std::size_t p = problem.row_begin(i); p < problem.row_end(i); ++p) {
          worst = std::max(worst, problem.cost(p));
        }
        upper += worst;
      }
    }
  }

  double theta = options.theta;
  std::size_t since_improvement = 0;
  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    ++result.iterations;
    double norm_sq = 0.0;
    for (const double g : subgradient) norm_sq += g * g;
    if (norm_sq < 1e-18) break;  // relaxed solution respects capacity: optimal

    const double gap = std::max(upper - best, 1e-12);
    const double step = theta * gap / norm_sq;
    for (std::size_t cell = 0; cell < lambda.size(); ++cell) {
      lambda[cell] = std::max(0.0, lambda[cell] + step * subgradient[cell]);
    }
    const double value = evaluate(subgradient);
    if (value > best + 1e-12) {
      best = value;
      since_improvement = 0;
    } else if (++since_improvement >= options.patience) {
      theta *= 0.5;
      since_improvement = 0;
      if (theta < 1e-4) break;
    }
  }

  result.lower_bound = best;
  return result;
}

}  // namespace carbonedge::solver
