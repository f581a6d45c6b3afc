// Shared exact oracle for the solver test binaries.
#pragma once

#include <utility>
#include <vector>

#include "solver/assignment.hpp"
#include "solver/decompose.hpp"
#include "solver/lp.hpp"

namespace carbonedge::testutil {

/// solver::solve_auto on fresh buffers.
inline solver::AssignmentSolution solve_auto(const solver::AssignmentProblem& problem,
                                             const solver::AssignmentOptions& options = {}) {
  solver::ShardWorkspace workspace;
  solver::AssignmentSolution solution;
  solver::solve_auto(problem, options, workspace, solution);
  return solution;
}

/// Each app's server in `solution`, solver::kUnassigned when it is unplaced.
inline std::vector<std::size_t> servers_of(const solver::AssignmentProblem& problem,
                                           const solver::AssignmentSolution& solution) {
  std::vector<std::size_t> servers;
  for (const std::size_t pair : solution.pairs) {
    servers.push_back(pair == solver::kNoPair ? solver::kUnassigned : problem.server(pair));
  }
  return servers;
}

/// The LP relaxation of a unit-slot AssignmentProblem: one resource, unit
/// demands, integral capacities and no activation costs. Its constraint
/// matrix (app rows sum x = 1, server rows sum x <= capacity) is totally
/// unimodular, so the relaxation's optimum is the integer optimum; no x <= 1
/// rows are needed. One variable per pair, in pair order.
inline solver::LpSolution unit_slot_lp(const solver::AssignmentProblem& problem) {
  solver::LinearProgram lp;
  std::vector<std::vector<std::pair<int, double>>> server_terms(problem.num_servers());
  for (std::size_t i = 0; i < problem.num_apps(); ++i) {
    std::vector<std::pair<int, double>> app_terms;
    for (std::size_t p = problem.row_begin(i); p < problem.row_end(i); ++p) {
      const int var = lp.add_variable(problem.cost(p));
      app_terms.emplace_back(var, 1.0);
      server_terms[problem.server(p)].emplace_back(var, 1.0);
    }
    lp.add_constraint(std::move(app_terms), solver::Sense::kEqual, 1.0);
  }
  for (std::size_t j = 0; j < problem.num_servers(); ++j) {
    if (server_terms[j].empty()) continue;
    lp.add_constraint(std::move(server_terms[j]), solver::Sense::kLessEqual,
                      problem.capacity(j, 0));
  }
  return solver::solve_lp(lp);
}

}  // namespace carbonedge::testutil
