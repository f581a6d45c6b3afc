// The placement-shaped optimization problem (paper Eq. 1-7 after latency
// filtering) and its solution paths.
//
// An AssignmentProblem has `num_apps` applications to place on
// `num_servers` servers with multi-dimensional capacities. Only feasible
// pairs exist: each app owns a row of (server, cost, demands) pairs, servers
// ascending, appended with add_pair in (app, server) order. A pair that is
// absent is infeasible (Eq. 2's latency filter, or a model the device cannot
// run) — there is no sentinel cost. cost is the objective contribution of
// placing the app on that server (the policies encode E_ij * Ī_j, energy, or
// blended objectives here). Servers that are initially off incur
// activation_cost(j) once if they receive any application (Eq. 6's second
// term; Eq. 4-5 power-state constraints). Every solver walks rows, so its
// work scales with the feasible support rather than apps x servers.
//
// An answer names each app's pair (AssignmentSolution::pairs, kNoPair when
// unplaced); the app runs on problem.server(pair). evaluate() turns a
// hand-built app -> server vector into one.
//
// Two solution paths, cross-validated in tests:
//  * solve_greedy + improve_local_search — regret greedy with relocate/swap
//                    improvement; any scale, near-optimal in practice.
//  * solve_exact   — branch-and-bound MILP; exact, testbed scale. The
//                    heuristic above is its warm start. It always builds the
//                    LP; a root whose row-minimum bound (the sum of the apps'
//                    cheapest costs) already reaches the warm start is closed
//                    by NodeCertifier without a simplex solve.
// solve_unsharded runs them on one instance as a whole. Placement goes
// through the one sharded entry, solve_auto (decompose.hpp): it splits the
// instance into connected components of the feasible-pair graph (latency
// pre-filtering makes real batches block-diagonal, and the decomposition is
// exact) and takes them one after another on the calling thread. A
// component where every app's cheapest pair fits with room to spare
// settles on those pairs without a solve (most small shards end there,
// before the exact path): both paths would return exactly them, and it
// reports the stats of the path it stands in for. Every other component is
// solved in place on the parent problem: the heuristic runs once, and one
// within exact_size_limit hands it to the exact path, which keeps it
// whenever it finds no feasible answer of its own.
#pragma once

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "solver/milp.hpp"

namespace carbonedge::solver {

inline constexpr std::size_t kUnassigned = static_cast<std::size_t>(-1);

/// find_pair's answer for a pair the problem does not contain (infeasible),
/// and an unplaced app's entry in AssignmentSolution::pairs.
inline constexpr std::size_t kNoPair = static_cast<std::size_t>(-1);

class AssignmentProblem {
 public:
  AssignmentProblem(std::size_t num_apps, std::size_t num_servers, std::size_t num_resources = 1);

  /// Empty the problem and give it new dimensions, as the constructor does,
  /// keeping the storage: a caller that rebuilds a problem every epoch
  /// appends into buffers that have already grown.
  void reset(std::size_t num_apps, std::size_t num_servers, std::size_t num_resources = 1);

  [[nodiscard]] std::size_t num_apps() const noexcept { return num_apps_; }
  [[nodiscard]] std::size_t num_servers() const noexcept { return num_servers_; }
  [[nodiscard]] std::size_t num_resources() const noexcept { return num_resources_; }
  [[nodiscard]] std::size_t num_pairs() const noexcept { return server_.size(); }

  /// Append the feasible pair (app, server) with its objective cost and one
  /// demand per resource. Pairs arrive in strictly ascending (app, server)
  /// order. Throws std::invalid_argument on an out-of-order, duplicate or
  /// out-of-range pair, a non-finite cost, or a demand count other than
  /// num_resources().
  void add_pair(std::size_t app, std::size_t server, double cost, std::span<const double> demand);
  void add_pair(std::size_t app, std::size_t server, double cost,
                std::initializer_list<double> demand) {
    add_pair(app, server, cost, std::span<const double>(demand.begin(), demand.size()));
  }

  /// Reserve storage for `pairs` pairs (and the row starts of every app), so
  /// a caller that knows the final pair count appends without regrowth.
  void reserve(std::size_t pairs);

  /// Pairs are numbered in (app, server) order; app `app` owns the indices
  /// [row_begin(app), row_end(app)), servers ascending.
  [[nodiscard]] std::size_t row_begin(std::size_t app) const noexcept {
    return app < row_start_.size() ? row_start_[app] : num_pairs();
  }
  [[nodiscard]] std::size_t row_end(std::size_t app) const noexcept { return row_begin(app + 1); }
  [[nodiscard]] std::span<const std::uint32_t> row_servers(std::size_t app) const noexcept {
    return std::span<const std::uint32_t>(server_).subspan(row_begin(app),
                                                           row_end(app) - row_begin(app));
  }

  [[nodiscard]] std::size_t server(std::size_t pair) const noexcept { return server_[pair]; }
  [[nodiscard]] double cost(std::size_t pair) const noexcept { return cost_[pair]; }
  [[nodiscard]] double demand(std::size_t pair, std::size_t resource) const noexcept {
    return demand_[pair * num_resources_ + resource];
  }
  [[nodiscard]] std::span<const double> demands(std::size_t pair) const noexcept {
    return std::span<const double>(demand_).subspan(pair * num_resources_, num_resources_);
  }

  /// The pair (app, server), or kNoPair when it is infeasible: a binary
  /// search over the app's row.
  [[nodiscard]] std::size_t find_pair(std::size_t app, std::size_t server) const noexcept {
    const std::span<const std::uint32_t> row = row_servers(app);
    const auto it = std::lower_bound(row.begin(), row.end(), server);
    if (it == row.end() || *it != server) return kNoPair;
    return row_begin(app) + static_cast<std::size_t>(it - row.begin());
  }

  void set_capacity(std::size_t server, std::size_t resource, double capacity);
  [[nodiscard]] double capacity(std::size_t server, std::size_t resource) const noexcept {
    return capacity_[server * num_resources_ + resource];
  }

  void set_activation_cost(std::size_t server, double cost);
  [[nodiscard]] double activation_cost(std::size_t server) const noexcept {
    return activation_cost_[server];
  }
  void set_initially_on(std::size_t server, bool on);
  [[nodiscard]] bool initially_on(std::size_t server) const noexcept {
    return initially_on_[server] != 0;
  }

 private:
  std::size_t num_apps_ = 0;
  std::size_t num_servers_ = 0;
  std::size_t num_resources_ = 1;
  // Pair storage. row_start_ holds the first pair of apps 0..size()-1 (the
  // apps a pair has been added for, and any skipped before them); rows of
  // later apps are empty and start at num_pairs().
  std::vector<std::size_t> row_start_;
  std::vector<std::uint32_t> server_;
  std::vector<double> cost_;
  std::vector<double> demand_;  // num_resources_ per pair
  std::vector<double> capacity_;
  std::vector<double> activation_cost_;
  std::vector<std::uint8_t> initially_on_;
};

/// How a solver call answered: the decomposition shape and the path that
/// solved each shard. Solvers fill this in on the solutions they return;
/// evaluate() leaves it zeroed (a hand-built solution has no solve path).
struct SolveStats {
  std::size_t components = 0;       // connected components (1 = monolithic)
  std::size_t exact_shards = 0;     // components solved by the MILP
  std::size_t heuristic_shards = 0; // components solved by greedy + local search
  std::size_t unplaceable_apps = 0; // apps with no feasible server at all
  std::size_t milp_nodes = 0;       // total B&B nodes across exact shards
  std::size_t settled_nodes = 0;    // B&B nodes a NodeCertifier closed without an LP
  std::size_t settled_shards = 0;   // components settled on every app's cheapest pair
                                    // without a solve; also counted in exact_shards
                                    // or heuristic_shards, as the solve would have
};

struct AssignmentSolution {
  bool feasible = false;
  std::vector<std::size_t> pairs;         // app -> its pair, kNoPair if unplaced
  std::vector<std::uint8_t> powered_on;   // final y_j
  double total_cost = 0.0;                // placement + activation of new servers
  std::size_t unassigned_count = 0;
  SolveStats stats;                       // telemetry; not part of the answer
};

/// The solution that places app i on server assignment[i] (kUnassigned, or
/// no entry: unplaced), with its cost, power states and feasibility. Throws
/// std::invalid_argument when an app names a server it has no pair with.
[[nodiscard]] AssignmentSolution evaluate(const AssignmentProblem& problem,
                                          const std::vector<std::size_t>& assignment);

/// evaluate() of each app's pair (kNoPair: unplaced), without a row search,
/// into `solution`'s vectors, with `load` as per server x resource scratch.
/// `pairs` must not alias solution.pairs. The stats are zeroed.
void evaluate_pairs(const AssignmentProblem& problem, std::span<const std::size_t> pairs,
                    AssignmentSolution& solution, std::vector<double>& load);

/// Check all Eq. 1-5 analogues: one entry per app, each pair in its own
/// app's row, capacities respected, power states consistent.
[[nodiscard]] bool validate(const AssignmentProblem& problem, const AssignmentSolution& solution,
                            double tol = 1e-6);

struct AssignmentOptions {
  MilpOptions milp;
  /// Use the exact MILP when num_apps*num_servers is at most this (testbed
  /// scale); larger instances take the greedy + local-search path.
  /// The limit applies per connected component, so large batches that
  /// decompose into testbed-scale shards still solve exactly. It compares
  /// the component's apps x servers, not its pair count.
  std::size_t exact_size_limit = 64;
};

/// Relocate/swap rounds every greedy answer gets: the heuristic path's and
/// the exact path's warm start alike.
inline constexpr std::size_t kLocalSearchRounds = 20;

/// Branch and bound on the Eq. 1-7 MILP, warm-started by greedy + local
/// search. The LP is always built. When the warm start passes it, the off
/// servers' activation costs are >= 0 and the sum of each app's cheapest
/// pair cost reaches the warm start's objective, NodeCertifier closes the
/// root without a simplex solve and the warm start is returned (milp_nodes
/// and settled_nodes 1). An app with no pair makes the whole problem
/// infeasible without building the LP.
[[nodiscard]] AssignmentSolution solve_exact(const AssignmentProblem& problem,
                                             const MilpOptions& options = {});

/// Regret greedy: each round places the unplaced app with the largest gap
/// between its cheapest and second-cheapest fitting option (ties go to the
/// costlier cheapest option), until none can be placed. Each app's options
/// are cached; a commit on server j revisits only the apps with a pair on j,
/// and rescans such an app's row only when the commit can change its two
/// cheapest fitting costs: j was off (its activation cost just dropped out),
/// or the app's pair on j stopped fitting while it was among them (and
/// fitted before the commit, when j was on and the demands are >= 0). A
/// round costs one pass over the cached options plus j's column and rows.
[[nodiscard]] AssignmentSolution solve_greedy(const AssignmentProblem& problem);

/// Relocate/swap improvement of solution.pairs; returns the number of
/// improving moves applied. `solution` is re-evaluated even when none
/// applies; its stats are kept. Throws std::invalid_argument unless
/// solution.pairs has one entry per app, each kNoPair or in its app's row.
std::size_t improve_local_search(const AssignmentProblem& problem, AssignmentSolution& solution,
                                 std::size_t max_rounds = kLocalSearchRounds);

/// Pick a path for one (assumed connected) instance without decomposing:
/// greedy + local search, run once, and the exact MILP warm-started by it
/// when within exact_size_limit. The heuristic answer stands whenever the
/// MILP returns no feasible one.
[[nodiscard]] AssignmentSolution solve_unsharded(const AssignmentProblem& problem,
                                                 const AssignmentOptions& options = {});

}  // namespace carbonedge::solver
