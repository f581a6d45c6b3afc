// Placement-instance sharding: connected-component decomposition of the
// feasible-pair bipartite graph, and solve_auto, the one sharded solve.
//
// Eq. 2 latency pre-filtering makes real placement batches block-diagonal:
// an application in one metro cannot land on another metro's servers, so
// the AssignmentProblem almost always splits into independent components
// (union-find over apps ∪ servers joined by feasible pairs). Costs,
// demands, capacities, and activation costs never couple two components —
// every server belongs to at most one — so solving each component
// separately and stitching the sub-solutions back is exact: the stitched
// cost equals the monolithic optimum whenever every component is solved
// exactly. solve_auto takes the components one after another on the
// calling thread (parallelism belongs to runner::ScenarioRunner's cells)
// and applies exact_size_limit per component, so batches that were
// heuristic-only as monoliths become exactly solvable shard by shard.
//
// Most shards are uncontended: every app's first cheapest pair fits on its
// server with room to spare. Such a component settles on those pairs, read
// straight from the parent's rows; greedy, local search and the exact path
// would all return exactly that answer, so nothing is solved and the stats
// are the ones the solve would have reported (solver.settled_shards counts
// these components). Every other component is solved in place on the
// parent's rows (solve_component): nothing is copied out, and each app's
// answer is its pair, so the stitched answer needs no row search.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "solver/assignment.hpp"

namespace carbonedge::solver {

/// One connected component of the feasible-pair graph: parent-problem app
/// and server indices, each in increasing order (a shard solve walks them
/// in this order, so per-component solves are deterministic).
struct Component {
  std::vector<std::size_t> apps;
  std::vector<std::size_t> servers;
};

/// The buffers one caller's solves reuse, reset in place by each solve:
/// the decomposition's and every contended component's solve buffers.
/// Buffers indexed by app or server span the whole problem, and a
/// component's solve touches only its own entries. Owned by one serial
/// caller (a PlacementService holds one) and never shared between threads;
/// nothing in it outlives a solve except storage.
struct ShardWorkspace {
  // Greedy's cache for one unplaced app: its two cheapest effective costs
  // over the pairs that still fit, and the pair of the cheapest.
  struct GreedyOption { double best, second; std::size_t best_pair; };
  // Greedy's pick key for one unplaced app that can still be placed.
  struct GreedyKey { double regret, best; std::size_t app; };

  std::vector<std::size_t> parent;             // union-find over apps ∪ servers
  std::vector<std::uint8_t> server_used;
  std::vector<std::size_t> component_of_root;
  std::vector<Component> components;           // slots; a solve uses a prefix
  // Server x resource: the settle certificate's sums, a solved component's
  // local-search loads, and the stitched answer's feasibility scratch.
  std::vector<double> load;
  std::vector<std::size_t> pairs;              // app -> pair (kNoPair: unplaced)
  // Server j's (app, pair) entries: column[column_begin[j] .. column_end[j]).
  std::vector<std::size_t> column_begin;
  std::vector<std::size_t> column_end;
  std::vector<std::pair<std::size_t, std::size_t>> column;
  std::vector<double> remaining;               // greedy: server x resource
  std::vector<double> remaining_before;        // greedy: one server's, before a commit
  std::vector<std::uint8_t> planned_on;
  std::vector<GreedyOption> option;
  std::vector<GreedyKey> pick_heap;            // greedy: binary max-heap of pick keys
  std::vector<std::size_t> heap_slot;          // greedy: app -> its pick_heap index
  std::vector<std::size_t> count;              // local search: apps per server
  std::vector<std::size_t> pair_on;            // local search: one app's pair per server
  std::vector<std::size_t> first_var;          // exact path: LP variable of an app's first pair
  std::vector<int> y_var;                      // exact path: y_j's LP variable, or -1
  std::vector<std::size_t> exact_pairs;        // exact path: its answer, app -> pair
};

/// Connected components, ordered by smallest app index, as a view of
/// workspace.components valid until its next use. Every component has at
/// least one app; an app with no feasible server forms an app-only
/// singleton (empty server list). Servers with no feasible app belong to no
/// component — they cannot receive load and keep their initial power state.
std::span<const Component> connected_components(const AssignmentProblem& problem,
                                                ShardWorkspace& workspace);

/// Solve `component` of `problem` in place, as solve_unsharded solves the
/// component's own sub-problem: greedy + local search, and within
/// exact_size_limit the exact path warm-started by them. Writes each member
/// app's pair (kNoPair when unplaced) into workspace.pairs and returns the
/// component's stats.
SolveStats solve_component(const AssignmentProblem& problem, const Component& component,
                           const AssignmentOptions& options, ShardWorkspace& workspace);

/// Solve by decomposition, component by component in order, into
/// `solution`, with every buffer taken from `workspace` and reset in place;
/// records the solve in the solver.* metrics under the solver.solve span.
/// A component settles on every app's first least-cost pair when
///  - each such pair's server is on or activates for exactly 0, and every
///    server of the component has a finite activation cost >= 0;
///  - the chosen demands are >= 0 and, summed per server and resource, stay
///    at least 1e-7 * max(1, |capacity|) below capacity;
///  - every cost has |c| <= 2^16, the component has at most 2^20 apps, and,
///    within exact_size_limit, the MILP's node budget lets the root run
///    (max_nodes >= 1).
/// It then reports one exact shard settled at its root (milp_nodes and
/// settled_nodes 1) within exact_size_limit, else one heuristic shard,
/// plus settled_shards 1. Any other component goes through
/// solve_component, which writes its pairs straight into the stitched
/// answer. Exact whenever every component is solved exactly; the solution's
/// stats report the decomposition shape and per-shard paths.
void solve_auto(const AssignmentProblem& problem, const AssignmentOptions& options,
                ShardWorkspace& workspace, AssignmentSolution& solution);

}  // namespace carbonedge::solver
