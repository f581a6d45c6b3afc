// Placement-instance sharding: connected-component decomposition of the
// feasible-pair bipartite graph.
//
// Eq. 2 latency pre-filtering makes real placement batches block-diagonal:
// an application in one metro cannot land on another metro's servers, so
// the AssignmentProblem almost always splits into independent components
// (union-find over apps ∪ servers joined by feasible pairs). Costs,
// demands, capacities, and activation costs never couple two components —
// every server belongs to at most one — so solving each component
// separately and stitching the sub-solutions back is exact: the stitched
// cost equals the monolithic optimum whenever every component is solved
// exactly. Components are taken one after another on the calling thread
// (parallelism belongs to runner::ScenarioRunner's cells), and solve_auto
// applies exact_size_limit per component, so batches that were
// heuristic-only as monoliths become exactly solvable shard by shard.
//
// Most shards are uncontended: every app's first cheapest pair fits on its
// server with room to spare. Such a component settles on those pairs, read
// straight from the parent's rows, before any extraction; greedy, local
// search and the exact path's root bound would all return exactly that
// answer, so nothing is solved and the stats are the ones the solve would
// have reported (solver.settled_shards counts these components).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "solver/assignment.hpp"

namespace carbonedge::solver {

/// One connected component of the feasible-pair graph: parent-problem app
/// and server indices, each in increasing order (extraction preserves
/// relative order, so per-component solves are deterministic).
struct Component {
  std::vector<std::size_t> apps;
  std::vector<std::size_t> servers;
};

/// Connected components, ordered by smallest app index. Every component has
/// at least one app; an app with no feasible server forms an app-only
/// singleton (empty server list). Servers with no feasible app belong to no
/// component — they cannot receive load and keep their initial power state.
[[nodiscard]] std::vector<Component> connected_components(const AssignmentProblem& problem);

/// Every component server's position in its component's server list,
/// indexed by parent-problem server (`num_servers` entries); servers in no
/// component map to kUnassigned. Components are server-disjoint, so one
/// array indexes them all.
[[nodiscard]] std::vector<std::size_t> local_server_index(std::size_t num_servers,
                                                          std::span<const Component> components);

/// The sub-problem induced by `component`: row/column `k` of the result is
/// app `component.apps[k]` / server `component.servers[k]` of `problem`.
/// `local` is local_server_index over a component list that contains
/// `component`: the sub-problem's pair storage is sized exactly, then each
/// member app's row is copied in bulk by AssignmentProblem::append_row, one
/// read of `local` per pair.
[[nodiscard]] AssignmentProblem extract_component(const AssignmentProblem& problem,
                                                  const Component& component,
                                                  std::span<const std::size_t> local);

/// Solve by decomposition, component by component in order. A component
/// settles on every app's first least-cost pair when
///  - each such pair's server is on or activates for exactly 0, and every
///    server of the component has a finite activation cost >= 0;
///  - the chosen demands are >= 0 and, summed per server and resource, stay
///    at least 1e-7 * max(1, |capacity|) below capacity;
///  - every cost has |c| <= 2^16, the component has at most 2^20 apps, and,
///    within exact_size_limit, the MILP's node budget lets the root run
///    (max_nodes >= 1).
/// It then reports one exact shard settled at its root (milp_nodes and
/// settled_nodes 1) within exact_size_limit, else one heuristic shard,
/// plus settled_shards 1. Any other component is extracted through one
/// local_server_index (built on first use), goes through solve_unsharded
/// (exact_size_limit applies per component) and is stitched back; a
/// component spanning the whole problem goes to solve_unsharded without
/// extraction. Exact whenever every component is solved exactly; the
/// returned stats report the decomposition shape and per-shard paths.
[[nodiscard]] AssignmentSolution solve_sharded(const AssignmentProblem& problem,
                                               const AssignmentOptions& options = {});

}  // namespace carbonedge::solver
