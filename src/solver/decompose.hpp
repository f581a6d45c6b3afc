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
// exactly. Components are solved one after another on the calling thread
// (parallelism belongs to runner::ScenarioRunner's cells), and solve_auto
// applies exact_size_limit per component, so batches that were
// heuristic-only as monoliths become exactly solvable shard by shard.
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

/// Solve by decomposition: one local_server_index is built per solve, then
/// each component, in order, is extracted from it, goes through
/// solve_unsharded (exact_size_limit applies per component) and is stitched
/// back. Exact whenever every component is solved exactly; the returned
/// stats report the decomposition shape and per-shard paths.
[[nodiscard]] AssignmentSolution solve_sharded(const AssignmentProblem& problem,
                                               const AssignmentOptions& options = {});

}  // namespace carbonedge::solver
