#include "solver/decompose.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace carbonedge::solver {

namespace {

// Union-find with path halving over a caller's buffer; unions keep the
// smaller root, so component representatives (and therefore component
// order) are input-deterministic.
class UnionFind {
 public:
  UnionFind(std::vector<std::size_t>& parent, std::size_t n) : parent_(parent) {
    parent_.resize(n);
    std::iota(parent_.begin(), parent_.end(), std::size_t{0});
  }

  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  void unite(std::size_t a, std::size_t b) {
    a = find(a);
    b = find(b);
    if (a != b) parent_[std::max(a, b)] = std::min(a, b);
  }

 private:
  std::vector<std::size_t>& parent_;
};

/// local_server_index into `local`, reusing its storage.
void fill_local_server_index(std::size_t num_servers, std::span<const Component> components,
                             std::vector<std::size_t>& local) {
  local.assign(num_servers, kUnassigned);
  for (const Component& component : components) {
    for (std::size_t jj = 0; jj < component.servers.size(); ++jj) {
      local[component.servers[jj]] = jj;
    }
  }
}

}  // namespace

std::vector<Component> connected_components(const AssignmentProblem& problem) {
  ShardWorkspace workspace;
  const std::size_t count = connected_components(problem, workspace).size();
  workspace.components.resize(count);
  return std::move(workspace.components);
}

std::span<const Component> connected_components(const AssignmentProblem& problem,
                                                ShardWorkspace& workspace) {
  const std::size_t apps = problem.num_apps();
  const std::size_t servers = problem.num_servers();
  // The union-find walks the pair rows (short under banded geographies),
  // apps ascending and servers ascending within a row.
  UnionFind uf(workspace.parent, apps + servers);
  std::vector<std::uint8_t>& server_used = workspace.server_used;
  server_used.assign(servers, 0);
  for (std::size_t i = 0; i < apps; ++i) {
    for (const std::uint32_t j : problem.row_servers(i)) {
      uf.unite(i, apps + j);
      server_used[j] = 1;
    }
  }

  // Bucket members by root. Every component contains an app, so scanning
  // apps in index order discovers every component exactly once and fixes
  // the "ordered by smallest app index" contract. A component takes the
  // next slot, emptied but keeping its storage.
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<std::size_t>& component_of_root = workspace.component_of_root;
  component_of_root.assign(apps + servers, kNone);
  std::vector<Component>& components = workspace.components;
  std::size_t count = 0;
  for (std::size_t i = 0; i < apps; ++i) {
    const std::size_t root = uf.find(i);
    if (component_of_root[root] == kNone) {
      component_of_root[root] = count;
      if (count == components.size()) components.emplace_back();
      components[count].apps.clear();
      components[count].servers.clear();
      ++count;
    }
    components[component_of_root[root]].apps.push_back(i);
  }
  for (std::size_t j = 0; j < servers; ++j) {
    if (!server_used[j]) continue;
    components[component_of_root[uf.find(apps + j)]].servers.push_back(j);
  }
  return std::span<const Component>(components).first(count);
}

std::vector<std::size_t> local_server_index(std::size_t num_servers,
                                            std::span<const Component> components) {
  std::vector<std::size_t> local;
  fill_local_server_index(num_servers, components, local);
  return local;
}

AssignmentProblem extract_component(const AssignmentProblem& problem, const Component& component,
                                    std::span<const std::size_t> local) {
  const std::size_t resources = problem.num_resources();
  AssignmentProblem sub(component.apps.size(), component.servers.size(), resources);
  for (std::size_t jj = 0; jj < component.servers.size(); ++jj) {
    const std::size_t j = component.servers[jj];
    for (std::size_t k = 0; k < resources; ++k) sub.set_capacity(jj, k, problem.capacity(j, k));
    sub.set_activation_cost(jj, problem.activation_cost(j));
    sub.set_initially_on(jj, problem.initially_on(j));
  }
  std::size_t pairs = 0;
  for (const std::size_t i : component.apps) pairs += problem.row_end(i) - problem.row_begin(i);
  sub.reserve(pairs);
  // Every pair of a member app lands on a member server, and local indices
  // ascend with the parent's, so each copied row stays ascending.
  for (std::size_t ii = 0; ii < component.apps.size(); ++ii) {
    sub.append_row(ii, problem, component.apps[ii], local);
  }
  return sub;
}

namespace {

// The settle certificate's bounds (see settle_component).
constexpr double kSettleHeadroom = 1e-7;    // capacity kept free, times max(1, |capacity|)
constexpr double kSettleCostBound = 65536.0;  // 2^16
constexpr std::size_t kSettleMaxApps = std::size_t{1} << 20;

/// Settle `component` without a solve when every app's cheapest pair fits:
/// place each app on the server of its first least-cost pair p*, add the
/// stats the full path would report to `stats`, and return true. Returns
/// false, with `stats` unchanged, when a condition fails; the caller then
/// overwrites the component's `assignment` entries. `load` (server x
/// resource, zero on the component's servers) is scratch; components are
/// server-disjoint, so one array serves a whole solve.
///
/// The conditions make solve_unsharded return exactly p*, bit for bit:
///  - greedy: each p*'s server is on or activates for exactly 0, and every
///    activation cost is finite and >= 0, so no pair's effective cost beats
///    p*'s and none earlier in the row ties it. p* demands are >= 0 and each
///    server keeps kSettleHeadroom * max(1, |capacity|) free, far more than
///    the rounding of greedy's sequential `remaining -= d` over at most
///    kSettleMaxApps commits, so every p* still fits in any regret order;
///  - local search: a relocate's delta (c - c*) + activation is >= 0 in
///    floating point, and with |c| <= 2^16 a swap's computed delta, whose
///    true value is >= 0, is off by under 1e-10, so no move beats -1e-9;
///  - exact path: validate and the LP's capacity rows sum the p* demands in
///    app order, as `load` does, and stay within capacity, so the warm start
///    is the incumbent; the row-minimum bound then adds the same costs, so
///    NodeCertifier settles the root whenever the node budget lets it run.
bool settle_component(const AssignmentProblem& problem, const Component& component,
                      const AssignmentOptions& options, std::vector<double>& load,
                      std::vector<std::size_t>& assignment, SolveStats& stats) {
  const bool exact =
      component.apps.size() * component.servers.size() <= options.exact_size_limit;
  if (exact && options.milp.max_nodes < 1) return false;  // the root would not run
  if (component.apps.size() > kSettleMaxApps) return false;
  const std::size_t resources = problem.num_resources();
  for (const std::size_t i : component.apps) {
    std::size_t best = problem.row_begin(i);
    for (std::size_t p = best; p < problem.row_end(i); ++p) {
      if (!(std::abs(problem.cost(p)) <= kSettleCostBound)) return false;
      if (problem.cost(p) < problem.cost(best)) best = p;
    }
    const std::size_t j = problem.server(best);
    if (!problem.initially_on(j) && problem.activation_cost(j) != 0.0) return false;
    assignment[i] = j;
    for (std::size_t k = 0; k < resources; ++k) {
      const double demand = problem.demand(best, k);
      if (!(demand >= 0.0)) return false;
      load[j * resources + k] += demand;
    }
  }
  for (const std::size_t j : component.servers) {
    const double activation = problem.activation_cost(j);
    if (!(std::isfinite(activation) && activation >= 0.0)) return false;
    for (std::size_t k = 0; k < resources; ++k) {
      const double capacity = problem.capacity(j, k);
      const double headroom = kSettleHeadroom * std::max(1.0, std::abs(capacity));
      if (!(load[j * resources + k] <= capacity - headroom)) return false;
    }
  }
  ++stats.settled_shards;
  if (exact) {
    ++stats.exact_shards;
    ++stats.milp_nodes;
    ++stats.settled_nodes;
  } else {
    ++stats.heuristic_shards;
  }
  return true;
}

}  // namespace

AssignmentSolution solve_sharded(const AssignmentProblem& problem,
                                 const AssignmentOptions& options) {
  ShardWorkspace workspace;
  AssignmentSolution solution;
  solve_sharded(problem, options, workspace, solution);
  return solution;
}

void solve_sharded(const AssignmentProblem& problem, const AssignmentOptions& options,
                   ShardWorkspace& workspace, AssignmentSolution& solution) {
  const std::span<const Component> components = connected_components(problem, workspace);
  // One component holding every app and server needs no extraction copy:
  // unless it settles, it goes to solve_unsharded whole.
  const bool whole = components.size() == 1 &&
                     components.front().apps.size() == problem.num_apps() &&
                     components.front().servers.size() == problem.num_servers();

  // Components are settled or solved in index order; a solved one extracts
  // its sub-problem through the shared index, built on first use, and its
  // answer is stitched back at once.
  bool local_built = false;
  std::vector<double>& load = workspace.load;
  load.assign(problem.num_servers() * problem.num_resources(), 0.0);
  std::vector<std::size_t>& assignment = workspace.assignment;
  assignment.assign(problem.num_apps(), kUnassigned);
  SolveStats stats;
  stats.components = components.size();
  for (const Component& component : components) {
    if (component.servers.empty()) {
      stats.unplaceable_apps += component.apps.size();  // they stay kUnassigned
      continue;
    }
    if (settle_component(problem, component, options, load, assignment, stats)) continue;
    if (whole) {
      solution = solve_unsharded(problem, options);
      return;
    }
    if (!local_built) {
      fill_local_server_index(problem.num_servers(), components, workspace.local);
      local_built = true;
    }
    const AssignmentSolution sub =
        solve_unsharded(extract_component(problem, component, workspace.local), options);
    for (std::size_t k = 0; k < component.apps.size(); ++k) {
      const std::size_t jj = sub.assignment[k];
      assignment[component.apps[k]] = jj == kUnassigned ? kUnassigned : component.servers[jj];
    }
    stats.exact_shards += sub.stats.exact_shards;
    stats.heuristic_shards += sub.stats.heuristic_shards;
    stats.unplaceable_apps += sub.stats.unplaceable_apps;
    stats.milp_nodes += sub.stats.milp_nodes;
    stats.settled_nodes += sub.stats.settled_nodes;
  }

  // Components are server-disjoint, so re-evaluating the stitched assignment
  // against the parent problem reproduces the sum of the sub-costs
  // (placement plus activation) exactly. The settle loads are spent, so
  // their buffer is the feasibility check's scratch.
  evaluate(problem, assignment, solution, load);
  solution.stats = stats;
}

}  // namespace carbonedge::solver
