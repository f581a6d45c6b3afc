#include "solver/decompose.hpp"

#include <algorithm>
#include <numeric>

namespace carbonedge::solver {

namespace {

// Union-find with path halving; unions keep the smaller root, so component
// representatives (and therefore component order) are input-deterministic.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
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
  std::vector<std::size_t> parent_;
};

}  // namespace

std::vector<Component> connected_components(const AssignmentProblem& problem) {
  const std::size_t apps = problem.num_apps();
  const std::size_t servers = problem.num_servers();
  // The union-find walks the pair rows (short under banded geographies),
  // apps ascending and servers ascending within a row.
  UnionFind uf(apps + servers);
  std::vector<std::uint8_t> server_used(servers, 0);
  for (std::size_t i = 0; i < apps; ++i) {
    for (const std::uint32_t j : problem.row_servers(i)) {
      uf.unite(i, apps + j);
      server_used[j] = 1;
    }
  }

  // Bucket members by root. Every component contains an app, so scanning
  // apps in index order discovers every component exactly once and fixes
  // the "ordered by smallest app index" contract.
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<std::size_t> component_of_root(apps + servers, kNone);
  std::vector<Component> components;
  for (std::size_t i = 0; i < apps; ++i) {
    const std::size_t root = uf.find(i);
    if (component_of_root[root] == kNone) {
      component_of_root[root] = components.size();
      components.emplace_back();
    }
    components[component_of_root[root]].apps.push_back(i);
  }
  for (std::size_t j = 0; j < servers; ++j) {
    if (!server_used[j]) continue;
    components[component_of_root[uf.find(apps + j)]].servers.push_back(j);
  }
  return components;
}

std::vector<std::size_t> local_server_index(std::size_t num_servers,
                                            std::span<const Component> components) {
  std::vector<std::size_t> local(num_servers, kUnassigned);
  for (const Component& component : components) {
    for (std::size_t jj = 0; jj < component.servers.size(); ++jj) {
      local[component.servers[jj]] = jj;
    }
  }
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

AssignmentSolution solve_sharded(const AssignmentProblem& problem,
                                 const AssignmentOptions& options) {
  const std::vector<Component> components = connected_components(problem);
  if (components.size() == 1 && components.front().apps.size() == problem.num_apps() &&
      components.front().servers.size() == problem.num_servers()) {
    // Nothing to shard and nothing to drop: skip the extraction copy.
    return solve_unsharded(problem, options);
  }

  // Components are solved in index order; each extracts its sub-problem
  // through the shared index, and its answer is stitched back at once.
  const std::vector<std::size_t> local = local_server_index(problem.num_servers(), components);
  std::vector<std::size_t> assignment(problem.num_apps(), kUnassigned);
  SolveStats stats;
  stats.components = components.size();
  for (const Component& component : components) {
    if (component.servers.empty()) {
      stats.unplaceable_apps += component.apps.size();  // they stay kUnassigned
      continue;
    }
    const AssignmentSolution sub =
        solve_unsharded(extract_component(problem, component, local), options);
    for (std::size_t k = 0; k < component.apps.size(); ++k) {
      const std::size_t jj = sub.assignment[k];
      if (jj != kUnassigned) assignment[component.apps[k]] = component.servers[jj];
    }
    stats.exact_shards += sub.stats.exact_shards;
    stats.heuristic_shards += sub.stats.heuristic_shards;
    stats.unplaceable_apps += sub.stats.unplaceable_apps;
    stats.milp_nodes += sub.stats.milp_nodes;
    stats.root_bound_shards += sub.stats.root_bound_shards;
    stats.settled_nodes += sub.stats.settled_nodes;
  }

  // Components are server-disjoint, so re-evaluating the stitched assignment
  // against the parent problem reproduces the sum of the sub-costs
  // (placement plus activation) exactly.
  AssignmentSolution result = evaluate(problem, assignment);
  result.stats = stats;
  return result;
}

}  // namespace carbonedge::solver
