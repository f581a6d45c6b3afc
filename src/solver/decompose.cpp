#include "solver/decompose.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace carbonedge::solver {

namespace {

// Registry mirrors of SolveStats, aggregated at the solve_auto entry (the
// path every placement goes through). All integer counts of deterministic
// solver decisions, so deterministic view even when solves run on worker
// lanes. The size histogram observes integer values only — its sum stays
// exact and commutative, hence thread-count independent.
struct SolverMetrics {
  obs::Counter& solves;
  obs::Counter& components;
  obs::Counter& exact_shards;
  obs::Counter& heuristic_shards;
  obs::Counter& unplaceable_apps;
  obs::Counter& milp_nodes;
  obs::Counter& milp_settled_nodes;
  obs::Counter& settled_shards;
  obs::Histogram& problem_apps;
};

SolverMetrics& solver_metrics() {
  obs::Registry& registry = obs::Registry::global();
  static SolverMetrics metrics{
      registry.counter("solver.solves", "assignment problems solved (solve_auto entries)",
                       obs::View::kDeterministic),
      registry.counter("solver.components", "connected components across all solves",
                       obs::View::kDeterministic),
      registry.counter("solver.exact_shards", "components solved by the MILP",
                       obs::View::kDeterministic),
      registry.counter("solver.heuristic_shards",
                       "components solved by greedy + local search",
                       obs::View::kDeterministic),
      registry.counter("solver.unplaceable_apps", "apps with no feasible server at all",
                       obs::View::kDeterministic),
      registry.counter("solver.milp_nodes", "B&B nodes explored across exact shards",
                       obs::View::kDeterministic),
      registry.counter("solver.milp_settled_nodes",
                       "B&B nodes settled by a certificate without an LP",
                       obs::View::kDeterministic),
      registry.counter("solver.settled_shards",
                       "components settled on every app's cheapest pair without a solve",
                       obs::View::kDeterministic),
      registry.histogram("solver.problem_apps", "apps per solved assignment problem",
                         obs::View::kDeterministic,
                         {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0,
                          4096.0})};
  return metrics;
}

obs::Phase& solve_phase() {
  static obs::Phase phase("solver.solve");
  return phase;
}

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

}  // namespace

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

namespace {

// The settle certificate's bounds (see settle_component).
constexpr double kSettleHeadroom = 1e-7;    // capacity kept free, times max(1, |capacity|)
constexpr double kSettleCostBound = 65536.0;  // 2^16
constexpr std::size_t kSettleMaxApps = std::size_t{1} << 20;

/// Settle `component` without a solve when every app's cheapest pair fits:
/// place each app on its first least-cost pair p*, add the stats the full
/// path would report to `stats`, and return true. Returns false, with
/// `stats` unchanged, when a condition fails; the caller then overwrites
/// the component's `pairs` entries. `load` (server x
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
                      std::vector<std::size_t>& pairs, SolveStats& stats) {
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
    pairs[i] = best;
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

void solve_auto(const AssignmentProblem& problem, const AssignmentOptions& options,
                ShardWorkspace& workspace, AssignmentSolution& solution) {
  const obs::Span span(solve_phase());
  const std::span<const Component> components = connected_components(problem, workspace);

  // Components are settled or solved in index order, each writing its apps'
  // pairs into the stitched answer.
  std::vector<double>& load = workspace.load;
  load.assign(problem.num_servers() * problem.num_resources(), 0.0);
  std::vector<std::size_t>& pairs = workspace.pairs;
  pairs.assign(problem.num_apps(), kNoPair);
  SolveStats stats;
  stats.components = components.size();
  for (const Component& component : components) {
    if (component.servers.empty()) {
      stats.unplaceable_apps += component.apps.size();  // they stay unplaced
      continue;
    }
    if (settle_component(problem, component, options, load, pairs, stats)) continue;
    const SolveStats shard = solve_component(problem, component, options, workspace);
    stats.exact_shards += shard.exact_shards;
    stats.heuristic_shards += shard.heuristic_shards;
    stats.unplaceable_apps += shard.unplaceable_apps;
    stats.milp_nodes += shard.milp_nodes;
    stats.settled_nodes += shard.settled_nodes;
  }

  // Components are server-disjoint, so evaluating the stitched pairs against
  // the parent problem reproduces the sum of the shard costs (placement plus
  // activation) exactly. The settle loads are spent, so their buffer is the
  // feasibility check's scratch.
  evaluate_pairs(problem, pairs, solution, load);
  solution.stats = stats;

  SolverMetrics& metrics = solver_metrics();
  metrics.solves.add();
  metrics.components.add(stats.components);
  metrics.exact_shards.add(stats.exact_shards);
  metrics.heuristic_shards.add(stats.heuristic_shards);
  metrics.unplaceable_apps.add(stats.unplaceable_apps);
  metrics.milp_nodes.add(stats.milp_nodes);
  metrics.milp_settled_nodes.add(stats.settled_nodes);
  metrics.settled_shards.add(stats.settled_shards);
  metrics.problem_apps.observe(static_cast<double>(problem.num_apps()));
}

}  // namespace carbonedge::solver
