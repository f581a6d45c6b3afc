#include "solver/assignment.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "solver/decompose.hpp"
#include "solver/lp.hpp"

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

obs::Phase& milp_phase() {
  static obs::Phase phase("solver.milp");
  return phase;
}

/// The pairs regrouped by server: of(j) lists server j's (app, pair)
/// entries, apps ascending.
class ServerColumns {
 public:
  using Entry = std::pair<std::size_t, std::size_t>;

  explicit ServerColumns(const AssignmentProblem& problem)
      : start_(problem.num_servers() + 1, 0), entries_(problem.num_pairs()) {
    for (std::size_t p = 0; p < problem.num_pairs(); ++p) ++start_[problem.server(p) + 1];
    for (std::size_t j = 0; j < problem.num_servers(); ++j) start_[j + 1] += start_[j];
    std::vector<std::size_t> fill(start_.begin(), start_.end() - 1);
    for (std::size_t i = 0; i < problem.num_apps(); ++i) {
      for (std::size_t p = problem.row_begin(i); p < problem.row_end(i); ++p) {
        entries_[fill[problem.server(p)]++] = {i, p};
      }
    }
  }

  [[nodiscard]] std::span<const Entry> of(std::size_t server) const noexcept {
    return std::span<const Entry>(entries_).subspan(start_[server],
                                                    start_[server + 1] - start_[server]);
  }

 private:
  std::vector<std::size_t> start_;
  std::vector<Entry> entries_;
};

// The solvers over a prebuilt ServerColumns, so one shard builds it once.
// solve_exact's `warm` is solve_heuristic's answer on the same problem.
AssignmentSolution solve_exact(const AssignmentProblem& problem, const ServerColumns& columns,
                               const MilpOptions& options, const AssignmentSolution& warm);
AssignmentSolution solve_greedy(const AssignmentProblem& problem, const ServerColumns& columns);
std::size_t improve_local_search(const AssignmentProblem& problem, const ServerColumns& columns,
                                 AssignmentSolution& solution, std::size_t max_rounds);

/// Greedy + local search: the heuristic path's answer and the exact path's
/// warm start. Its stats report one heuristic shard.
AssignmentSolution solve_heuristic(const AssignmentProblem& problem, const ServerColumns& columns) {
  AssignmentSolution solution = solve_greedy(problem, columns);
  improve_local_search(problem, columns, solution, kLocalSearchRounds);
  return solution;
}

}  // namespace

AssignmentProblem::AssignmentProblem(std::size_t num_apps, std::size_t num_servers,
                                     std::size_t num_resources)
    : num_apps_(num_apps),
      num_servers_(num_servers),
      num_resources_(num_resources == 0 ? 1 : num_resources),
      capacity_(num_servers * num_resources_, 0.0),
      activation_cost_(num_servers, 0.0),
      initially_on_(num_servers, 1) {}

void AssignmentProblem::add_pair(std::size_t app, std::size_t server, double cost,
                                 std::span<const double> demand) {
  if (app >= num_apps_ || server >= num_servers_) {
    throw std::invalid_argument("add_pair: app or server out of range");
  }
  if (!std::isfinite(cost)) throw std::invalid_argument("add_pair: cost must be finite");
  if (demand.size() != num_resources_) {
    throw std::invalid_argument("add_pair: need one demand per resource");
  }
  // row_start_.size() - 1 is the app the last pair was added for.
  if (app + 1 < row_start_.size() ||
      (app + 1 == row_start_.size() && server <= server_.back())) {
    throw std::invalid_argument("add_pair: pairs must arrive in ascending (app, server) order");
  }
  while (row_start_.size() <= app) row_start_.push_back(num_pairs());
  server_.push_back(static_cast<std::uint32_t>(server));
  cost_.push_back(cost);
  demand_.insert(demand_.end(), demand.begin(), demand.end());
}

void AssignmentProblem::append_row(std::size_t app, const AssignmentProblem& parent,
                                   std::size_t parent_app, std::span<const std::size_t> local) {
  if (app >= num_apps_ || parent.num_resources_ != num_resources_ ||
      local.size() < parent.num_servers_) {
    throw std::invalid_argument("append_row: app out of range, or parent and row do not match");
  }
  if (app < row_start_.size()) {
    throw std::invalid_argument("append_row: rows must arrive in ascending app order");
  }
  const std::size_t first = parent.row_begin(parent_app);
  const std::size_t last = parent.row_end(parent_app);
  if (first == last) return;
  const std::size_t begin = num_pairs();
  for (std::size_t p = first; p < last; ++p) {
    const std::size_t server = local[parent.server_[p]];
    if (server >= num_servers_ || (p > first && server <= server_.back())) {
      server_.resize(begin);
      throw std::invalid_argument("append_row: mapped servers must be in range and ascending");
    }
    server_.push_back(static_cast<std::uint32_t>(server));
  }
  row_start_.resize(app + 1, begin);
  const auto from = static_cast<std::ptrdiff_t>(first);
  const auto to = static_cast<std::ptrdiff_t>(last);
  cost_.insert(cost_.end(), parent.cost_.begin() + from, parent.cost_.begin() + to);
  demand_.insert(demand_.end(),
                 parent.demand_.begin() + from * static_cast<std::ptrdiff_t>(num_resources_),
                 parent.demand_.begin() + to * static_cast<std::ptrdiff_t>(num_resources_));
}

void AssignmentProblem::reserve(std::size_t pairs) {
  row_start_.reserve(num_apps_);
  server_.reserve(pairs);
  cost_.reserve(pairs);
  demand_.reserve(pairs * num_resources_);
}

void AssignmentProblem::set_capacity(std::size_t server, std::size_t resource, double capacity) {
  capacity_[server * num_resources_ + resource] = capacity;
}

void AssignmentProblem::set_activation_cost(std::size_t server, double cost) {
  activation_cost_[server] = cost;
}

void AssignmentProblem::set_initially_on(std::size_t server, bool on) {
  initially_on_[server] = on ? 1 : 0;
}

AssignmentSolution evaluate(const AssignmentProblem& problem,
                            const std::vector<std::size_t>& assignment) {
  AssignmentSolution solution;
  solution.assignment = assignment;
  solution.assignment.resize(problem.num_apps(), kUnassigned);
  solution.powered_on.assign(problem.num_servers(), 0);
  for (std::size_t j = 0; j < problem.num_servers(); ++j) {
    solution.powered_on[j] = problem.initially_on(j) ? 1 : 0;
  }
  double total = 0.0;
  solution.unassigned_count = 0;
  for (std::size_t i = 0; i < problem.num_apps(); ++i) {
    const std::size_t j = solution.assignment[i];
    if (j == kUnassigned) {
      ++solution.unassigned_count;
      continue;
    }
    const std::size_t p = problem.find_pair(i, j);
    if (p == kNoPair) continue;  // infeasible pair: validate() below rejects it
    total += problem.cost(p);
    if (!solution.powered_on[j]) {
      solution.powered_on[j] = 1;
      total += problem.activation_cost(j);
    }
  }
  solution.total_cost = total;
  solution.feasible = solution.unassigned_count == 0 && validate(problem, solution);
  return solution;
}

bool validate(const AssignmentProblem& problem, const AssignmentSolution& solution, double tol) {
  if (solution.assignment.size() != problem.num_apps()) return false;
  std::vector<double> load(problem.num_servers() * problem.num_resources(), 0.0);
  for (std::size_t i = 0; i < problem.num_apps(); ++i) {
    const std::size_t j = solution.assignment[i];
    if (j == kUnassigned) continue;
    const std::size_t p = problem.find_pair(i, j);
    if (p == kNoPair) return false;  // Eq. 2 (latency) or out-of-range server
    if (!solution.powered_on.empty() && !solution.powered_on[j]) return false;  // Eq. 5
    for (std::size_t k = 0; k < problem.num_resources(); ++k) {
      load[j * problem.num_resources() + k] += problem.demand(p, k);
    }
  }
  for (std::size_t j = 0; j < problem.num_servers(); ++j) {
    // Eq. 4: initially-on servers stay on.
    if (!solution.powered_on.empty() && problem.initially_on(j) && !solution.powered_on[j]) {
      return false;
    }
    for (std::size_t k = 0; k < problem.num_resources(); ++k) {
      if (load[j * problem.num_resources() + k] > problem.capacity(j, k) + tol) {
        return false;  // Eq. 1
      }
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Exact MILP path
// ---------------------------------------------------------------------------

AssignmentSolution solve_exact(const AssignmentProblem& problem, const MilpOptions& options) {
  const ServerColumns columns(problem);
  return solve_exact(problem, columns, options, solve_heuristic(problem, columns));
}

namespace {

AssignmentSolution solve_exact(const AssignmentProblem& problem, const ServerColumns& columns,
                               const MilpOptions& options, const AssignmentSolution& warm) {
  const obs::Span span(milp_phase());
  const std::size_t apps = problem.num_apps();
  const std::size_t servers = problem.num_servers();
  const std::size_t pairs = problem.num_pairs();

  for (std::size_t i = 0; i < apps; ++i) {
    if (problem.row_begin(i) != problem.row_end(i)) continue;
    AssignmentSolution infeasible;
    infeasible.assignment.assign(apps, kUnassigned);
    infeasible.unassigned_count = apps;
    // No shard was actually solved (the MILP was never built), so
    // exact_shards stays 0. This monolithic path reports one component
    // regardless of how many apps are unplaceable; only the sharded path
    // isolates each unplaceable app as its own singleton component.
    infeasible.stats.components = 1;
    for (std::size_t a = 0; a < apps; ++a) {
      if (problem.row_begin(a) == problem.row_end(a)) ++infeasible.stats.unplaceable_apps;
    }
    return infeasible;  // some app has no feasible server at all
  }

  LinearProgram lp;
  std::vector<int> integer_vars;
  // Variables: x_p for pair p is LP variable p; then y_j for each
  // initially-off server with at least one pair.
  for (std::size_t p = 0; p < pairs; ++p) {
    integer_vars.push_back(lp.add_variable(problem.cost(p), 0.0, 1.0));
  }
  std::vector<int> y_var(servers, -1);
  for (std::size_t j = 0; j < servers; ++j) {
    if (problem.initially_on(j) || columns.of(j).empty()) continue;
    y_var[j] = lp.add_variable(problem.activation_cost(j), 0.0, 1.0);
    integer_vars.push_back(y_var[j]);
  }

  // Eq. 3: each app placed exactly once.
  for (std::size_t i = 0; i < apps; ++i) {
    std::vector<std::pair<int, double>> terms;
    for (std::size_t p = problem.row_begin(i); p < problem.row_end(i); ++p) {
      terms.emplace_back(static_cast<int>(p), 1.0);
    }
    lp.add_constraint(std::move(terms), Sense::kEqual, 1.0);
  }
  // Eq. 1: capacity per server/resource, gated by y for off servers.
  for (std::size_t j = 0; j < servers; ++j) {
    if (columns.of(j).empty()) continue;
    for (std::size_t k = 0; k < problem.num_resources(); ++k) {
      std::vector<std::pair<int, double>> terms;
      for (const auto& [i, p] : columns.of(j)) {
        terms.emplace_back(static_cast<int>(p), problem.demand(p, k));
      }
      if (y_var[j] >= 0) {
        terms.emplace_back(y_var[j], -problem.capacity(j, k));
        lp.add_constraint(std::move(terms), Sense::kLessEqual, 0.0);
      } else {
        lp.add_constraint(std::move(terms), Sense::kLessEqual, problem.capacity(j, k));
      }
    }
    // Eq. 5 linking, per pair: x_ij <= y_j. The aggregated big-M form
    // (sum_i x_ij <= apps * y_j) admits fractional y_j = 1/apps at the
    // relaxation, so its LP bound barely reflects activation costs; the
    // per-pair rows are the tightest linear linking and make incumbent
    // pruning bite far earlier (fewer B&B nodes per exact solve).
    if (y_var[j] >= 0) {
      for (const auto& [i, p] : columns.of(j)) {
        lp.add_constraint({{static_cast<int>(p), 1.0}, {y_var[j], -1.0}}, Sense::kLessEqual, 0.0);
      }
    }
  }

  // solve_milp takes the point as its incumbent only if it passes the LP.
  std::optional<std::vector<double>> start;
  if (warm.feasible) {
    std::vector<double> values(lp.num_variables(), 0.0);
    for (std::size_t i = 0; i < apps; ++i) {
      values[problem.find_pair(i, warm.assignment[i])] = 1.0;
    }
    for (std::size_t j = 0; j < servers; ++j) {
      if (y_var[j] >= 0 && warm.powered_on[j]) values[static_cast<std::size_t>(y_var[j])] = 1.0;
    }
    start = std::move(values);
  }

  const MilpSolution milp = solve_milp(lp, integer_vars, options, start);
  if (milp.status != MilpStatus::kOptimal && milp.status != MilpStatus::kFeasible) {
    // The search came up empty (node budget exhausted before any incumbent,
    // or a numerically stranded warm start). The heuristic placement is
    // still a valid answer that direct callers would otherwise lose —
    // return it instead of an all-kUnassigned shell.
    if (warm.feasible) {
      AssignmentSolution fallback = warm;  // one heuristic shard
      fallback.stats.milp_nodes = milp.nodes_explored;
      fallback.stats.settled_nodes = milp.settled_nodes;
      return fallback;
    }
    AssignmentSolution infeasible;
    infeasible.assignment.assign(apps, kUnassigned);
    infeasible.unassigned_count = apps;
    infeasible.stats.components = 1;
    infeasible.stats.exact_shards = 1;
    infeasible.stats.milp_nodes = milp.nodes_explored;
    infeasible.stats.settled_nodes = milp.settled_nodes;
    return infeasible;
  }

  std::vector<std::size_t> assignment(apps, kUnassigned);
  for (std::size_t i = 0; i < apps; ++i) {
    for (std::size_t p = problem.row_begin(i); p < problem.row_end(i); ++p) {
      if (milp.values[p] > 0.5) {
        assignment[i] = problem.server(p);
        break;
      }
    }
  }
  AssignmentSolution solution = evaluate(problem, assignment);
  solution.stats.components = 1;
  solution.stats.exact_shards = 1;
  solution.stats.milp_nodes = milp.nodes_explored;
  solution.stats.settled_nodes = milp.settled_nodes;
  return solution;
}

}  // namespace

// ---------------------------------------------------------------------------
// Regret greedy + local search
// ---------------------------------------------------------------------------

namespace {

struct GreedyState {
  std::vector<double> remaining;       // server x resource
  std::vector<std::uint8_t> planned_on;

  explicit GreedyState(const AssignmentProblem& p)
      : remaining(p.num_servers() * p.num_resources()), planned_on(p.num_servers()) {
    for (std::size_t j = 0; j < p.num_servers(); ++j) {
      planned_on[j] = p.initially_on(j) ? 1 : 0;
      for (std::size_t k = 0; k < p.num_resources(); ++k) {
        remaining[j * p.num_resources() + k] = p.capacity(j, k);
      }
    }
  }

  [[nodiscard]] bool fits(const AssignmentProblem& p, std::size_t pair) const {
    const std::size_t j = p.server(pair);
    for (std::size_t k = 0; k < p.num_resources(); ++k) {
      if (p.demand(pair, k) > remaining[j * p.num_resources() + k] + 1e-9) return false;
    }
    return true;
  }

  [[nodiscard]] double effective_cost(const AssignmentProblem& p, std::size_t pair) const {
    const std::size_t j = p.server(pair);
    double c = p.cost(pair);
    if (!planned_on[j]) c += p.activation_cost(j);
    return c;
  }

  void commit(const AssignmentProblem& p, std::size_t pair) {
    const std::size_t j = p.server(pair);
    for (std::size_t k = 0; k < p.num_resources(); ++k) {
      remaining[j * p.num_resources() + k] -= p.demand(pair, k);
    }
    planned_on[j] = 1;
  }
};

/// An unplaced app's cheapest and second-cheapest effective cost over the
/// pairs that still fit, and the pair that attains the cheapest (kNoPair
/// when none fits).
struct GreedyOption {
  double best = kInfinity;
  double second = kInfinity;
  std::size_t best_pair = kNoPair;
};

GreedyOption scan_row(const AssignmentProblem& problem, const GreedyState& state, std::size_t app) {
  GreedyOption option;
  for (std::size_t p = problem.row_begin(app); p < problem.row_end(app); ++p) {
    if (!state.fits(problem, p)) continue;
    const double c = state.effective_cost(problem, p);
    if (c < option.best) {
      option.second = option.best;
      option.best = c;
      option.best_pair = p;
    } else if (c < option.second) {
      option.second = c;
    }
  }
  return option;
}

AssignmentSolution solve_greedy(const AssignmentProblem& problem, const ServerColumns& columns) {
  const std::size_t apps = problem.num_apps();
  GreedyState state(problem);
  std::vector<std::size_t> assignment(apps, kUnassigned);
  std::vector<std::uint8_t> placed(apps, 0);
  // option[i] always equals a fresh scan_row of unplaced app i. A commit on
  // server j changes only j's remaining capacity and power state, so only
  // the apps with a pair on j can need a rescan.
  std::vector<GreedyOption> option(apps);
  for (std::size_t i = 0; i < apps; ++i) option[i] = scan_row(problem, state, i);

  for (std::size_t round = 0; round < apps; ++round) {
    // Pick the unplaced app with the largest regret (gap between its best
    // and second-best feasible option); ties favor the costlier best option.
    std::size_t pick = kUnassigned;
    double pick_regret = -1.0;
    double pick_best_cost = -kInfinity;
    for (std::size_t i = 0; i < apps; ++i) {
      if (placed[i]) continue;
      const auto [best, second, best_pair] = option[i];
      if (best_pair == kNoPair) {
        // This app can no longer be placed; greedy fails over to a partial
        // answer which evaluate() marks infeasible.
        continue;
      }
      const double regret = (second == kInfinity) ? kInfinity : second - best;
      if (regret > pick_regret ||
          (regret == pick_regret && best > pick_best_cost)) {
        pick_regret = regret;
        pick_best_cost = best;
        pick = i;
      }
    }
    if (pick == kUnassigned) break;  // nothing placeable remains
    const std::size_t pick_pair = option[pick].best_pair;
    const std::size_t j = problem.server(pick_pair);
    assignment[pick] = j;
    placed[pick] = 1;
    const bool was_on = state.planned_on[j] != 0;
    // With nonnegative demands a commit only shrinks j's headroom, so a pair
    // that fits now fitted before. add_pair does not require nonnegative
    // demands; after any other commit, a pair that fits now is rescanned.
    const bool shrank = std::ranges::all_of(problem.demands(pick_pair),
                                            [](double d) { return d >= 0.0; });
    state.commit(problem, pick_pair);
    // scan_row keeps the two smallest fitting costs, counted with
    // multiplicity, and the first pair that attains the smallest. App i's
    // other pairs are untouched, so its option changes only if its pair p
    // on j changed cost or fit in a way that reaches those two values.
    for (const auto& [i, p] : columns.of(j)) {
      if (placed[i]) continue;
      if (state.fits(problem, p)) {
        if (was_on && shrank) continue;  // same cost, same fit
      } else {
        // p dropped out (or never fitted). Costing more than the second
        // smallest, it was neither of the two smallest nor the best pair.
        double before = problem.cost(p);
        if (!was_on) before += problem.activation_cost(j);
        if (before > option[i].second) continue;
      }
      option[i] = scan_row(problem, state, i);
    }
  }
  AssignmentSolution solution = evaluate(problem, assignment);
  solution.stats.components = 1;
  solution.stats.heuristic_shards = 1;
  return solution;
}

std::size_t improve_local_search(const AssignmentProblem& problem, const ServerColumns& columns,
                                 AssignmentSolution& solution, std::size_t max_rounds) {
  const std::size_t apps = problem.num_apps();
  const std::size_t servers = problem.num_servers();
  const std::size_t resources = problem.num_resources();

  // pair_of[i]: the pair app i currently uses (kNoPair when unplaced, or
  // placed on a pair the problem lacks — such apps are never moved).
  std::vector<std::size_t> pair_of(apps, kNoPair);
  std::vector<double> load(servers * resources, 0.0);
  std::vector<std::size_t> count(servers, 0);
  for (std::size_t i = 0; i < apps; ++i) {
    const std::size_t j = solution.assignment[i];
    if (j == kUnassigned) continue;
    pair_of[i] = problem.find_pair(i, j);
    if (pair_of[i] == kNoPair) continue;
    for (std::size_t k = 0; k < resources; ++k) {
      load[j * resources + k] += problem.demand(pair_of[i], k);
    }
    ++count[j];
  }
  // Swap-scan lookups without row searches: app a's pairs scattered by
  // server, and the apps after `after` that have a pair on `server`.
  std::vector<std::size_t> a_pair_on(servers, kNoPair);
  const auto partners = [&](std::size_t server, std::size_t after) {
    const std::span<const ServerColumns::Entry> column = columns.of(server);
    const auto first = std::ranges::upper_bound(column, after, {}, &ServerColumns::Entry::first);
    return column.subspan(static_cast<std::size_t>(first - column.begin()));
  };

  const auto activation_delta_gain = [&](std::size_t j) {
    // Cost of powering on j if it is off and currently unused.
    return (!problem.initially_on(j) && count[j] == 0) ? problem.activation_cost(j) : 0.0;
  };
  const auto activation_delta_release = [&](std::size_t j) {
    // Saving from vacating the last app of an initially-off server.
    return (!problem.initially_on(j) && count[j] == 1) ? problem.activation_cost(j) : 0.0;
  };
  // Would pair `pair` fit on its server `to`, after `leaving` (a pair on
  // `to`, or kNoPair) moves off it?
  const auto fits_after = [&](std::size_t pair, std::size_t to, std::size_t leaving) {
    for (std::size_t k = 0; k < resources; ++k) {
      double used = load[to * resources + k];
      if (leaving != kNoPair) used -= problem.demand(leaving, k);
      if (used + problem.demand(pair, k) > problem.capacity(to, k) + 1e-9) return false;
    }
    return true;
  };

  std::size_t improvements = 0;
  for (std::size_t round = 0; round < max_rounds; ++round) {
    bool improved = false;

    // Relocate moves. `from` is refreshed after every applied move: the app
    // now lives on its new server and further candidate targets must be
    // evaluated against that.
    for (std::size_t i = 0; i < apps; ++i) {
      if (pair_of[i] == kNoPair) continue;
      std::size_t from = solution.assignment[i];
      for (std::size_t p = problem.row_begin(i); p < problem.row_end(i); ++p) {
        const std::size_t to = problem.server(p);
        if (to == from) continue;
        if (!fits_after(p, to, kNoPair)) continue;
        const double delta = problem.cost(p) - problem.cost(pair_of[i]) +
                             activation_delta_gain(to) - activation_delta_release(from);
        if (delta < -1e-9) {
          for (std::size_t k = 0; k < resources; ++k) {
            load[from * resources + k] -= problem.demand(pair_of[i], k);
            load[to * resources + k] += problem.demand(p, k);
          }
          --count[from];
          ++count[to];
          solution.assignment[i] = to;
          pair_of[i] = p;
          from = to;
          improved = true;
          ++improvements;
        }
      }
    }

    // Pairwise swaps of a with each later app b that has a pair on a's
    // server sa, ascending. `sa` is refreshed after every applied swap — app
    // a moved, so later candidates come from its new server.
    for (std::size_t a = 0; a < apps; ++a) {
      if (pair_of[a] == kNoPair) continue;
      for (std::size_t p = problem.row_begin(a); p < problem.row_end(a); ++p) {
        a_pair_on[problem.server(p)] = p;
      }
      std::size_t sa = solution.assignment[a];
      for (auto column = partners(sa, a); !column.empty();) {
        const auto [b, b_to_sa] = column.front();
        column = column.subspan(1);
        if (pair_of[b] == kNoPair) continue;
        const std::size_t sb = solution.assignment[b];
        if (sb == sa) continue;
        const std::size_t a_to_sb = a_pair_on[sb];
        if (a_to_sb == kNoPair) continue;
        if (!fits_after(a_to_sb, sb, pair_of[b]) || !fits_after(b_to_sa, sa, pair_of[a])) continue;
        const double delta = problem.cost(a_to_sb) + problem.cost(b_to_sa) -
                             problem.cost(pair_of[a]) - problem.cost(pair_of[b]);
        if (delta < -1e-9) {
          for (std::size_t k = 0; k < resources; ++k) {
            load[sa * resources + k] += problem.demand(b_to_sa, k) - problem.demand(pair_of[a], k);
            load[sb * resources + k] += problem.demand(a_to_sb, k) - problem.demand(pair_of[b], k);
          }
          solution.assignment[a] = sb;
          solution.assignment[b] = sa;
          pair_of[a] = a_to_sb;
          pair_of[b] = b_to_sa;
          sa = sb;
          column = partners(sa, b);
          improved = true;
          ++improvements;
        }
      }
      for (const std::uint32_t j : problem.row_servers(a)) a_pair_on[j] = kNoPair;
    }

    if (!improved) break;
  }

  AssignmentSolution refreshed = evaluate(problem, solution.assignment);
  refreshed.stats = solution.stats;  // improvement does not change the path taken
  solution = std::move(refreshed);
  return improvements;
}

}  // namespace

AssignmentSolution solve_greedy(const AssignmentProblem& problem) {
  return solve_greedy(problem, ServerColumns(problem));
}

std::size_t improve_local_search(const AssignmentProblem& problem, AssignmentSolution& solution,
                                 std::size_t max_rounds) {
  return improve_local_search(problem, ServerColumns(problem), solution, max_rounds);
}

AssignmentSolution solve_unsharded(const AssignmentProblem& problem,
                                   const AssignmentOptions& options) {
  const ServerColumns columns(problem);
  AssignmentSolution heuristic = solve_heuristic(problem, columns);
  if (problem.num_apps() * problem.num_servers() <= options.exact_size_limit) {
    AssignmentSolution exact = solve_exact(problem, columns, options.milp, heuristic);
    if (exact.feasible) return exact;
  }
  return heuristic;
}

AssignmentSolution solve_auto(const AssignmentProblem& problem, const AssignmentOptions& options) {
  const obs::Span span(solve_phase());
  AssignmentSolution solution = solve_sharded(problem, options);
  SolverMetrics& metrics = solver_metrics();
  metrics.solves.add();
  metrics.components.add(solution.stats.components);
  metrics.exact_shards.add(solution.stats.exact_shards);
  metrics.heuristic_shards.add(solution.stats.heuristic_shards);
  metrics.unplaceable_apps.add(solution.stats.unplaceable_apps);
  metrics.milp_nodes.add(solution.stats.milp_nodes);
  metrics.milp_settled_nodes.add(solution.stats.settled_nodes);
  metrics.settled_shards.add(solution.stats.settled_shards);
  metrics.problem_apps.observe(static_cast<double>(problem.num_apps()));
  return solution;
}

}  // namespace carbonedge::solver
