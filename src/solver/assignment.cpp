#include "solver/assignment.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/span.hpp"
#include "solver/decompose.hpp"
#include "solver/lp.hpp"

namespace carbonedge::solver {

namespace {

obs::Phase& milp_phase() {
  static obs::Phase phase("solver.milp");
  return phase;
}

// A component's solve reads the parent problem in place. Its loops walk
// component.apps and component.servers, both ascending, so every scan, sum
// and tie-break runs in the order a copy of the component would give.

/// How one component's solve ended (its pairs are in the workspace). A shell
/// has no placement to evaluate: every app unplaced, and no power states.
struct ShardAnswer {
  bool feasible = false;
  bool shell = false;
  SolveStats stats;
};

using ColumnEntry = std::pair<std::size_t, std::size_t>;  // (app, pair)

/// Regroup the component's pairs by server into the workspace's columns,
/// apps ascending within each.
void fill_columns(const AssignmentProblem& problem, const Component& shard,
                  ShardWorkspace& workspace) {
  std::vector<std::size_t>& first = workspace.column_begin;
  std::vector<std::size_t>& last = workspace.column_end;
  first.resize(problem.num_servers());
  last.resize(problem.num_servers());
  for (const std::size_t j : shard.servers) last[j] = 0;
  for (const std::size_t i : shard.apps) {
    for (const std::uint32_t j : problem.row_servers(i)) ++last[j];
  }
  std::size_t next = 0;
  for (const std::size_t j : shard.servers) {
    first[j] = next;
    next += last[j];
    last[j] = first[j];  // the fill cursor
  }
  workspace.column.resize(next);
  for (const std::size_t i : shard.apps) {
    for (std::size_t p = problem.row_begin(i); p < problem.row_end(i); ++p) {
      workspace.column[last[problem.server(p)]++] = {i, p};
    }
  }
}

/// Server `server`'s column: its (app, pair) entries, apps ascending.
std::span<const ColumnEntry> column(const ShardWorkspace& workspace, std::size_t server) {
  const std::size_t first = workspace.column_begin[server];
  return std::span<const ColumnEntry>(workspace.column)
      .subspan(first, workspace.column_end[server] - first);
}

/// evaluate()'s feasibility of the component's `pairs`: every app placed,
/// and every server's load, summed in app order, within capacity + 1e-6.
bool shard_feasible(const AssignmentProblem& problem, const Component& shard,
                    std::span<const std::size_t> pairs, std::vector<double>& load) {
  const std::size_t resources = problem.num_resources();
  load.resize(problem.num_servers() * resources);
  for (const std::size_t j : shard.servers) std::fill_n(&load[j * resources], resources, 0.0);
  for (const std::size_t i : shard.apps) {
    const std::size_t p = pairs[i];
    if (p == kNoPair) return false;
    const std::size_t j = problem.server(p);
    for (std::size_t k = 0; k < resources; ++k) load[j * resources + k] += problem.demand(p, k);
  }
  for (const std::size_t j : shard.servers) {
    for (std::size_t k = 0; k < resources; ++k) {
      if (load[j * resources + k] > problem.capacity(j, k) + 1e-6) return false;
    }
  }
  return true;
}

}  // namespace

AssignmentProblem::AssignmentProblem(std::size_t num_apps, std::size_t num_servers,
                                     std::size_t num_resources) {
  reset(num_apps, num_servers, num_resources);
}

void AssignmentProblem::reset(std::size_t num_apps, std::size_t num_servers,
                              std::size_t num_resources) {
  num_apps_ = num_apps;
  num_servers_ = num_servers;
  num_resources_ = num_resources == 0 ? 1 : num_resources;
  row_start_.clear();
  server_.clear();
  cost_.clear();
  demand_.clear();
  capacity_.assign(num_servers * num_resources_, 0.0);
  activation_cost_.assign(num_servers, 0.0);
  initially_on_.assign(num_servers, 1);
}

void AssignmentProblem::reject_pair(std::size_t app, std::size_t server, double cost,
                                    std::span<const double> demand) const {
  if (app >= num_apps_ || server >= num_servers_) {
    throw std::invalid_argument("add_pair: app or server out of range");
  }
  if (!std::isfinite(cost)) throw std::invalid_argument("add_pair: cost must be finite");
  if (demand.size() != num_resources_) {
    throw std::invalid_argument("add_pair: need one demand per resource");
  }
  if (!appends_in_order(app, server)) {
    throw std::invalid_argument("add_pair: pairs must arrive in ascending (app, server) order");
  }
  throw std::invalid_argument("add_pair: demands must be finite");
}

namespace {

/// Whether `pair` is one of app `app`'s own pairs (Eq. 2: only feasible
/// pairs exist).
bool in_row(const AssignmentProblem& problem, std::size_t app, std::size_t pair) {
  return pair >= problem.row_begin(app) && pair < problem.row_end(app);
}

/// validate() with `load` as scratch.
bool validate(const AssignmentProblem& problem, const AssignmentSolution& solution, double tol,
              std::vector<double>& load) {
  if (solution.pairs.size() != problem.num_apps()) return false;
  load.assign(problem.num_servers() * problem.num_resources(), 0.0);
  for (std::size_t i = 0; i < problem.num_apps(); ++i) {
    const std::size_t p = solution.pairs[i];
    if (p == kNoPair) continue;
    if (!in_row(problem, i, p)) return false;
    const std::size_t j = problem.server(p);
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

/// evaluate()'s body once solution.pairs is set.
void evaluate_placement(const AssignmentProblem& problem, AssignmentSolution& solution,
                        std::vector<double>& load) {
  solution.powered_on.resize(problem.num_servers());
  for (std::size_t j = 0; j < problem.num_servers(); ++j) {
    solution.powered_on[j] = problem.initially_on(j) ? 1 : 0;
  }
  solution.stats = {};
  double total = 0.0;
  solution.unassigned_count = 0;
  for (std::size_t i = 0; i < problem.num_apps(); ++i) {
    const std::size_t p = solution.pairs[i];
    if (p == kNoPair) {
      ++solution.unassigned_count;
      continue;
    }
    const std::size_t j = problem.server(p);
    total += problem.cost(p);
    if (!solution.powered_on[j]) {
      solution.powered_on[j] = 1;
      total += problem.activation_cost(j);
    }
  }
  solution.total_cost = total;
  solution.feasible = solution.unassigned_count == 0 && validate(problem, solution, 1e-6, load);
}

}  // namespace

AssignmentSolution evaluate(const AssignmentProblem& problem,
                            const std::vector<std::size_t>& assignment) {
  std::vector<std::size_t> pairs(problem.num_apps(), kNoPair);
  for (std::size_t i = 0; i < std::min(assignment.size(), pairs.size()); ++i) {
    const std::size_t j = assignment[i];
    if (j == kUnassigned) continue;
    pairs[i] = problem.find_pair(i, j);
    if (pairs[i] == kNoPair) {
      throw std::invalid_argument("evaluate: app " + std::to_string(i) + " has no pair on server " +
                                  std::to_string(j));
    }
  }
  AssignmentSolution solution;
  std::vector<double> load;
  evaluate_pairs(problem, pairs, solution, load);
  return solution;
}

void evaluate_pairs(const AssignmentProblem& problem, std::span<const std::size_t> pairs,
                    AssignmentSolution& solution, std::vector<double>& load) {
  solution.pairs.assign(pairs.begin(), pairs.end());
  evaluate_placement(problem, solution, load);
}

bool validate(const AssignmentProblem& problem, const AssignmentSolution& solution, double tol) {
  std::vector<double> load;
  return validate(problem, solution, tol, load);
}

// ---------------------------------------------------------------------------
// Exact MILP path
// ---------------------------------------------------------------------------

namespace {

ShardAnswer solve_exact(const AssignmentProblem& problem, const Component& shard,
                        const MilpOptions& options, const ShardAnswer& warm,
                        ShardWorkspace& workspace) {
  const obs::Span span(milp_phase());
  std::vector<std::size_t>& answer = workspace.exact_pairs;
  answer.resize(problem.num_apps());
  for (const std::size_t i : shard.apps) answer[i] = kNoPair;
  ShardAnswer out;
  out.stats.components = 1;

  for (const std::size_t i : shard.apps) {
    if (problem.row_begin(i) != problem.row_end(i)) continue;
    // No shard was actually solved (the MILP was never built), so
    // exact_shards stays 0. This monolithic path reports one component
    // regardless of how many apps are unplaceable; only the sharded path
    // isolates each unplaceable app as its own singleton component.
    out.shell = true;
    for (const std::size_t a : shard.apps) {
      if (problem.row_begin(a) == problem.row_end(a)) ++out.stats.unplaceable_apps;
    }
    return out;  // some app has no feasible server at all
  }

  LinearProgram lp;
  std::vector<int> integer_vars;
  // Variables: x_p for each pair, apps ascending and each row in server
  // order (a copy's pair order); then y_j for each initially-off server
  // with at least one pair.
  std::vector<std::size_t>& first_var = workspace.first_var;
  first_var.resize(problem.num_apps());
  for (const std::size_t i : shard.apps) {
    first_var[i] = integer_vars.size();
    for (std::size_t p = problem.row_begin(i); p < problem.row_end(i); ++p) {
      integer_vars.push_back(lp.add_variable(problem.cost(p), 0.0, 1.0));
    }
  }
  const auto x_var = [&](std::size_t app, std::size_t pair) {
    return static_cast<int>(first_var[app] + (pair - problem.row_begin(app)));
  };
  std::vector<int>& y_var = workspace.y_var;
  y_var.resize(problem.num_servers());
  for (const std::size_t j : shard.servers) {
    y_var[j] = -1;
    if (problem.initially_on(j) || column(workspace, j).empty()) continue;
    y_var[j] = lp.add_variable(problem.activation_cost(j), 0.0, 1.0);
    integer_vars.push_back(y_var[j]);
  }

  // Eq. 3: each app placed exactly once.
  for (const std::size_t i : shard.apps) {
    std::vector<std::pair<int, double>> terms;
    for (std::size_t p = problem.row_begin(i); p < problem.row_end(i); ++p) {
      terms.emplace_back(x_var(i, p), 1.0);
    }
    lp.add_constraint(std::move(terms), Sense::kEqual, 1.0);
  }
  // Eq. 1: capacity per server/resource, gated by y for off servers.
  for (const std::size_t j : shard.servers) {
    const std::span<const ColumnEntry> entries = column(workspace, j);
    if (entries.empty()) continue;
    for (std::size_t k = 0; k < problem.num_resources(); ++k) {
      std::vector<std::pair<int, double>> terms;
      for (const auto& [i, p] : entries) terms.emplace_back(x_var(i, p), problem.demand(p, k));
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
      for (const auto& [i, p] : entries) {
        lp.add_constraint({{x_var(i, p), 1.0}, {y_var[j], -1.0}}, Sense::kLessEqual, 0.0);
      }
    }
  }

  // solve_milp takes the point as its incumbent only if it passes the LP. A
  // feasible warm start places every app, and an off server it uses is on.
  std::optional<std::vector<double>> start;
  if (warm.feasible) {
    std::vector<double> values(lp.num_variables(), 0.0);
    for (const std::size_t i : shard.apps) {
      const std::size_t p = workspace.pairs[i];
      values[static_cast<std::size_t>(x_var(i, p))] = 1.0;
      const int y = y_var[problem.server(p)];
      if (y >= 0) values[static_cast<std::size_t>(y)] = 1.0;
    }
    start = std::move(values);
  }

  const MilpSolution milp = solve_milp(lp, integer_vars, options, start);
  if (milp.status != MilpStatus::kOptimal && milp.status != MilpStatus::kFeasible) {
    // The search came up empty (node budget exhausted before any incumbent,
    // or a numerically stranded warm start). The heuristic placement is
    // still a valid answer that direct callers would otherwise lose —
    // return it instead of an all-unplaced shell.
    if (warm.feasible) {
      out = warm;  // one heuristic shard
      for (const std::size_t i : shard.apps) answer[i] = workspace.pairs[i];
    } else {
      out.shell = true;
      out.stats.exact_shards = 1;
    }
  } else {
    for (const std::size_t i : shard.apps) {
      for (std::size_t p = problem.row_begin(i); p < problem.row_end(i); ++p) {
        if (milp.values[static_cast<std::size_t>(x_var(i, p))] > 0.5) {
          answer[i] = p;
          break;
        }
      }
    }
    out.feasible = shard_feasible(problem, shard, answer, workspace.load);
    out.stats.exact_shards = 1;
  }
  out.stats.milp_nodes = milp.nodes_explored;
  out.stats.settled_nodes = milp.settled_nodes;
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Regret greedy + local search
// ---------------------------------------------------------------------------

namespace {

/// Greedy's unplaced apps that can still be placed, in pick order: an
/// indexed binary max-heap over the workspace's pick_heap and heap_slot.
/// Keys order by regret descending, then best cost descending, then app
/// ascending (component apps ascend, so that is position order); the top is
/// the app a scan of every unplaced app would pick first. Every app in the
/// heap carries its current key: set() replaces it in place.
class PickHeap {
 public:
  using Key = ShardWorkspace::GreedyKey;
  static constexpr std::size_t kAbsent = static_cast<std::size_t>(-1);

  /// An empty heap over `shard`'s apps.
  PickHeap(const AssignmentProblem& problem, const Component& shard, ShardWorkspace& workspace)
      : heap_(workspace.pick_heap), slot_(workspace.heap_slot) {
    heap_.clear();
    slot_.resize(problem.num_apps());
    for (const std::size_t i : shard.apps) slot_[i] = kAbsent;
  }

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t top() const noexcept { return heap_.front().app; }

  /// Set `app`'s key to `option`'s, or take it out when that option cannot
  /// be picked.
  void set(std::size_t app, const ShardWorkspace::GreedyOption& option) {
    Key key;
    if (!key_of(app, option, key)) return remove(app);
    if (slot_[app] == kAbsent) {
      slot_[app] = heap_.size();
      heap_.push_back(key);
    } else {
      heap_[slot_[app]] = key;
    }
    restore(slot_[app]);
  }

  void remove(std::size_t app) {
    const std::size_t k = slot_[app];
    if (k == kAbsent) return;
    slot_[app] = kAbsent;
    const Key last = heap_.back();
    heap_.pop_back();
    if (k == heap_.size()) return;
    heap_[k] = last;
    restore(k);
  }

 private:
  /// The scan's key for `option`: false when the app cannot be picked, that
  /// is when no pair fits or its regret is NaN (two pairs at -inf, from a
  /// -inf activation cost), which no comparison selects.
  static bool key_of(std::size_t app, const ShardWorkspace::GreedyOption& option, Key& key) {
    if (option.best_pair == kNoPair) return false;
    const double regret = (option.second == kInfinity) ? kInfinity : option.second - option.best;
    if (std::isnan(regret)) return false;
    key = {regret, option.best, app};
    return true;
  }
  /// Move the key at `k`, which may now order either way against its
  /// neighbors, to its place.
  void restore(std::size_t k) {
    const std::size_t app = heap_[k].app;
    sift_up(k);
    sift_down(slot_[app]);
  }
  static bool before(const Key& a, const Key& b) noexcept {
    if (a.regret != b.regret) return a.regret > b.regret;
    if (a.best != b.best) return a.best > b.best;
    return a.app < b.app;
  }
  void sift_up(std::size_t k) {
    const Key key = heap_[k];
    while (k > 0) {
      const std::size_t parent = (k - 1) / 2;
      if (!before(key, heap_[parent])) break;
      heap_[k] = heap_[parent];
      slot_[heap_[k].app] = k;
      k = parent;
    }
    heap_[k] = key;
    slot_[key.app] = k;
  }
  void sift_down(std::size_t k) {
    const Key key = heap_[k];
    const std::size_t size = heap_.size();
    for (std::size_t child = 2 * k + 1; child < size; child = 2 * k + 1) {
      if (child + 1 < size && before(heap_[child + 1], heap_[child])) ++child;
      if (!before(heap_[child], key)) break;
      heap_[k] = heap_[child];
      slot_[heap_[k].app] = k;
      k = child;
    }
    heap_[k] = key;
    slot_[key.app] = k;
  }

  std::vector<Key>& heap_;
  std::vector<std::size_t>& slot_;
};

void solve_greedy(const AssignmentProblem& problem, const Component& shard,
                  ShardWorkspace& workspace) {
  const std::size_t resources = problem.num_resources();
  std::vector<double>& remaining = workspace.remaining;  // server x resource
  std::vector<std::uint8_t>& planned_on = workspace.planned_on;
  remaining.resize(problem.num_servers() * resources);
  planned_on.resize(problem.num_servers());
  for (const std::size_t j : shard.servers) {
    planned_on[j] = problem.initially_on(j) ? 1 : 0;
    for (std::size_t k = 0; k < resources; ++k) {
      remaining[j * resources + k] = problem.capacity(j, k);
    }
  }
  // Whether `pair` fits in `room`, its server's remaining capacity.
  const auto fits_in = [&](const double* room, std::size_t pair) {
    for (std::size_t k = 0; k < resources; ++k) {
      if (problem.demand(pair, k) > room[k] + 1e-9) return false;
    }
    return true;
  };
  // An unplaced app's option: its two smallest effective costs over the
  // pairs that still fit, counted with multiplicity, and the first pair
  // that attains the smallest.
  const auto scan_row = [&](std::size_t app) {
    ShardWorkspace::GreedyOption option{kInfinity, kInfinity, kNoPair};
    for (std::size_t p = problem.row_begin(app); p < problem.row_end(app); ++p) {
      const std::size_t j = problem.server(p);
      if (!fits_in(&remaining[j * resources], p)) continue;
      double c = problem.cost(p);
      if (!planned_on[j]) c += problem.activation_cost(j);
      if (c < option.best) {
        option.second = option.best;
        option.best = c;
        option.best_pair = p;
      } else if (c < option.second) {
        option.second = c;
      }
    }
    return option;
  };

  // pair_of[i] is kNoPair until app i is placed. option[i] always equals a
  // fresh scan_row of unplaced app i, and `heap` holds every unplaced app
  // whose option can be picked, keyed by it. A commit on server j changes
  // only j's remaining capacity and power state, so only the apps with a
  // pair on j can need a rescan.
  std::vector<std::size_t>& pair_of = workspace.pairs;
  std::vector<ShardWorkspace::GreedyOption>& option = workspace.option;
  pair_of.resize(problem.num_apps());
  option.resize(problem.num_apps());
  PickHeap heap(problem, shard, workspace);
  for (const std::size_t i : shard.apps) {
    pair_of[i] = kNoPair;
    option[i] = scan_row(i);
    heap.set(i, option[i]);
  }
  std::vector<double>& before = workspace.remaining_before;
  before.resize(resources);

  // Each round places the unplaced app with the largest regret (gap between
  // its best and second-best fitting option); ties favor the costlier best
  // option, then the earlier app. An app with no fitting pair left is not
  // in the heap: greedy ends with a partial answer, which evaluate() marks
  // infeasible.
  while (!heap.empty()) {
    const std::size_t pick = heap.top();
    heap.remove(pick);
    const std::size_t pick_pair = option[pick].best_pair;
    const std::size_t j = problem.server(pick_pair);
    pair_of[pick] = pick_pair;
    // With nonnegative demands a commit on a server already on changes no
    // cost and only shrinks its headroom: a pair that fits now fitted
    // before, and one that did not fit before does not fit now. add_pair
    // allows negative demands; after such a commit, a fitting pair's app
    // is rescanned.
    const bool was_on = planned_on[j] != 0;
    const bool only_shrank =
        was_on && std::ranges::all_of(problem.demands(pick_pair), [](double d) { return d >= 0.0; });
    double* room = &remaining[j * resources];
    std::copy_n(room, resources, before.begin());
    for (std::size_t k = 0; k < resources; ++k) room[k] -= problem.demand(pick_pair, k);
    planned_on[j] = 1;
    // scan_row keeps the two smallest fitting costs, counted with
    // multiplicity, and the first pair that attains the smallest. App i's
    // other pairs are untouched, so its option changes only if its pair p
    // on j changed cost or fit in a way that reaches those two values.
    for (const auto& [i, p] : column(workspace, j)) {
      if (pair_of[i] != kNoPair) continue;
      if (fits_in(room, p)) {
        if (only_shrank) continue;  // same cost, same fit
      } else {
        if (only_shrank && !fits_in(before.data(), p)) continue;  // never an option
        // p dropped out (or never fitted). Costing more than the second
        // smallest, it was neither of the two smallest nor the best pair.
        double cost_before = problem.cost(p);
        if (!was_on) cost_before += problem.activation_cost(j);
        if (cost_before > option[i].second) continue;
      }
      option[i] = scan_row(i);
      heap.set(i, option[i]);
    }
  }
}

std::size_t improve_local_search(const AssignmentProblem& problem, const Component& shard,
                                 ShardWorkspace& workspace, std::size_t max_rounds) {
  const std::size_t resources = problem.num_resources();

  // pair_of[i]: the pair app i currently uses (kNoPair when unplaced).
  std::vector<std::size_t>& pair_of = workspace.pairs;
  std::vector<double>& load = workspace.load;
  std::vector<std::size_t>& count = workspace.count;
  // Swap-scan lookups without row searches: app a's pairs scattered by
  // server, and the apps after `after` that have a pair on `server`.
  std::vector<std::size_t>& a_pair_on = workspace.pair_on;
  load.resize(problem.num_servers() * resources);
  count.resize(problem.num_servers());
  a_pair_on.resize(problem.num_servers());
  for (const std::size_t j : shard.servers) {
    std::fill_n(&load[j * resources], resources, 0.0);
    count[j] = 0;
    a_pair_on[j] = kNoPair;
  }
  for (const std::size_t i : shard.apps) {
    const std::size_t p = pair_of[i];
    if (p == kNoPair) continue;
    const std::size_t j = problem.server(p);
    for (std::size_t k = 0; k < resources; ++k) load[j * resources + k] += problem.demand(p, k);
    ++count[j];
  }
  const auto partners = [&](std::size_t server, std::size_t after) {
    const std::span<const ColumnEntry> entries = column(workspace, server);
    const auto first = std::ranges::upper_bound(entries, after, {}, &ColumnEntry::first);
    return entries.subspan(static_cast<std::size_t>(first - entries.begin()));
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
    for (const std::size_t i : shard.apps) {
      if (pair_of[i] == kNoPair) continue;
      std::size_t from = problem.server(pair_of[i]);
      for (std::size_t p = problem.row_begin(i); p < problem.row_end(i); ++p) {
        const std::size_t to = problem.server(p);
        if (to == from) continue;
        // The cheap cost test first: a move must improve and fit.
        const double delta = problem.cost(p) - problem.cost(pair_of[i]) +
                             activation_delta_gain(to) - activation_delta_release(from);
        if (!(delta < -1e-9) || !fits_after(p, to, kNoPair)) continue;
        for (std::size_t k = 0; k < resources; ++k) {
          load[from * resources + k] -= problem.demand(pair_of[i], k);
          load[to * resources + k] += problem.demand(p, k);
        }
        --count[from];
        ++count[to];
        pair_of[i] = p;
        from = to;
        improved = true;
        ++improvements;
      }
    }

    // Pairwise swaps of a with each later app b that has a pair on a's
    // server sa, ascending. `sa` is refreshed after every applied swap — app
    // a moved, so later candidates come from its new server.
    for (const std::size_t a : shard.apps) {
      if (pair_of[a] == kNoPair) continue;
      for (std::size_t p = problem.row_begin(a); p < problem.row_end(a); ++p) {
        a_pair_on[problem.server(p)] = p;
      }
      std::size_t sa = problem.server(pair_of[a]);
      for (auto entries = partners(sa, a); !entries.empty();) {
        const auto [b, b_to_sa] = entries.front();
        entries = entries.subspan(1);
        if (pair_of[b] == kNoPair) continue;
        const std::size_t sb = problem.server(pair_of[b]);
        if (sb == sa) continue;
        const std::size_t a_to_sb = a_pair_on[sb];
        if (a_to_sb == kNoPair) continue;
        const double delta = problem.cost(a_to_sb) + problem.cost(b_to_sa) -
                             problem.cost(pair_of[a]) - problem.cost(pair_of[b]);
        if (!(delta < -1e-9) || !fits_after(a_to_sb, sb, pair_of[b]) ||
            !fits_after(b_to_sa, sa, pair_of[a])) {
          continue;
        }
        for (std::size_t k = 0; k < resources; ++k) {
          load[sa * resources + k] += problem.demand(b_to_sa, k) - problem.demand(pair_of[a], k);
          load[sb * resources + k] += problem.demand(a_to_sb, k) - problem.demand(pair_of[b], k);
        }
        pair_of[a] = a_to_sb;
        pair_of[b] = b_to_sa;
        sa = sb;
        entries = partners(sa, b);
        improved = true;
        ++improvements;
      }
      for (const std::uint32_t j : problem.row_servers(a)) a_pair_on[j] = kNoPair;
    }

    if (!improved) break;
  }
  return improvements;
}

/// Greedy + local search on the component, columns included: the heuristic
/// answer and the exact path's warm start (one heuristic shard).
ShardAnswer solve_heuristic(const AssignmentProblem& problem, const Component& shard,
                            ShardWorkspace& workspace) {
  fill_columns(problem, shard, workspace);
  solve_greedy(problem, shard, workspace);
  improve_local_search(problem, shard, workspace, kLocalSearchRounds);
  ShardAnswer answer;
  answer.feasible = shard_feasible(problem, shard, workspace.pairs, workspace.load);
  answer.stats.components = 1;
  answer.stats.heuristic_shards = 1;
  return answer;
}

/// A problem solved whole, as one component: the public solvers' path.
struct WholeProblem {
  explicit WholeProblem(const AssignmentProblem& problem) {
    component.apps.resize(problem.num_apps());
    component.servers.resize(problem.num_servers());
    std::iota(component.apps.begin(), component.apps.end(), std::size_t{0});
    std::iota(component.servers.begin(), component.servers.end(), std::size_t{0});
  }

  Component component;
  ShardWorkspace workspace;
};

}  // namespace

AssignmentSolution solve_exact(const AssignmentProblem& problem, const MilpOptions& options) {
  WholeProblem whole(problem);
  ShardWorkspace& workspace = whole.workspace;
  const ShardAnswer warm = solve_heuristic(problem, whole.component, workspace);
  const ShardAnswer exact = solve_exact(problem, whole.component, options, warm, workspace);
  AssignmentSolution solution;
  if (exact.shell) {
    solution.pairs.assign(problem.num_apps(), kNoPair);
    solution.unassigned_count = problem.num_apps();
  } else {
    evaluate_pairs(problem, workspace.exact_pairs, solution, workspace.load);
  }
  solution.stats = exact.stats;
  return solution;
}

AssignmentSolution solve_greedy(const AssignmentProblem& problem) {
  WholeProblem whole(problem);
  fill_columns(problem, whole.component, whole.workspace);
  solve_greedy(problem, whole.component, whole.workspace);
  AssignmentSolution solution;
  evaluate_pairs(problem, whole.workspace.pairs, solution, whole.workspace.load);
  solution.stats.components = 1;
  solution.stats.heuristic_shards = 1;
  return solution;
}

std::size_t improve_local_search(const AssignmentProblem& problem, AssignmentSolution& solution,
                                 std::size_t max_rounds) {
  if (solution.pairs.size() != problem.num_apps()) {
    throw std::invalid_argument("improve_local_search: need one pair per app");
  }
  for (std::size_t i = 0; i < problem.num_apps(); ++i) {
    if (solution.pairs[i] != kNoPair && !in_row(problem, i, solution.pairs[i])) {
      throw std::invalid_argument("improve_local_search: app " + std::to_string(i) +
                                  " names a pair outside its row");
    }
  }
  WholeProblem whole(problem);
  whole.workspace.pairs = solution.pairs;
  fill_columns(problem, whole.component, whole.workspace);
  const std::size_t improvements =
      improve_local_search(problem, whole.component, whole.workspace, max_rounds);
  const SolveStats stats = solution.stats;  // improvement does not change the path taken
  evaluate_pairs(problem, whole.workspace.pairs, solution, whole.workspace.load);
  solution.stats = stats;
  return improvements;
}

SolveStats solve_component(const AssignmentProblem& problem, const Component& component,
                           const AssignmentOptions& options, ShardWorkspace& workspace) {
  const ShardAnswer heuristic = solve_heuristic(problem, component, workspace);
  if (component.apps.size() * component.servers.size() <= options.exact_size_limit) {
    const ShardAnswer exact = solve_exact(problem, component, options.milp, heuristic, workspace);
    if (exact.feasible) {
      for (const std::size_t i : component.apps) workspace.pairs[i] = workspace.exact_pairs[i];
      return exact.stats;
    }
  }
  return heuristic.stats;
}

AssignmentSolution solve_unsharded(const AssignmentProblem& problem,
                                   const AssignmentOptions& options) {
  WholeProblem whole(problem);
  const SolveStats stats = solve_component(problem, whole.component, options, whole.workspace);
  AssignmentSolution solution;
  evaluate_pairs(problem, whole.workspace.pairs, solution, whole.workspace.load);
  solution.stats = stats;
  return solution;
}

}  // namespace carbonedge::solver
