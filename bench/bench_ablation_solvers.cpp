// Ablation: solver path selection (README.md, "Solver architecture").
// Compares the exact MILP and regret-greedy + local-search on the same
// placement instances (unit-slot, 2-resource, and 2-resource with activation
// costs): solution quality (objective vs exact and vs the Lagrangian dual
// bound), runtime, and B&B node counts (the per-pair x<=y linking rows
// shrink these). A second table shards block-diagonal instances through
// connected-component decomposition and reports component counts, per-path
// shard totals, node savings, and wall-clock speedup over the monolithic
// exact solve. Justifies solve_auto's size thresholds and sharding default.
#include <chrono>

#include "bench_util.hpp"

#include "solver/assignment.hpp"
#include "solver/decompose.hpp"
#include "solver/lagrangian.hpp"
#include "solver/milp.hpp"
#include "util/random.hpp"
#include "util/table.hpp"

using namespace carbonedge;
using namespace carbonedge::solver;

namespace {

AssignmentProblem random_instance(std::size_t apps, std::size_t servers, std::uint64_t seed,
                                  bool unit_slot, bool activation = false) {
  util::Rng rng(seed);
  AssignmentProblem p(apps, servers, unit_slot ? 1 : 2);
  for (std::size_t j = 0; j < servers; ++j) {
    if (unit_slot) {
      p.set_capacity(j, 0, 1.0 + static_cast<double>(rng.uniform_index(3)));
    } else {
      p.set_capacity(j, 0, rng.uniform(2.0, 6.0));
      p.set_capacity(j, 1, rng.uniform(2.0, 6.0));
    }
    // Every other server starts cold with a real activation price: these
    // instances carry y_j variables, so the Eq. 5 linking formulation (and
    // its B&B node count) actually matters.
    if (activation && j % 2 == 1) {
      p.set_initially_on(j, false);
      p.set_activation_cost(j, rng.uniform(1.0, 6.0));
    }
  }
  for (std::size_t i = 0; i < apps; ++i) {
    for (std::size_t j = 0; j < servers; ++j) {
      if (rng.bernoulli(0.1)) continue;
      // Draw into locals: argument evaluation order is unspecified.
      const double cost = rng.uniform(0.5, 10.0);
      if (unit_slot) {
        p.add_pair(i, j, cost, {1.0});
      } else {
        const double memory = rng.uniform(0.2, 1.2);
        const double compute = rng.uniform(0.2, 1.2);
        p.add_pair(i, j, cost, {memory, compute});
      }
    }
  }
  return p;
}

struct Timed {
  AssignmentSolution solution;
  double ms = 0.0;
  [[nodiscard]] double cost() const { return solution.feasible ? solution.total_cost : -1.0; }
};

template <typename F>
Timed timed(F&& solve) {
  // lint: nondeterminism-ok(this bench reports wall-clock solver timings by design; solutions themselves stay deterministic)
  const auto t0 = std::chrono::steady_clock::now();
  AssignmentSolution solution = solve();
  // lint: nondeterminism-ok(this bench reports wall-clock solver timings by design; solutions themselves stay deterministic)
  const auto t1 = std::chrono::steady_clock::now();
  return {std::move(solution), std::chrono::duration<double, std::milli>(t1 - t0).count()};
}

// K independent blocks glued into one problem: the feasible-pair graph is
// block-diagonal by construction, mimicking a latency-filtered multi-metro
// batch (apps of one block can only land on that block's servers).
AssignmentProblem block_instance(std::size_t blocks, std::size_t apps_per, std::size_t servers_per,
                                 std::uint64_t seed) {
  util::Rng rng(seed);
  AssignmentProblem p(blocks * apps_per, blocks * servers_per, 2);
  for (std::size_t b = 0; b < blocks; ++b) {
    for (std::size_t j = 0; j < servers_per; ++j) {
      p.set_capacity(b * servers_per + j, 0, rng.uniform(2.0, 6.0));
      p.set_capacity(b * servers_per + j, 1, rng.uniform(2.0, 6.0));
    }
    // One cold spare per block so activation decisions (y_j) are in play.
    p.set_initially_on(b * servers_per + servers_per - 1, false);
    p.set_activation_cost(b * servers_per + servers_per - 1, rng.uniform(1.0, 6.0));
    for (std::size_t i = 0; i < apps_per; ++i) {
      for (std::size_t j = 0; j < servers_per; ++j) {
        if (rng.bernoulli(0.1)) continue;
        const double cost = rng.uniform(0.5, 10.0);
        const double memory = rng.uniform(0.2, 1.2);
        const double compute = rng.uniform(0.2, 1.2);
        p.add_pair(b * apps_per + i, b * servers_per + j, cost, {memory, compute});
      }
    }
  }
  return p;
}

}  // namespace

int main() {
  bench::print_header("Ablation", "Solver paths: exact MILP vs greedy+LS");

  util::Table table({"Instance", "dual LB", "exact cost", "exact ms", "exact nodes",
                     "greedy+LS cost", "greedy+LS ms", "gap"});
  table.set_title("Solver comparison (mean over 5 seeds; dual LB = Lagrangian bound)");

  struct Shape {
    std::size_t apps;
    std::size_t servers;
    bool unit_slot;
    const char* label;
    bool activation = false;
  };
  const std::vector<Shape> shapes = {
      {8, 5, true, "8x5 unit-slot"},    {20, 10, true, "20x10 unit-slot"},
      {8, 5, false, "8x5 2-resource"},  {16, 8, false, "16x8 2-resource"},
      {30, 12, false, "30x12 2-resource"},
      {8, 6, false, "8x6 2-res +activation", true},
      {16, 8, false, "16x8 2-res +activation", true},
  };
  for (const Shape& shape : shapes) {
    double dual_bound = 0.0;
    double exact_cost = 0.0;
    double exact_ms = 0.0;
    double exact_nodes = 0.0;
    double greedy_cost = 0.0;
    double greedy_ms = 0.0;
    int counted = 0;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      AssignmentProblem p =
          random_instance(shape.apps, shape.servers, seed * 7919, shape.unit_slot,
                          shape.activation);
      const Timed exact = timed([&] { return solve_exact(p); });
      if (exact.cost() < 0.0) continue;  // skip infeasible draws
      const Timed greedy = timed([&] {
        AssignmentSolution s = solve_greedy(p);
        improve_local_search(p, s);
        return s;
      });
      LagrangianOptions lag;
      lag.upper_bound = greedy.cost();
      dual_bound += lagrangian_lower_bound(p, lag).lower_bound;
      exact_cost += exact.cost();
      exact_ms += exact.ms;
      exact_nodes += static_cast<double>(exact.solution.stats.milp_nodes);
      greedy_cost += greedy.cost();
      greedy_ms += greedy.ms;
      ++counted;
    }
    if (counted == 0) continue;
    const double inv = 1.0 / counted;
    const double gap = exact_cost > 0.0 ? (greedy_cost - exact_cost) / exact_cost : 0.0;
    table.add_row({shape.label, util::format_fixed(dual_bound * inv, 2),
                   util::format_fixed(exact_cost * inv, 2),
                   util::format_fixed(exact_ms * inv, 2),
                   util::format_fixed(exact_nodes * inv, 1),
                   util::format_fixed(greedy_cost * inv, 2),
                   util::format_fixed(greedy_ms * inv, 3), util::format_percent(gap, 1)});
  }
  table.print(std::cout);
  bench::print_takeaway(
      "Exact MILP closes unit-slot instances at the root node (their LP relaxation is "
      "integral) but its node count and time climb with size and activation costs; greedy+LS "
      "stays within a few percent of optimal at a fraction of the time - justifying "
      "solve_auto's per-component exact_size_limit.");

  // ---- Sharded vs monolithic exact on block-diagonal (multi-metro) batches.
  util::Table sharded_table({"Instance", "comps", "exact shards", "mono cost", "shard cost",
                             "mono nodes", "shard nodes", "mono ms", "shard ms", "speedup"});
  sharded_table.set_title(
      "Connected-component sharding vs monolithic exact MILP (mean over 5 seeds)");
  struct BlockShape {
    std::size_t blocks;
    std::size_t apps_per;
    std::size_t servers_per;
    const char* label;
  };
  const std::vector<BlockShape> block_shapes = {
      {2, 5, 3, "2 x (5x3)"},
      {4, 4, 3, "4 x (4x3)"},
      {6, 5, 3, "6 x (5x3)"},
      {8, 4, 4, "8 x (4x4)"},
  };
  AssignmentOptions shard_options;
  // Per-component limit generous enough that every shard solves exactly;
  // the monolithic pair counts above are far beyond solve_auto's default.
  shard_options.exact_size_limit = 64;
  std::size_t mono_capped = 0;  // monolithic B&Bs truncated at the node cap
  ShardWorkspace workspace;     // reused across solves, as a PlacementService does
  for (const BlockShape& shape : block_shapes) {
    double mono_cost = 0.0;
    double shard_cost = 0.0;
    double mono_ms = 0.0;
    double shard_ms = 0.0;
    double mono_nodes = 0.0;
    double shard_nodes = 0.0;
    double comps = 0.0;
    double exact_shards = 0.0;
    int counted = 0;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      AssignmentProblem p =
          block_instance(shape.blocks, shape.apps_per, shape.servers_per, seed * 104729);
      const Timed mono = timed([&] { return solve_exact(p); });
      if (mono.cost() < 0.0) continue;  // skip infeasible draws
      const Timed sharded = timed([&] {
        AssignmentSolution s;
        solve_auto(p, shard_options, workspace, s);
        return s;
      });
      if (sharded.cost() < 0.0) continue;  // never mix -1 sentinels into a mean
      if (mono.solution.stats.milp_nodes >= MilpOptions{}.max_nodes) ++mono_capped;
      mono_cost += mono.cost();
      shard_cost += sharded.cost();
      mono_ms += mono.ms;
      shard_ms += sharded.ms;
      mono_nodes += static_cast<double>(mono.solution.stats.milp_nodes);
      shard_nodes += static_cast<double>(sharded.solution.stats.milp_nodes);
      comps += static_cast<double>(sharded.solution.stats.components);
      exact_shards += static_cast<double>(sharded.solution.stats.exact_shards);
      ++counted;
    }
    if (counted == 0) continue;
    const double inv = 1.0 / counted;
    sharded_table.add_row(
        {shape.label, util::format_fixed(comps * inv, 1), util::format_fixed(exact_shards * inv, 1),
         util::format_fixed(mono_cost * inv, 2), util::format_fixed(shard_cost * inv, 2),
         util::format_fixed(mono_nodes * inv, 1), util::format_fixed(shard_nodes * inv, 1),
         util::format_fixed(mono_ms * inv, 2), util::format_fixed(shard_ms * inv, 3),
         util::format_fixed(shard_ms > 0.0 ? mono_ms / shard_ms : 0.0, 1) + "x"});
  }
  sharded_table.print(std::cout);
  if (mono_capped > 0) {
    // A truncated search returns its best incumbent, not a proven optimum —
    // flag it so "mono cost" is never silently read as the true baseline.
    std::cout << "note: " << mono_capped
              << " monolithic solve(s) hit the B&B node cap; their costs are "
                 "incumbents, not proven optima.\n";
  }
  bench::print_takeaway(
      "Sharding is exact (stitched cost equals the monolithic optimum) while exploring far "
      "fewer B&B nodes per shard and solving components in parallel - batches that were "
      "heuristic-only as monoliths stay on the exact path.");
  return 0;
}
