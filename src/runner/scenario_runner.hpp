// Parallel scenario-sweep runner.
//
// Expands a ScenarioGrid and runs one EdgeSimulation::run per cell through
// util::parallel_for, on lanes leased from the parallelism budget. Every
// cell writes into its own pre-sized result slot (no locks, no shared
// mutable state: each cell builds its own cluster and simulation; carbon
// services are synthesized once per distinct region before dispatch and
// only read concurrently), so the aggregate is bit-identical no matter how
// many lanes execute it — run(grid) with one thread and with N threads
// produce equal tables.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "core/simulation.hpp"
#include "runner/scenario_grid.hpp"
#include "util/parallelism.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace carbonedge::runner {

/// One completed cell: the scenario that was run and its simulation result.
struct ScenarioOutcome {
  Scenario scenario;
  core::SimulationResult result;
};

/// Degradation counters of a CellCache. A best-effort cache never fails a
/// sweep — a full disk just means cells silently stop persisting — so these
/// are the only way a degraded-store run is distinguishable from a healthy
/// one. summarize(outcomes, cache) renders them as a Store column.
struct CellCacheHealth {
  std::uint64_t stores = 0;          // fresh cells persisted
  std::uint64_t write_failures = 0;  // persists that failed (store degraded)
};

/// Persistence seam for sweep-cell results. The runner layer sits below the
/// store layer in the module DAG, so it cannot name store::SweepStore
/// directly; the store layer implements this interface (store::SweepStore)
/// and callers inject it through ScenarioRunnerOptions. Implementations must
/// round-trip results bit-exactly: a cache hit replayed into the aggregate
/// has to leave the summary table byte-identical to a cold run.
class CellCache {
 public:
  virtual ~CellCache() = default;
  /// The persisted result for `scenario`, or nullopt on a miss.
  [[nodiscard]] virtual std::optional<core::SimulationResult> load(
      const Scenario& scenario) = 0;
  /// Best-effort persist of a computed cell; failures must not throw.
  virtual void save(const Scenario& scenario, const core::SimulationResult& result) = 0;
  /// Current degradation counters; the default (a cache with no failure
  /// modes) reports all-zero.
  [[nodiscard]] virtual CellCacheHealth health() const { return {}; }
};

struct ScenarioRunnerOptions {
  /// Budget to lease from instead of util::global_budget() (test
  /// injection). The sweep leases one lane per concurrently running cell
  /// from it; each cell's simulation, solver included, runs serially on
  /// its lane.
  util::ParallelismBudget* budget = nullptr;
  /// Persistent sweep-cell cache (store::SweepStore, via the CellCache
  /// seam). When set, cells already in the cache are loaded instead of
  /// re-simulated (their carbon services are not even built) and freshly
  /// computed cells are saved back, so an interrupted or extended grid
  /// resumes incrementally. Cached results round-trip bit-exactly: the
  /// aggregate — and summarize()'s table — is byte-identical to a cold
  /// one-shot run.
  std::shared_ptr<CellCache> sweep_store;
};

class ScenarioRunner {
 public:
  explicit ScenarioRunner(ScenarioRunnerOptions options = {}) : options_(options) {}

  /// Expand and run every cell of the grid; outcomes are returned in grid
  /// (row-major) order regardless of execution interleaving.
  [[nodiscard]] std::vector<ScenarioOutcome> run(const ScenarioGrid& grid) const;

  /// Run an explicit scenario list (e.g. a filtered expansion). An empty
  /// list is a no-op returning no outcomes.
  [[nodiscard]] std::vector<ScenarioOutcome> run(std::vector<Scenario> scenarios) const;

  /// Aggregate outcomes into one summary row per scenario (label, carbon,
  /// energy, latency, placement and migration/failure counters), in outcome
  /// order. Purely a function of the outcomes, so equal outcome vectors
  /// render byte-identical tables.
  [[nodiscard]] static util::Table summarize(const std::vector<ScenarioOutcome>& outcomes);

  /// summarize() plus a Store column surfacing the cell cache's health: a
  /// sweep whose store degraded to memory-only (failed persists) must not
  /// look identical to a healthy one. `cache == nullptr` renders "-"
  /// (sweep ran without a store). Still a pure function of its arguments.
  [[nodiscard]] static util::Table summarize(const std::vector<ScenarioOutcome>& outcomes,
                                             const CellCache* cache);

  [[nodiscard]] const ScenarioRunnerOptions& options() const noexcept { return options_; }

 private:
  ScenarioRunnerOptions options_;
};

}  // namespace carbonedge::runner
