// Scenario grids: a cartesian product of SimulationConfig axes.
//
// Every evaluation in the paper is "run EdgeSimulation::run over some set of
// {policy, region, hardware mix, horizon, migration/failure knobs} cells and
// tabulate" — the benches used to hand-roll those nested loops serially.
// A ScenarioGrid declares the axes once; expand() materializes one fully-
// resolved Scenario per cell in a deterministic row-major order, ready to be
// dispatched in parallel by the ScenarioRunner (scenario_runner.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/policy.hpp"
#include "core/simulation.hpp"
#include "geo/region.hpp"
#include "sim/device.hpp"

namespace carbonedge::runner {

/// One hardware-mix axis value: sites cycle deterministically through
/// `devices` (a single entry yields a homogeneous cluster).
struct DeviceMix {
  std::string name = "A2";
  std::vector<sim::DeviceType> devices = {sim::DeviceType::kA2};
  std::size_t servers_per_site = 1;
  /// Population-proportional capacity (Section 6.3.4's "Capacity" skew):
  /// when non-zero, the cluster is built as make_population_cluster(region,
  /// total_servers, devices.front()) instead of servers_per_site per site.
  std::size_t total_servers = 0;
  /// Power off the last N servers of every site at construction (the
  /// activation-term ablation starts its spare servers cold).
  std::size_t initially_off_per_site = 0;
};

/// One migration-strategy axis value (re-optimization cadence + data-
/// movement cost model, core/simulation.hpp).
struct MigrationSpec {
  std::string name = "sticky";
  std::uint32_t reoptimize_every = 0;
  /// Calendar-month-aligned re-optimization (overrides reoptimize_every).
  bool reoptimize_monthly = false;
  core::MigrationConfig migration{};
};

/// One failure-injection axis value.
struct FailureSpec {
  std::string name = "none";
  core::FailureConfig failures{};
};

/// A fully-materialized grid cell: everything a worker needs to build the
/// cluster, run the simulation, and label the result row.
struct Scenario {
  std::size_t index = 0;  // position in the grid's row-major expansion
  std::string label;      // human-readable axis coordinates
  geo::Region region;
  DeviceMix mix;
  /// Forecaster name for the cell's carbon service (carbon::make_forecaster;
  /// empty keeps the service default, the oracle).
  std::string forecaster;
  /// One-way latency band for the cell's geography (EdgeSimulation ctor);
  /// 0 stores full latency rows, positive keeps only in-band neighbors so
  /// planet-scale regions skip the n^2 pair table.
  double latency_band_ms = 0.0;
  core::SimulationConfig config;
};

/// Declarative cartesian grid over simulation axes. Axes left unset
/// contribute a single cell carrying the base config's value, so a default-
/// constructed grid expands to exactly one default scenario. Expansion is
/// row-major in declaration order: region (outermost), device mix, policy,
/// epochs, RTT limit, latency band, arrival rate, defer budget, forecaster,
/// migration, failures, workload seed (innermost) — benches relying on
/// positional indexing (e.g. pivot tables) can count on it.
class ScenarioGrid {
 public:
  ScenarioGrid() = default;
  /// `base` seeds every cell; axes override individual fields.
  explicit ScenarioGrid(core::SimulationConfig base) : base_(std::move(base)) {}

  ScenarioGrid& with_policies(std::vector<core::PolicyConfig> policies);
  ScenarioGrid& with_regions(std::vector<geo::Region> regions);
  ScenarioGrid& with_device_mixes(std::vector<DeviceMix> mixes);
  ScenarioGrid& with_epochs(std::vector<std::uint32_t> epochs);
  /// Round-trip latency SLO sweep (workload.latency_limit_rtt_ms, Fig. 12).
  ScenarioGrid& with_rtt_limits(std::vector<double> limits);
  /// Latency-band sweep (Scenario::latency_band_ms; 0 = dense matrix).
  ScenarioGrid& with_latency_bands(std::vector<double> bands);
  /// Arrival-intensity sweep (workload.arrivals_per_site, Fig. 16's low vs
  /// high utilization).
  ScenarioGrid& with_arrival_rates(std::vector<double> rates);
  /// Temporal-flexibility sweep (workload.max_defer_epochs, Section 2.2).
  ScenarioGrid& with_defer_epochs(std::vector<std::uint32_t> defers);
  /// Forecaster sweep (carbon::make_forecaster names; the forecast ablation).
  ScenarioGrid& with_forecasters(std::vector<std::string> forecasters);
  ScenarioGrid& with_migrations(std::vector<MigrationSpec> migrations);
  ScenarioGrid& with_failures(std::vector<FailureSpec> failures);
  ScenarioGrid& with_workload_seeds(std::vector<std::uint64_t> seeds);

  /// Grid cardinality: the product of max(1, |axis|) over all axes.
  [[nodiscard]] std::size_t size() const noexcept;

  /// Materialize every cell (size() scenarios, labels and indices set).
  [[nodiscard]] std::vector<Scenario> expand() const;

  [[nodiscard]] const core::SimulationConfig& base() const noexcept { return base_; }

 private:
  core::SimulationConfig base_{};
  std::vector<core::PolicyConfig> policies_;
  std::vector<geo::Region> regions_;
  std::vector<DeviceMix> mixes_;
  std::vector<std::uint32_t> epochs_;
  std::vector<double> rtt_limits_;
  std::vector<double> latency_bands_;
  std::vector<double> arrival_rates_;
  std::vector<std::uint32_t> defer_epochs_;
  std::vector<std::string> forecasters_;
  std::vector<MigrationSpec> migrations_;
  std::vector<FailureSpec> failures_;
  std::vector<std::uint64_t> seeds_;
};

}  // namespace carbonedge::runner
