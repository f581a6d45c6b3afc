// Trace-driven edge simulation engine (the paper's CarbonEdge simulator,
// Section 5.2): drives a cluster through placement epochs against carbon
// and latency traces, with application arrivals/departures, optional
// periodic re-optimization (migration), power management, and telemetry.
#pragma once

#include <map>
#include <memory>
#include <memory_resource>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "carbon/caltime.hpp"
#include "carbon/service.hpp"
#include "carbon/trace.hpp"
#include "core/orchestrator.hpp"
#include "core/placement_service.hpp"
#include "core/policy.hpp"
#include "core/power_manager.hpp"
#include "core/problem.hpp"
#include "geo/latency.hpp"
#include "sim/datacenter.hpp"
#include "sim/server.hpp"
#include "sim/telemetry.hpp"
#include "sim/workload.hpp"
#include "solver/assignment.hpp"
#include "util/random.hpp"

namespace carbonedge::util {
class ParallelismBudget;
}

namespace carbonedge::core {

/// Data-movement cost model for migrations (the paper's Section 9 future
/// work): moving an application transfers its state_size_mb across the
/// network at an energy cost per gigabyte; the resulting emissions are
/// charged to the epoch at the origin zone's intensity.
struct MigrationConfig {
  /// End-to-end network+storage energy per GB moved (NICs, switches,
  /// transit; literature values run 20-140 Wh/GB for WAN paths).
  double network_energy_wh_per_gb = 60.0;
  /// When true, re-optimization only moves an application if its predicted
  /// carbon saving over `benefit_horizon_epochs` exceeds the migration
  /// emissions by `hysteresis` (guards against churn).
  bool cost_aware = false;
  double benefit_horizon_epochs = 24.0;
  double hysteresis = 1.2;
};

/// Crash-failure injection: each powered-on server fails independently per
/// epoch with probability 1/mtbf_epochs, drops its applications (the engine
/// redeploys them through the placement service, Figure 6 step 1), and
/// returns to service after repair_epochs.
struct FailureConfig {
  double mtbf_epochs = 0.0;  // 0 disables failure injection
  std::uint32_t repair_epochs = 8;
  std::uint64_t seed = 0xFA11ED5EULL;
};

struct SimulationConfig {
  PolicyConfig policy;
  carbon::HourIndex start_hour = 0;
  std::uint32_t epochs = 24;
  double epoch_hours = 1.0;
  sim::WorkloadParams workload;
  std::uint32_t forecast_horizon_hours = 1;
  PowerManagerConfig power;
  /// Re-place every live application every N epochs (0 = placements are
  /// sticky for an app's lifetime). The seasonality experiments migrate
  /// monthly.
  std::uint32_t reoptimize_every = 0;
  /// Re-optimize at the first epoch of each calendar month instead of a
  /// fixed cadence (aligned with carbon::month_start_hour/days_in_month, so
  /// migration windows match the monthly reporting windows; a fixed
  /// "31 * 8 epochs" cadence drifts off-calendar from February onward).
  /// Takes precedence over reoptimize_every when set.
  bool reoptimize_monthly = false;
  MigrationConfig migration;
  FailureConfig failures;
  solver::AssignmentOptions solver_options;
  /// When true, site energy includes base power of powered-on servers; when
  /// false, accounting is application-attributable (dynamic energy plus
  /// activation), matching the paper's per-application emission reporting.
  bool account_base_power = false;
};

struct SimulationResult {
  sim::Telemetry telemetry;
  double mean_deploy_ms = 0.0;
  std::uint64_t apps_placed = 0;
  std::uint64_t apps_rejected = 0;
  std::uint64_t migrations = 0;           // re-optimization moves applied
  std::uint64_t migrations_skipped = 0;   // vetoed by the cost-aware filter
  double migration_energy_wh = 0.0;       // data-movement energy
  double migration_carbon_g = 0.0;        // data-movement emissions
  std::uint64_t server_failures = 0;
  std::uint64_t apps_redeployed = 0;      // re-placed after a crash
  std::uint64_t apps_deferred = 0;        // arrivals with max_defer_epochs > 0,
                                          // whether or not they started late
  /// Deferred arrivals whose start was still pending when the simulated
  /// horizon ran out — never placed nor rejected, and without this counter
  /// placed+rejected totals would not reconcile with arrivals. Excludes
  /// displaced live apps awaiting re-placement (already in apps_placed).
  std::uint64_t apps_expired_deferred = 0;
  /// Epochs of downtime served by displaced live applications: a rejected
  /// migrant or crash victim that found no server this epoch survives in
  /// the retry queue, but it hosts no requests until it lands again. Each
  /// epoch spent parked adds one.
  std::uint64_t app_downtime_epochs = 0;
};

/// An externally injected server crash (the serving mode's failure events).
/// Applied ahead of the engine's own MTBF sampling, through the same
/// displacement/repair path as a drawn failure.
struct ServerFailureEvent {
  std::size_t site = 0;
  std::uint32_t server_id = 0;
};

/// The epoch state machine extracted from EdgeSimulation::run: one instance
/// holds a run's full mutable state (cluster, hosted/deferred/displaced
/// queues, failure stream, telemetry) and advances one epoch per step().
///
/// Two drivers exist: EdgeSimulation::run feeds it WorkloadGenerator
/// arrivals on a fixed horizon (the batch engine), and serve::EventLoop
/// feeds it event-stream arrivals bucketed into epoch-aligned windows (the
/// streaming engine). Both run the *same* epoch body, which is what makes
/// the serve replay oracle exact: an epoch-aligned replay of the same
/// arrival stream reproduces the batch counters bit for bit.
///
/// step() runs one epoch as a fixed sequence of phases, each a private
/// member under its own `core.step.<phase>` span inside `core.epoch_step`:
///   1. check_inputs        range-check the fed sites and servers and map
///                          each failure to its column (no span; throws
///                          before any state changes)
///   2. fill_site_intensity Ī per site at the epoch's hour
///   3. apply_failures      repairs, then injected, then drawn crashes
///   4. depart              apps whose lifetime ran out leave
///   5. admit_and_release   arrivals join the batch or the deferral queue;
///                          deferred apps whose hour has come are released
///   6. evict_migrants      cadence decision, cost-aware veto, evictions;
///                          its span, `core.step.reopt`, opens only on
///                          re-optimization epochs
///   7. place               Algorithm 1 and deployment (`core.place`)
///   8. commit              host the decisions, restore rejected migrants
///   9. account_sites       one record per site
///  10. fold_app_samples    each hosted app's latency sample
///  11. power_sweep         power management between epochs
/// The phases share one Epoch record (epoch, hour, batch and the
/// EpochRecord being built), passed by reference.
///
/// Threading: an engine is serial; the epoch body and the placement
/// solver's components all run on the calling thread.
class SimulationEngine {
 public:
  /// `cluster` is the initial state (a pristine copy, never shared).
  /// `latency` and `carbon` must outlive the engine. Each site's trace is
  /// resolved here, once, so construction throws std::out_of_range when
  /// `carbon` has no trace for a site's zone, and the placement layout is
  /// built here too, so it throws std::invalid_argument when `latency` does
  /// not cover exactly the cluster's sites. `budget` is unused; the ledger
  /// bench (bench/ledger/) still passes one.
  SimulationEngine(sim::EdgeCluster cluster, const carbon::CarbonIntensityService& carbon,
                   const geo::LatencyProvider& latency, const SimulationConfig& config,
                   util::ParallelismBudget* budget = nullptr);
  SimulationEngine(const SimulationEngine&) = delete;
  SimulationEngine& operator=(const SimulationEngine&) = delete;

  struct StepOptions {
    /// Overrides the config's re-optimization cadence for this epoch when
    /// set (the serving mode's event-driven trigger); unset keeps the
    /// calendar/fixed-period decision. Epoch 0 never migrates either way.
    std::optional<bool> migrate;
    /// Crashes injected from the event stream, applied in span order.
    std::span<const ServerFailureEvent> failures;
  };

  /// Advance one epoch with the given arrival batch (the epoch's index is
  /// next_epoch()). Throws std::logic_error once the configured horizon is
  /// exhausted.
  void step(std::vector<sim::Application> arrivals, const StepOptions& options = {});

  /// Epoch index the next step() will run (== steps taken so far).
  [[nodiscard]] std::uint32_t next_epoch() const noexcept { return epoch_; }
  [[nodiscard]] carbon::HourIndex hour_of(std::uint32_t epoch) const noexcept;
  [[nodiscard]] const SimulationConfig& config() const noexcept { return config_; }
  [[nodiscard]] const sim::EdgeCluster& cluster() const noexcept { return cluster_; }
  /// Running counters and telemetry (one EpochRecord per completed step).
  [[nodiscard]] const SimulationResult& partial() const noexcept { return result_; }
  /// Mutable telemetry access (the serve loop attaches its per-window
  /// response-histogram sink here; never needed by the batch driver).
  [[nodiscard]] sim::Telemetry& telemetry() noexcept { return result_.telemetry; }

  /// Final accounting (expired-deferred reconciliation, deploy mean). The
  /// engine is spent afterwards — step() must not be called.
  [[nodiscard]] SimulationResult finish();

 private:
  // Where an app runs, fixed from the epoch it lands until it leaves: its
  // server as a layout column (an index, not a scan; site_of gives its
  // site) and the round trip from its origin, read by the accounting fold.
  struct HostedApp {
    sim::Application app;
    std::size_t column = 0;
    double rtt_ms = 0.0;
  };

  // Where a displaced app last ran (see displaced_from_).
  struct Displacement {
    std::size_t site = 0;
    std::size_t column = 0;
  };
  struct Epoch;  // the per-epoch record step() threads through its phases

  // step()'s phases, in the order it runs them (see the class comment).
  [[nodiscard]] std::vector<std::size_t> check_inputs(
      std::span<const sim::Application> arrivals,
      std::span<const ServerFailureEvent> failures) const;
  void fill_site_intensity(const Epoch& epoch);
  void apply_failures(Epoch& epoch, std::span<const std::size_t> failed_columns);
  void depart();
  void admit_and_release(Epoch& epoch, std::vector<sim::Application> arrivals);
  void evict_migrants(Epoch& epoch, std::optional<bool> migrate_override);
  [[nodiscard]] PlacementResult place(const Epoch& epoch);
  void commit(Epoch& epoch, const PlacementResult& placement);
  void account_sites(Epoch& epoch) const;
  void fold_app_samples(Epoch& epoch);
  void power_sweep();

  [[nodiscard]] sim::EdgeServer& server_at(std::size_t column) {
    return *layout_.servers()[column].server;
  }
  [[nodiscard]] std::size_t site_of(std::size_t column) const {
    return layout_.servers()[column].site;
  }
  /// Crash the server at `column`: displace its apps into the epoch's
  /// batch, mark it failed, and schedule the repair. Shared by drawn and
  /// injected failures.
  void crash_server(Epoch& epoch, std::size_t column);
  /// The cost-aware filter: true when moving `entry` cannot repay its
  /// transfer emissions.
  [[nodiscard]] bool vetoes_move(const HostedApp& entry);
  /// Put a rejected migrant or displaced app back on a server, or park it
  /// for the next epoch. False when `app` is a fresh arrival, which is a
  /// genuine rejection.
  bool restore_migrant(Epoch& epoch, const sim::Application& app);
  /// Expected per-epoch operational carbon of `app` on `server` at `site`
  /// (-1 when the server's device cannot run the model).
  [[nodiscard]] double carbon_rate_g(const sim::Application& app, const sim::EdgeServer& server,
                                     std::size_t site) const;
  /// Data-movement (energy Wh, carbon g) of moving `app` out of `site`.
  [[nodiscard]] std::pair<double, double> migration_cost(const sim::Application& app,
                                                         std::size_t site) const;
  /// Charge the data movement of an app that left `from_site` this epoch.
  void account_move(Epoch& epoch, const sim::Application& app, std::size_t from_site);

  SimulationConfig config_;
  sim::EdgeCluster cluster_;
  const carbon::CarbonIntensityService* carbon_;
  const geo::LatencyProvider* latency_;
  // cluster_'s columns and per-origin latency bands, built once: placement
  // builds its problems on it, and hosted apps name their servers by column.
  PlacementLayout layout_;
  // Site s's carbon trace (carbon_->shared_trace of its zone), resolved at
  // construction so per-site queries index instead of hashing the zone.
  std::vector<std::shared_ptr<const carbon::CarbonTrace>> site_traces_;
  // Refilled by fill_site_intensity each step(): Ī per site at the epoch's
  // hour.
  std::vector<double> site_mean_intensity_;
  PlacementService service_;
  PowerManager power_manager_;
  Orchestrator orchestrator_;
  util::Rng failure_rng_;
  SimulationResult result_;
  std::uint32_t epoch_ = 0;
  bool finished_ = false;

  // Pooled nodes: iteration order depends on hashes and history, not addresses.
  std::pmr::unsynchronized_pool_resource hosted_pool_;
  std::pmr::unordered_map<sim::AppId, HostedApp> hosted_{&hosted_pool_};
  // The epoch's placement batch; cleared, not freed, between epochs.
  std::vector<sim::Application> batch_;
  // Failed server's column -> epoch at which it comes back.
  std::map<std::size_t, std::uint32_t> under_repair_;
  // Temporally flexible applications waiting for a low-intensity start.
  std::vector<sim::Application> deferred_;
  // Formerly-hosted applications that lost their server, each with where
  // it last ran: a migrant evicted this epoch keeps its site and column (to
  // charge a move or restore it if rejected), an app parked for a later
  // epoch only its site, and a crash victim neither (kNoAccountedSite,
  // kNoColumn): its redeployment is not a data-movement migration. Parked
  // apps retry through the deferral queue, never as fresh rejections.
  std::unordered_map<sim::AppId, Displacement> displaced_from_;
};

/// Owns a pristine cluster copy; every run() starts from that state, so the
/// same simulation object can evaluate multiple policies on identical
/// workloads (the workload stream depends only on the config seed).
///
/// Threading: run() steps every epoch, placement solves included, serially
/// on the calling thread, so a run's result does not depend on
/// CARBONEDGE_THREADS. Parallelism across runs belongs to
/// runner::ScenarioRunner, which runs cells concurrently.
class EdgeSimulation {
 public:
  /// `latency_band_one_way_ms == 0` builds full latency rows (every site
  /// pair) over the cluster's sites; a positive band keeps only in-band
  /// neighbors (pairs beyond the band are never-feasible), which is what
  /// lets 1000+-site geographies skip the n^2 materialization. The band is a
  /// construction-time property of the geography, not a per-run config
  /// knob, because the serving mode builds engines from latency() directly.
  EdgeSimulation(sim::EdgeCluster cluster, const carbon::CarbonIntensityService& carbon,
                 geo::LatencyModel latency_model = geo::LatencyModel{},
                 double latency_band_one_way_ms = 0.0);

  [[nodiscard]] SimulationResult run(const SimulationConfig& config);

  [[nodiscard]] const geo::LatencyProvider& latency() const noexcept { return latency_; }
  [[nodiscard]] const sim::EdgeCluster& pristine_cluster() const noexcept { return pristine_; }
  [[nodiscard]] const carbon::CarbonIntensityService& carbon_service() const noexcept {
    return *carbon_;
  }

 private:
  sim::EdgeCluster pristine_;
  const carbon::CarbonIntensityService* carbon_;
  geo::LatencyProvider latency_;
};

/// Convenience: run one config for each policy on identical workloads and
/// return results in the same order.
[[nodiscard]] std::vector<SimulationResult> run_policies(
    EdgeSimulation& simulation, const SimulationConfig& base_config,
    const std::vector<PolicyConfig>& policies);

/// Carbon saving of `candidate` relative to `baseline` (fraction in [0,1],
/// negative if the candidate emits more).
[[nodiscard]] double carbon_saving(const SimulationResult& baseline,
                                   const SimulationResult& candidate);

/// Request-weighted mean RTT increase of `candidate` over `baseline` (ms).
[[nodiscard]] double latency_increase_ms(const SimulationResult& baseline,
                                         const SimulationResult& candidate);

}  // namespace carbonedge::core
