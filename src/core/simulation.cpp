#include "core/simulation.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "carbon/caltime.hpp"
#include "geo/site.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace carbonedge::core {

namespace {

obs::Phase& epoch_phase() {
  static obs::Phase phase("core.epoch_step");
  return phase;
}

// Run-level result counters mirrored into the registry once per finished
// engine (batch cells and serve runs alike). Each is a sum of per-cell
// integers, so the process totals are byte-identical across thread counts
// — deterministic view.
struct SimMetrics {
  obs::Counter& runs;
  obs::Counter& epochs;
  obs::Counter& apps_placed;
  obs::Counter& apps_rejected;
  obs::Counter& apps_deferred;
  obs::Counter& apps_expired_deferred;
  obs::Counter& apps_redeployed;
  obs::Counter& migrations;
  obs::Counter& migrations_skipped;
  obs::Counter& server_failures;
  obs::Counter& app_downtime_epochs;
};

SimMetrics& sim_metrics() {
  obs::Registry& registry = obs::Registry::global();
  static SimMetrics metrics{
      registry.counter("sim.runs", "simulation engines finished",
                       obs::View::kDeterministic),
      registry.counter("sim.epochs", "epochs stepped across all finished runs",
                       obs::View::kDeterministic),
      registry.counter("sim.apps_placed", "applications placed",
                       obs::View::kDeterministic),
      registry.counter("sim.apps_rejected", "applications rejected",
                       obs::View::kDeterministic),
      registry.counter("sim.apps_deferred", "arrivals temporally shifted",
                       obs::View::kDeterministic),
      registry.counter("sim.apps_expired_deferred",
                       "deferred arrivals that expired before the horizon",
                       obs::View::kDeterministic),
      registry.counter("sim.apps_redeployed", "applications re-placed after a crash",
                       obs::View::kDeterministic),
      registry.counter("sim.migrations", "re-optimization moves applied",
                       obs::View::kDeterministic),
      registry.counter("sim.migrations_skipped", "moves vetoed by the cost-aware filter",
                       obs::View::kDeterministic),
      registry.counter("sim.server_failures", "server crashes (drawn + injected)",
                       obs::View::kDeterministic),
      registry.counter("sim.app_downtime_epochs", "epochs displaced apps spent parked",
                       obs::View::kDeterministic)};
  return metrics;
}

/// Displaced-app sentinel: crash victims whose redeployment is not a
/// data-movement migration.
constexpr std::size_t kNoAccountedSite = static_cast<std::size_t>(-1);

/// Each site's trace, in site order.
std::vector<std::shared_ptr<const carbon::CarbonTrace>> resolve_site_traces(
    const sim::EdgeCluster& cluster, const carbon::CarbonIntensityService& carbon) {
  std::vector<std::shared_ptr<const carbon::CarbonTrace>> traces;
  traces.reserve(cluster.size());
  for (const sim::EdgeDataCenter& site : cluster.sites()) {
    traces.push_back(carbon.shared_trace(site.zone()));
  }
  return traces;
}

/// The solver options an engine places with: the config's own, with an
/// unset dispatch budget taken from the engine's.
solver::AssignmentOptions with_budget(solver::AssignmentOptions options,
                                      util::ParallelismBudget* budget) {
  if (options.budget == nullptr) options.budget = budget;
  return options;
}

}  // namespace

SimulationEngine::SimulationEngine(sim::EdgeCluster cluster,
                                   const carbon::CarbonIntensityService& carbon,
                                   const geo::LatencyProvider& latency,
                                   const SimulationConfig& config,
                                   util::ParallelismBudget* budget)
    : config_(config),
      cluster_(std::move(cluster)),
      carbon_(&carbon),
      latency_(&latency),
      site_traces_(resolve_site_traces(cluster_, carbon)),
      site_mean_intensity_(site_traces_.size()),
      service_(config.policy, with_budget(config.solver_options, budget)),
      power_manager_(config.power),
      failure_rng_(config.failures.seed) {}

carbon::HourIndex SimulationEngine::hour_of(std::uint32_t epoch) const noexcept {
  return static_cast<carbon::HourIndex>(
      config_.start_hour + static_cast<carbon::HourIndex>(std::floor(
                               static_cast<double>(epoch) * config_.epoch_hours)));
}

sim::EdgeServer& SimulationEngine::find_server(std::size_t site, std::uint32_t server_id) {
  for (sim::EdgeServer& server : cluster_.sites()[site].servers()) {
    if (server.id() == server_id) return server;
  }
  throw std::logic_error("hosted app references unknown server");
}

void SimulationEngine::snapshot_hosted() {
  hosted_snapshot_.clear();
  hosted_snapshot_.reserve(hosted_.size());
  // lint: unordered-iteration-ok(this IS the serial snapshot: bucket order is a pure function of the deterministic insert/erase history, so every run replays the same order)
  for (const auto& [id, entry] : hosted_) hosted_snapshot_.emplace_back(id, &entry);
}

void SimulationEngine::crash_server(std::size_t site, sim::EdgeServer& server,
                                    std::uint32_t epoch, std::vector<sim::Application>& batch,
                                    std::uint32_t& epoch_failures) {
  // Re-batch the apps that were on the crashed server. Marking them
  // displaced keeps them alive (retried, never counted as fresh
  // rejections) if the shrunken cluster cannot re-place them at once.
  // lint: unordered-iteration-ok(coordinator-only erase walk; bucket order determines batch order, which is itself a deterministic function of the insert/erase history — no fp accumulation here)
  for (auto it = hosted_.begin(); it != hosted_.end();) {
    if (it->second.site == site && it->second.server == server.id()) {
      displaced_from_.insert_or_assign(it->first, kNoAccountedSite);
      batch.push_back(it->second.app);
      ++result_.apps_redeployed;
      it = hosted_.erase(it);
    } else {
      ++it;
    }
  }
  server.set_failed(true);
  under_repair_[{site, server.id()}] = epoch + config_.failures.repair_epochs;
  ++result_.server_failures;
  ++epoch_failures;
}

void SimulationEngine::step(std::vector<sim::Application> arrivals,
                            const StepOptions& options) {
  if (finished_) throw std::logic_error("SimulationEngine::step after finish()");
  if (epoch_ >= config_.epochs) {
    throw std::logic_error("SimulationEngine::step beyond configured horizon");
  }
  // Site indices from outside (an event feed) are checked before any state
  // changes: they index the latency rows and the per-site traces unchecked.
  for (const sim::Application& app : arrivals) {
    if (app.origin_site >= cluster_.size()) {
      throw std::invalid_argument("arrival: origin_site " + std::to_string(app.origin_site) +
                                  " out of range");
    }
  }
  for (const ServerFailureEvent& event : options.failures) {
    if (event.site >= cluster_.size()) {
      throw std::invalid_argument("failure event: site " + std::to_string(event.site) +
                                  " out of range");
    }
  }
  const obs::Span span(epoch_phase());
  const std::uint32_t epoch = epoch_;
  const carbon::HourIndex hour = hour_of(epoch);

  const carbon::Forecaster& forecaster = carbon_->forecaster();
  // Mean forecast intensity Ī of each site's zone at `hour`, forecast once
  // per site per epoch; everything below reads it by site index.
  for (std::size_t site = 0; site < site_traces_.size(); ++site) {
    site_mean_intensity_[site] =
        forecaster.mean_forecast(*site_traces_[site], hour, config_.forecast_horizon_hours);
  }

  // Expected per-epoch operational carbon of `app` on `server` (at `site`)
  // at `hour`.
  const auto carbon_rate_g = [&](const sim::Application& app, const sim::EdgeServer& server,
                                 std::size_t site) {
    const sim::ProfileResult prof = sim::profile_of(app.model, server.device());
    if (!prof.supported) return -1.0;
    const double energy_wh = prof.profile.energy_j * app.rps * config_.epoch_hours;
    return energy_wh / 1000.0 * site_mean_intensity_[site];
  };

  // Migration data-movement cost of moving `app` out of `site` at `hour`.
  const auto migration_cost = [&](const sim::Application& app, std::size_t site) {
    const double energy_wh =
        app.state_size_mb / 1024.0 * config_.migration.network_energy_wh_per_gb;
    const double carbon_g = energy_wh / 1000.0 * site_mean_intensity_[site];
    return std::pair{energy_wh, carbon_g};
  };

  std::uint32_t epoch_failures = 0;
  std::uint32_t epoch_migrations = 0;
  double epoch_migration_energy = 0.0;
  double epoch_migration_carbon = 0.0;
  std::vector<sim::Application> batch;

  // 1. Repairs, then injected failures, then fresh drawn failures.
  for (auto it = under_repair_.begin(); it != under_repair_.end();) {
    if (epoch >= it->second) {
      sim::EdgeServer& server = find_server(it->first.first, it->first.second);
      server.set_failed(false);
      server.set_powered_on(true);
      it = under_repair_.erase(it);
    } else {
      ++it;
    }
  }
  // Event-stream crashes first, in stream order: a server the feed reports
  // dead must not also consume a Bernoulli draw below (it is no longer
  // eligible), and with an empty span this block is a no-op — the drawn
  // failure stream is untouched, which the replay oracle relies on.
  for (const ServerFailureEvent& event : options.failures) {
    sim::EdgeServer& server = find_server(event.site, event.server_id);
    if (server.failed()) continue;  // already down: repair timer keeps running
    crash_server(event.site, server, epoch, batch, epoch_failures);
  }
  if (config_.failures.mtbf_epochs > 0.0) {
    const double fail_p = 1.0 / config_.failures.mtbf_epochs;
    // One Bernoulli per eligible (powered-on, healthy) server in site/server
    // order. Crashing a server never changes another's power or failure
    // state, so eligibility is stable across the pass.
    for (std::size_t site = 0; site < cluster_.size(); ++site) {
      for (sim::EdgeServer& server : cluster_.sites()[site].servers()) {
        if (!server.powered_on() || server.failed()) continue;
        if (!failure_rng_.bernoulli(fail_p)) continue;
        crash_server(site, server, epoch, batch, epoch_failures);
      }
    }
  }

  // 2. Departures. Guarded decrement: an application admitted with
  // remaining_epochs == 0 departs immediately instead of underflowing to
  // ~4B epochs and becoming immortal.
  // lint: unordered-iteration-ok(coordinator-only erase walk over deterministic bucket order; evictions commute and nothing is accumulated in fp)
  for (auto it = hosted_.begin(); it != hosted_.end();) {
    if (it->second.app.remaining_epochs <= 1) {
      find_server(it->second.site, it->second.server).evict(it->first);
      it = hosted_.erase(it);
    } else {
      --it->second.app.remaining_epochs;
      ++it;
    }
  }

  // 3. Arrivals — immediately placeable or deferred (temporal shifting,
  //    paper Section 2.2) — plus periodic re-optimization of live apps.
  for (sim::Application& app : arrivals) {
    if (app.max_defer_epochs > 0) {
      ++result_.apps_deferred;
      deferred_.push_back(std::move(app));
    } else {
      batch.push_back(std::move(app));
    }
  }
  // Release deferred applications at low-intensity hours: start when the
  // origin zone's current intensity is no worse than anything the
  // remaining defer budget could buy (the "wait awhile" heuristic), or
  // when the budget runs out. Starters join the batch, the rest spend one
  // epoch of budget; the stable in-place compaction preserves the old
  // erase-as-you-go order.
  std::size_t keep = 0;
  for (std::size_t k = 0; k < deferred_.size(); ++k) {
    sim::Application& app = deferred_[k];
    bool start = app.max_defer_epochs == 0;
    if (!start) {
      const carbon::CarbonTrace& trace = *site_traces_[app.origin_site];
      const double now_ci = trace.at(hour);
      const auto window = static_cast<std::uint32_t>(
          std::ceil(static_cast<double>(app.max_defer_epochs) * config_.epoch_hours));
      double future_min = now_ci;
      for (const double v : forecaster.forecast(trace, hour + 1, window)) {
        future_min = std::min(future_min, v);
      }
      start = now_ci <= future_min * 1.02;
    }
    if (start) {
      batch.push_back(std::move(app));
    } else {
      --app.max_defer_epochs;
      if (keep != k) deferred_[keep] = std::move(app);
      ++keep;
    }
  }
  deferred_.resize(keep);
  // Re-optimization cadence: an explicit per-step override (the serving
  // mode's event-driven trigger), calendar-month boundaries (the epoch
  // whose hour enters a new month), or a fixed epoch period.
  bool migrate = false;
  if (epoch != 0) {
    if (options.migrate.has_value()) {
      migrate = *options.migrate;
    } else if (config_.reoptimize_monthly) {
      migrate = carbon::month_of_hour(hour) != carbon::month_of_hour(hour_of(epoch - 1));
    } else {
      migrate = config_.reoptimize_every != 0 && epoch % config_.reoptimize_every == 0;
    }
  }
  // Where each re-optimization candidate was hosted before being evicted
  // into the batch — for data-movement accounting on moves, and to restore
  // the app if the solver rejects it.
  struct PreviousPlacement {
    std::size_t site = 0;
    std::uint32_t server = 0;
  };
  std::unordered_map<sim::AppId, PreviousPlacement> previous_placement;
  if (migrate) {
    std::vector<sim::AppId> to_move;
    snapshot_hosted();
    for (const auto& [id, hosted] : hosted_snapshot_) {
      if (config_.migration.cost_aware) {
        // Veto moves whose projected benefit cannot repay the transfer.
        const HostedApp& entry = *hosted;
        const sim::EdgeServer& current = find_server(entry.site, entry.server);
        const double current_rate = carbon_rate_g(entry.app, current, entry.site);
        double best_rate = current_rate;
        // Only the origin's row, walked as (site, one-way ms): sites outside
        // it are +inf RTT, i.e. exactly the ones the filter below would drop.
        const std::span<const std::uint32_t> row_sites =
            latency_->neighbors(entry.app.origin_site);
        const std::span<const double> row_ms = latency_->row_ms(entry.app.origin_site);
        for (std::size_t k = 0; k < row_sites.size(); ++k) {
          if (2.0 * row_ms[k] > entry.app.latency_limit_rtt_ms + 1e-9) continue;
          const std::size_t site = row_sites[k];
          for (const sim::EdgeServer& server : cluster_.sites()[site].servers()) {
            if (!server.can_host(entry.app.model, entry.app.rps)) continue;
            const double rate = carbon_rate_g(entry.app, server, site);
            if (rate >= 0.0) best_rate = std::min(best_rate, rate);
          }
        }
        const double lifetime = std::min<double>(config_.migration.benefit_horizon_epochs,
                                                 entry.app.remaining_epochs);
        const double benefit = (current_rate - best_rate) * lifetime;
        const auto [move_energy, move_carbon] = migration_cost(entry.app, entry.site);
        if (benefit < move_carbon * config_.migration.hysteresis) {
          ++result_.migrations_skipped;
          continue;
        }
      }
      to_move.push_back(id);
    }
    for (const sim::AppId id : to_move) {
      auto& entry = hosted_.at(id);
      find_server(entry.site, entry.server).evict(id);
      previous_placement.emplace(id, PreviousPlacement{entry.site, entry.server});
      batch.push_back(entry.app);
      hosted_.erase(id);
    }
  }

  // 4. Placement (Algorithm 1) + deployment.
  PlacementInput input;
  input.cluster = &cluster_;
  input.latency = latency_;
  input.site_mean_intensity = &site_mean_intensity_;
  input.epoch_hours = config_.epoch_hours;
  const PlacementResult placement = service_.place(input, batch);
  orchestrator_.deploy(placement);

  std::unordered_map<sim::AppId, const sim::Application*> by_id;
  by_id.reserve(batch.size());
  for (const sim::Application& app : batch) by_id.emplace(app.id, &app);
  // Charge the data movement of an app that left `from_site` this epoch.
  const auto account_move = [&](const sim::Application& app, std::size_t from_site) {
    const auto [move_energy, move_carbon] = migration_cost(app, from_site);
    epoch_migration_energy += move_energy;
    epoch_migration_carbon += move_carbon;
    ++epoch_migrations;
    ++result_.migrations;
  };
  for (const PlacementDecision& decision : placement.decisions) {
    hosted_.emplace(decision.app,
                    HostedApp{*by_id.at(decision.app), decision.site, decision.server});
    // Account data movement for re-optimized (or earlier-displaced) apps
    // that changed site.
    const auto prev = previous_placement.find(decision.app);
    const auto limbo = displaced_from_.find(decision.app);
    if (prev != previous_placement.end()) {
      if (prev->second.site != decision.site) {
        account_move(*by_id.at(decision.app), prev->second.site);
      }
    } else if (limbo != displaced_from_.end()) {
      if (limbo->second != kNoAccountedSite && limbo->second != decision.site) {
        account_move(*by_id.at(decision.app), limbo->second);
      }
      displaced_from_.erase(limbo);
    }
  }

  // A live application must never be lost to a re-optimization attempt:
  // if the solver rejected an evicted migrant (e.g. capacity shrank after
  // a failure), put it back on its previous server — the evict freed that
  // capacity, so it is normally reclaimable — and count the non-move as a
  // skipped migration, not a rejection. Only fresh arrivals can be
  // genuinely rejected.
  std::uint32_t fresh_rejected = 0;
  for (const sim::AppId id : placement.rejected) {
    const auto prev = previous_placement.find(id);
    const auto limbo = displaced_from_.find(id);
    if (prev == previous_placement.end() && limbo == displaced_from_.end()) {
      ++fresh_rejected;
      continue;
    }
    const sim::Application& app = *by_id.at(id);
    const std::size_t home_site =
        prev != previous_placement.end() ? prev->second.site : limbo->second;
    sim::EdgeServer* target = nullptr;
    std::size_t target_site = home_site;
    if (prev != previous_placement.end()) {
      sim::EdgeServer& old_server = find_server(prev->second.site, prev->second.server);
      if (old_server.powered_on() && old_server.can_host(app.model, app.rps)) {
        target = &old_server;
      }
    }
    if (target == nullptr) {
      // The slot is gone (taken by a competing batch member, or the app
      // has been in limbo since an earlier epoch); fall back to the first
      // powered-on latency-feasible server with headroom. can_host() does
      // not cover power state, and activating a cold server here would
      // bypass the optimizer's Eq. 5 activation decision, so off servers
      // are skipped.
      // The origin's row, as in the veto scan: sites stay in ascending
      // order, so "first feasible" is the lowest such site's server.
      const std::span<const std::uint32_t> row_sites = latency_->neighbors(app.origin_site);
      const std::span<const double> row_ms = latency_->row_ms(app.origin_site);
      for (std::size_t k = 0; k < row_sites.size() && target == nullptr; ++k) {
        if (2.0 * row_ms[k] > app.latency_limit_rtt_ms + 1e-9) continue;
        const std::size_t site = row_sites[k];
        for (sim::EdgeServer& server : cluster_.sites()[site].servers()) {
          if (server.powered_on() && server.can_host(app.model, app.rps)) {
            target = &server;
            target_site = site;
            break;
          }
        }
      }
    }
    if (prev != previous_placement.end() &&
        (target == nullptr || target_site == home_site)) {
      // The optimizer's intended migration did not happen and the app
      // stayed (or parked) at home; landing on another site is instead a
      // real move, charged below.
      ++result_.migrations_skipped;
    }
    if (target != nullptr) {
      target->host(sim::AppInstance{id, app.model, app.rps});
      hosted_.emplace(id, HostedApp{app, target_site, target->id()});
      // Landing away from the app's previous site is a real (forced)
      // move and pays the transfer emissions like any other migration —
      // except for crash victims, whose old server is gone.
      if (home_site != kNoAccountedSite && target_site != home_site) {
        account_move(app, home_site);
      }
      if (limbo != displaced_from_.end()) displaced_from_.erase(limbo);
    } else {
      // No capacity anywhere this epoch (another app took the freed slot
      // and the cluster is saturated): keep the app alive and retry at the
      // next epoch via the deferral queue rather than dropping it. The
      // epoch it sits out is real downtime for a live app — account it.
      displaced_from_.insert_or_assign(id, home_site);
      ++result_.app_downtime_epochs;
      sim::Application retry = app;
      retry.max_defer_epochs = 0;
      deferred_.push_back(std::move(retry));
    }
  }
  result_.apps_placed += placement.decisions.size();
  result_.apps_rejected += fresh_rejected;
  result_.migration_energy_wh += epoch_migration_energy;
  result_.migration_carbon_g += epoch_migration_carbon;

  // 5. Accounting.
  sim::EpochRecord record;
  record.epoch = epoch;
  record.apps_placed = static_cast<std::uint32_t>(placement.decisions.size());
  record.apps_rejected = fresh_rejected;
  record.migration_energy_wh = epoch_migration_energy;
  record.migration_carbon_g = epoch_migration_carbon;
  record.migrations = epoch_migrations;
  record.failures = epoch_failures;
  // One record per site in site order, then each hosted app's latency
  // sample folds into the epoch sums and the response histogram in
  // snapshot order.
  record.sites.reserve(cluster_.size());
  for (std::size_t site = 0; site < cluster_.size(); ++site) {
    record.sites.push_back(sim::make_site_epoch_record(
        cluster_.sites()[site], site_traces_[site]->at(hour), config_.epoch_hours,
        config_.account_base_power));
  }
  snapshot_hosted();
  for (const auto& hosted : hosted_snapshot_) {
    const HostedApp& entry = *hosted.second;
    const double rtt = 2.0 * latency_->one_way_ms(entry.app.origin_site, entry.site);
    const sim::EdgeServer& server = find_server(entry.site, entry.server);
    const double response = rtt + server.mean_service_ms(entry.app.model);
    const double rps = entry.app.rps;
    record.rtt_weighted_sum_ms += rtt * rps;
    record.response_weighted_sum_ms += response * rps;
    record.rps_total += rps;
    result_.telemetry.add_response_sample(response, rps);
  }
  result_.telemetry.record(std::move(record));

  // 6. Power management between epochs.
  power_manager_.sweep(cluster_);

  epoch_ = epoch + 1;
}

SimulationResult SimulationEngine::finish() {
  if (finished_) throw std::logic_error("SimulationEngine::finish called twice");
  finished_ = true;

  // Deferred applications whose start never came before the horizon ran out
  // are accounted explicitly so placed + rejected + expired reconcile.
  // Displaced retries parked in the same queue were already counted in
  // apps_placed at admission, so they are excluded.
  for (const sim::Application& app : deferred_) {
    if (!displaced_from_.contains(app.id)) ++result_.apps_expired_deferred;
  }

  result_.mean_deploy_ms = orchestrator_.mean_deploy_ms();

  // Mirror the run's counters into the process registry (integer sums over
  // cells commute, so the totals are thread-count independent even when
  // engines finish on worker lanes in arbitrary order).
  SimMetrics& metrics = sim_metrics();
  metrics.runs.add();
  metrics.epochs.add(epoch_);
  metrics.apps_placed.add(result_.apps_placed);
  metrics.apps_rejected.add(result_.apps_rejected);
  metrics.apps_deferred.add(result_.apps_deferred);
  metrics.apps_expired_deferred.add(result_.apps_expired_deferred);
  metrics.apps_redeployed.add(result_.apps_redeployed);
  metrics.migrations.add(result_.migrations);
  metrics.migrations_skipped.add(result_.migrations_skipped);
  metrics.server_failures.add(result_.server_failures);
  metrics.app_downtime_epochs.add(result_.app_downtime_epochs);
  return std::move(result_);
}

EdgeSimulation::EdgeSimulation(sim::EdgeCluster cluster,
                               const carbon::CarbonIntensityService& carbon,
                               geo::LatencyModel latency_model,
                               double latency_band_one_way_ms)
    : pristine_(std::move(cluster)), carbon_(&carbon) {
  const std::vector<geo::City> cities = pristine_.cities();
  latency_ = latency_band_one_way_ms > 0.0
                 ? geo::LatencyProvider(latency_model, cities, latency_band_one_way_ms)
                 : geo::LatencyProvider(latency_model, cities);
  for (const geo::City& city : cities) {
    if (!carbon_->has_zone(city.name)) {
      throw std::invalid_argument("carbon service has no trace for zone " + city.name);
    }
  }
}

SimulationResult EdgeSimulation::run(const SimulationConfig& config) {
  // Fresh state per run: the engine starts from a pristine cluster copy and
  // the workload stream depends only on the config seed.
  SimulationEngine engine(pristine_, *carbon_, latency_, config, budget_);
  sim::WorkloadGenerator generator(config.workload, engine.cluster());
  for (std::uint32_t epoch = 0; epoch < config.epochs; ++epoch) {
    engine.step(generator.arrivals(epoch));
  }
  return engine.finish();
}

std::vector<SimulationResult> run_policies(EdgeSimulation& simulation,
                                           const SimulationConfig& base_config,
                                           const std::vector<PolicyConfig>& policies) {
  std::vector<SimulationResult> results;
  results.reserve(policies.size());
  for (const PolicyConfig& policy : policies) {
    SimulationConfig config = base_config;
    config.policy = policy;
    results.push_back(simulation.run(config));
  }
  return results;
}

double carbon_saving(const SimulationResult& baseline, const SimulationResult& candidate) {
  const double base = baseline.telemetry.total_carbon_g();
  if (base <= 0.0) return 0.0;
  return (base - candidate.telemetry.total_carbon_g()) / base;
}

double latency_increase_ms(const SimulationResult& baseline, const SimulationResult& candidate) {
  return candidate.telemetry.mean_rtt_ms() - baseline.telemetry.mean_rtt_ms();
}

}  // namespace carbonedge::core
