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

// The epoch step and its phases (see SimulationEngine's class comment);
// each core.step.* span nests inside core.epoch_step.
struct StepPhases {
  obs::Phase epoch{"core.epoch_step"};
  obs::Phase fill_site_intensity{"core.step.fill_site_intensity"};
  obs::Phase apply_failures{"core.step.apply_failures"};
  obs::Phase depart{"core.step.depart"};
  obs::Phase admit_and_release{"core.step.admit_and_release"};
  obs::Phase reopt{"core.step.reopt"};
  obs::Phase commit{"core.step.commit"};
  obs::Phase account_sites{"core.step.account_sites"};
  obs::Phase fold_app_samples{"core.step.fold_app_samples"};
  obs::Phase power_sweep{"core.step.power_sweep"};
};

StepPhases& phases() {
  static StepPhases phases;
  return phases;
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
      registry.counter("sim.apps_deferred",
                       "arrivals with max_defer_epochs > 0, whether or not they started late",
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

/// Displacement sentinels: the site of a crash victim, whose redeployment
/// is not a data-movement migration, and the column of any displaced app
/// but a migrant evicted this epoch.
constexpr std::size_t kNoAccountedSite = static_cast<std::size_t>(-1);
constexpr std::size_t kNoColumn = static_cast<std::size_t>(-1);

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

}  // namespace

/// The epoch step() is running, shared by its phases.
struct SimulationEngine::Epoch {
  explicit Epoch(std::vector<sim::Application>& batch_buffer) : batch(batch_buffer) {
    batch.clear();
  }

  std::uint32_t index = 0;
  carbon::HourIndex hour = 0;
  /// What placement sees: crash victims, immediate arrivals, released
  /// deferrals and evicted migrants, in that order. The engine's buffer.
  std::vector<sim::Application>& batch;
  /// Filled as the phases run: failures and migrations count into it as
  /// they happen, placement outcomes at commit, sites and samples last.
  sim::EpochRecord record;
};

SimulationEngine::SimulationEngine(sim::EdgeCluster cluster,
                                   const carbon::CarbonIntensityService& carbon,
                                   const geo::LatencyProvider& latency,
                                   const SimulationConfig& config,
                                   util::ParallelismBudget* /*budget*/)
    : config_(config),
      cluster_(std::move(cluster)),
      carbon_(&carbon),
      latency_(&latency),
      layout_(cluster_, latency),
      site_traces_(resolve_site_traces(cluster_, carbon)),
      site_mean_intensity_(site_traces_.size()),
      service_(config.policy, config.solver_options),
      power_manager_(config.power),
      failure_rng_(config.failures.seed) {}

carbon::HourIndex SimulationEngine::hour_of(std::uint32_t epoch) const noexcept {
  return static_cast<carbon::HourIndex>(
      config_.start_hour + static_cast<carbon::HourIndex>(std::floor(
                               static_cast<double>(epoch) * config_.epoch_hours)));
}

void SimulationEngine::snapshot_hosted() {
  hosted_snapshot_.clear();
  hosted_snapshot_.reserve(hosted_.size());
  // lint: unordered-iteration-ok(this IS the serial snapshot: bucket order is a pure function of the deterministic insert/erase history, so every run replays the same order)
  for (const auto& [id, entry] : hosted_) hosted_snapshot_.emplace_back(id, &entry);
}

void SimulationEngine::crash_server(Epoch& epoch, std::size_t column) {
  // Re-batch the apps that were on the crashed server. Marking them
  // displaced keeps them alive (retried, never counted as fresh
  // rejections) if the shrunken cluster cannot re-place them at once.
  // lint: unordered-iteration-ok(coordinator-only erase walk; bucket order determines batch order, which is itself a deterministic function of the insert/erase history — no fp accumulation here)
  for (auto it = hosted_.begin(); it != hosted_.end();) {
    if (it->second.column == column) {
      displaced_from_.insert_or_assign(it->first, Displacement{kNoAccountedSite, kNoColumn});
      epoch.batch.push_back(it->second.app);
      ++result_.apps_redeployed;
      it = hosted_.erase(it);
    } else {
      ++it;
    }
  }
  server_at(column).set_failed(true);
  under_repair_[column] = epoch.index + config_.failures.repair_epochs;
  ++result_.server_failures;
  ++epoch.record.failures;
}

double SimulationEngine::carbon_rate_g(const sim::Application& app,
                                       const sim::EdgeServer& server, std::size_t site) const {
  const sim::ProfileResult prof = sim::profile_of(app.model, server.device());
  if (!prof.supported) return -1.0;
  const double energy_wh = prof.profile.energy_j * app.rps * config_.epoch_hours;
  return energy_wh / 1000.0 * site_mean_intensity_[site];
}

std::pair<double, double> SimulationEngine::migration_cost(const sim::Application& app,
                                                           std::size_t site) const {
  const double energy_wh =
      app.state_size_mb / 1024.0 * config_.migration.network_energy_wh_per_gb;
  const double carbon_g = energy_wh / 1000.0 * site_mean_intensity_[site];
  return {energy_wh, carbon_g};
}

void SimulationEngine::account_move(Epoch& epoch, const sim::Application& app,
                                    std::size_t from_site) {
  const auto [move_energy, move_carbon] = migration_cost(app, from_site);
  epoch.record.migration_energy_wh += move_energy;
  epoch.record.migration_carbon_g += move_carbon;
  ++epoch.record.migrations;
  ++result_.migrations;
}

void SimulationEngine::step(std::vector<sim::Application> arrivals,
                            const StepOptions& options) {
  const std::vector<std::size_t> failed_columns = check_inputs(arrivals, options.failures);
  const obs::Span span(phases().epoch);
  Epoch epoch(batch_);
  epoch.index = epoch_;
  epoch.hour = hour_of(epoch_);
  epoch.record.epoch = epoch_;

  fill_site_intensity(epoch);
  apply_failures(epoch, failed_columns);
  depart();
  admit_and_release(epoch, std::move(arrivals));
  evict_migrants(epoch, options.migrate);
  const PlacementResult placement = place(epoch);
  commit(epoch, placement);
  account_sites(epoch);
  fold_app_samples(epoch);
  result_.telemetry.record(std::move(epoch.record));
  power_sweep();
  ++epoch_;
}

std::vector<std::size_t> SimulationEngine::check_inputs(
    std::span<const sim::Application> arrivals,
    std::span<const ServerFailureEvent> failures) const {
  if (finished_) throw std::logic_error("SimulationEngine::step after finish()");
  if (epoch_ >= config_.epochs) {
    throw std::logic_error("SimulationEngine::step beyond configured horizon");
  }
  // Site indices and server ids from outside (an event feed) are checked
  // before any state changes: sites index the latency rows and the per-site
  // traces unchecked, and an unknown server would throw mid-epoch.
  for (const sim::Application& app : arrivals) {
    if (app.origin_site >= cluster_.size()) {
      throw std::invalid_argument("arrival: origin_site " + std::to_string(app.origin_site) +
                                  " out of range");
    }
  }
  // A failure event's server becomes its layout column here.
  std::vector<std::size_t> columns;
  for (const ServerFailureEvent& event : failures) {
    if (event.site >= cluster_.size()) {
      throw std::invalid_argument("failure event: site " + std::to_string(event.site) +
                                  " out of range");
    }
    const std::vector<sim::EdgeServer>& servers = cluster_.sites()[event.site].servers();
    const auto it = std::find_if(servers.begin(), servers.end(), [&](const sim::EdgeServer& server) {
      return server.id() == event.server_id;
    });
    if (it == servers.end()) {
      throw std::invalid_argument("failure event: site " + std::to_string(event.site) +
                                  " has no server " + std::to_string(event.server_id));
    }
    columns.push_back(layout_.site_first(event.site) +
                      static_cast<std::size_t>(it - servers.begin()));
  }
  return columns;
}

void SimulationEngine::fill_site_intensity(const Epoch& epoch) {
  const obs::Span span(phases().fill_site_intensity);
  // Mean forecast intensity Ī of each site's zone at the epoch's hour,
  // forecast once per site per epoch; every later phase reads it by site
  // index.
  const carbon::Forecaster& forecaster = carbon_->forecaster();
  for (std::size_t site = 0; site < site_traces_.size(); ++site) {
    site_mean_intensity_[site] = forecaster.mean_forecast(*site_traces_[site], epoch.hour,
                                                          config_.forecast_horizon_hours);
  }
}

void SimulationEngine::apply_failures(Epoch& epoch,
                                      std::span<const std::size_t> failed_columns) {
  const obs::Span span(phases().apply_failures);
  // Repairs, then injected failures, then fresh drawn failures.
  for (auto it = under_repair_.begin(); it != under_repair_.end();) {
    if (epoch.index >= it->second) {
      sim::EdgeServer& server = server_at(it->first);
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
  for (const std::size_t column : failed_columns) {
    if (server_at(column).failed()) continue;  // already down: repair timer keeps running
    crash_server(epoch, column);
  }
  if (config_.failures.mtbf_epochs > 0.0) {
    const double fail_p = 1.0 / config_.failures.mtbf_epochs;
    // One Bernoulli per eligible (powered-on, healthy) server in column
    // order, which is site/server order. Crashing a server never changes
    // another's power or failure state, so eligibility is stable across the
    // pass.
    for (std::size_t column = 0; column < layout_.servers().size(); ++column) {
      const sim::EdgeServer& server = server_at(column);
      if (!server.powered_on() || server.failed()) continue;
      if (!failure_rng_.bernoulli(fail_p)) continue;
      crash_server(epoch, column);
    }
  }
}

void SimulationEngine::depart() {
  const obs::Span span(phases().depart);
  // Guarded decrement: an application admitted with remaining_epochs == 0
  // departs immediately instead of underflowing to ~4B epochs and becoming
  // immortal.
  // lint: unordered-iteration-ok(coordinator-only erase walk over deterministic bucket order; evictions commute and nothing is accumulated in fp)
  for (auto it = hosted_.begin(); it != hosted_.end();) {
    if (it->second.app.remaining_epochs <= 1) {
      server_at(it->second.column).evict(it->first);
      it = hosted_.erase(it);
    } else {
      --it->second.app.remaining_epochs;
      ++it;
    }
  }
}

void SimulationEngine::admit_and_release(Epoch& epoch, std::vector<sim::Application> arrivals) {
  const obs::Span span(phases().admit_and_release);
  // Arrivals are immediately placeable or deferred (temporal shifting,
  // paper Section 2.2).
  for (sim::Application& app : arrivals) {
    if (app.max_defer_epochs > 0) {
      ++result_.apps_deferred;
      deferred_.push_back(std::move(app));
    } else {
      epoch.batch.push_back(std::move(app));
    }
  }
  // Release deferred applications at low-intensity hours: start when the
  // origin zone's current intensity is no worse than anything the
  // remaining defer budget could buy (the "wait awhile" heuristic), or
  // when the budget runs out. Starters join the batch, the rest spend one
  // epoch of budget; the stable in-place compaction preserves the old
  // erase-as-you-go order.
  const carbon::Forecaster& forecaster = carbon_->forecaster();
  std::size_t keep = 0;
  for (std::size_t k = 0; k < deferred_.size(); ++k) {
    sim::Application& app = deferred_[k];
    bool start = app.max_defer_epochs == 0;
    if (!start) {
      const carbon::CarbonTrace& trace = *site_traces_[app.origin_site];
      const double now_ci = trace.at(epoch.hour);
      const auto window = static_cast<std::uint32_t>(
          std::ceil(static_cast<double>(app.max_defer_epochs) * config_.epoch_hours));
      double future_min = now_ci;
      for (const double v : forecaster.forecast(trace, epoch.hour + 1, window)) {
        future_min = std::min(future_min, v);
      }
      start = now_ci <= future_min * 1.02;
    }
    if (start) {
      epoch.batch.push_back(std::move(app));
    } else {
      --app.max_defer_epochs;
      if (keep != k) deferred_[keep] = std::move(app);
      ++keep;
    }
  }
  deferred_.resize(keep);
}

void SimulationEngine::evict_migrants(Epoch& epoch, std::optional<bool> migrate_override) {
  // Re-optimization cadence: an explicit per-step override (the serving
  // mode's event-driven trigger), calendar-month boundaries (the epoch
  // whose hour enters a new month), or a fixed epoch period.
  bool migrate = false;
  if (epoch.index != 0) {
    if (migrate_override.has_value()) {
      migrate = *migrate_override;
    } else if (config_.reoptimize_monthly) {
      migrate = carbon::month_of_hour(epoch.hour) !=
                carbon::month_of_hour(hour_of(epoch.index - 1));
    } else {
      migrate = config_.reoptimize_every != 0 && epoch.index % config_.reoptimize_every == 0;
    }
  }
  if (!migrate) return;

  const obs::Span span(phases().reopt);
  std::vector<sim::AppId> to_move;
  snapshot_hosted();
  for (const auto& [id, hosted] : hosted_snapshot_) {
    if (config_.migration.cost_aware && vetoes_move(*hosted)) {
      ++result_.migrations_skipped;
      continue;
    }
    to_move.push_back(id);
  }
  for (const sim::AppId id : to_move) {
    auto& entry = hosted_.at(id);
    server_at(entry.column).evict(id);
    displaced_from_.emplace(id, Displacement{site_of(entry.column), entry.column});
    epoch.batch.push_back(entry.app);
    hosted_.erase(id);
  }
}

bool SimulationEngine::vetoes_move(const HostedApp& entry) {
  // Veto moves whose projected benefit cannot repay the transfer.
  const sim::EdgeServer& current = server_at(entry.column);
  const std::size_t site = site_of(entry.column);
  const double current_rate = carbon_rate_g(entry.app, current, site);
  double best_rate = current_rate;
  for (const InBandSite& band :
       layout_.in_band(entry.app.origin_site, entry.app.latency_limit_rtt_ms)) {
    for (const sim::EdgeServer& server : cluster_.sites()[band.site].servers()) {
      if (!server.can_host(entry.app.model, entry.app.rps)) continue;
      const double rate = carbon_rate_g(entry.app, server, band.site);
      if (rate >= 0.0) best_rate = std::min(best_rate, rate);
    }
  }
  const double lifetime = std::min<double>(config_.migration.benefit_horizon_epochs,
                                           entry.app.remaining_epochs);
  const double benefit = (current_rate - best_rate) * lifetime;
  return benefit < migration_cost(entry.app, site).second * config_.migration.hysteresis;
}

PlacementResult SimulationEngine::place(const Epoch& epoch) {
  // Algorithm 1 + deployment, under PlacementService's own core.place span.
  PlacementInput input;
  input.layout = &layout_;
  input.site_mean_intensity = &site_mean_intensity_;
  input.epoch_hours = config_.epoch_hours;
  PlacementResult placement = service_.place(input, epoch.batch);
  orchestrator_.deploy(placement);
  return placement;
}

void SimulationEngine::commit(Epoch& epoch, const PlacementResult& placement) {
  const obs::Span span(phases().commit);
  const std::vector<sim::Application>& batch = epoch.batch;
  for (const PlacementDecision& decision : placement.decisions) {
    const sim::Application& app = batch[decision.batch_index];
    hosted_.emplace(decision.app, HostedApp{app, decision.column, decision.rtt_ms});
    // Account data movement for re-optimized (or earlier-displaced) apps
    // that changed site.
    const auto from = displaced_from_.find(decision.app);
    if (from != displaced_from_.end()) {
      const std::size_t from_site = from->second.site;
      if (from_site != kNoAccountedSite && from_site != decision.site) {
        account_move(epoch, app, from_site);
      }
      displaced_from_.erase(from);
    }
  }
  // Decisions and rejections partition the batch, each in batch order, so
  // the members no decision names are placement.rejected, in its order.
  std::uint32_t fresh_rejected = 0;
  std::size_t next_decision = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (next_decision < placement.decisions.size() &&
        placement.decisions[next_decision].batch_index == i) {
      ++next_decision;
      continue;
    }
    if (!restore_migrant(epoch, batch[i])) ++fresh_rejected;
  }
  epoch.record.apps_placed = static_cast<std::uint32_t>(placement.decisions.size());
  epoch.record.apps_rejected = fresh_rejected;
  result_.apps_placed += placement.decisions.size();
  result_.apps_rejected += fresh_rejected;
  result_.migration_energy_wh += epoch.record.migration_energy_wh;
  result_.migration_carbon_g += epoch.record.migration_carbon_g;
}

bool SimulationEngine::restore_migrant(Epoch& epoch, const sim::Application& app) {
  // A live application must never be lost to a re-optimization attempt:
  // if the solver rejected an evicted migrant (e.g. capacity shrank after
  // a failure), put it back on its previous server — the evict freed that
  // capacity, so it is normally reclaimable — and count the non-move as a
  // skipped migration, not a rejection. Only fresh arrivals can be
  // genuinely rejected.
  const auto from = displaced_from_.find(app.id);
  if (from == displaced_from_.end()) return false;
  const std::size_t home_site = from->second.site;
  const bool migrant = from->second.column != kNoColumn;
  sim::EdgeServer* target = nullptr;
  std::size_t target_site = home_site;
  std::size_t target_column = 0;
  if (migrant) {
    sim::EdgeServer& old_server = server_at(from->second.column);
    if (old_server.powered_on() && old_server.can_host(app.model, app.rps)) {
      target = &old_server;
      target_column = from->second.column;
    }
  }
  if (target == nullptr) {
    // The slot is gone (taken by a competing batch member, or the app has
    // been in limbo since an earlier epoch); fall back to the first
    // powered-on latency-feasible server with headroom, the lowest such
    // site's first. can_host() does not cover power state, and activating
    // a cold server here would bypass the optimizer's Eq. 5 activation
    // decision, so off servers are skipped.
    for (const InBandSite& band : layout_.in_band(app.origin_site, app.latency_limit_rtt_ms)) {
      for (std::size_t j = layout_.site_first(band.site);
           target == nullptr && j < layout_.site_first(band.site + 1); ++j) {
        sim::EdgeServer& server = server_at(j);
        if (server.powered_on() && server.can_host(app.model, app.rps)) {
          target = &server;
          target_site = band.site;
          target_column = j;
        }
      }
      if (target != nullptr) break;
    }
  }
  if (migrant && (target == nullptr || target_site == home_site)) {
    // The optimizer's intended migration did not happen and the app
    // stayed (or parked) at home; landing on another site is instead a
    // real move, charged below.
    ++result_.migrations_skipped;
  }
  if (target != nullptr) {
    target->host(sim::AppInstance{app.id, app.model, app.rps});
    hosted_.emplace(app.id, HostedApp{app, target_column,
                                      2.0 * latency_->one_way_ms(app.origin_site, target_site)});
    // Landing away from the app's previous site is a real (forced) move and
    // pays the transfer emissions like any other migration — except for
    // crash victims, whose old server is gone.
    if (home_site != kNoAccountedSite && target_site != home_site) {
      account_move(epoch, app, home_site);
    }
    displaced_from_.erase(from);
  } else {
    // No capacity anywhere this epoch (another app took the freed slot and
    // the cluster is saturated): keep the app alive and retry at the next
    // epoch via the deferral queue rather than dropping it. The epoch it
    // sits out is real downtime for a live app — account it.
    from->second.column = kNoColumn;  // parked: it keeps only its site
    ++result_.app_downtime_epochs;
    sim::Application retry = app;
    retry.max_defer_epochs = 0;
    deferred_.push_back(std::move(retry));
  }
  return true;
}

void SimulationEngine::account_sites(Epoch& epoch) const {
  const obs::Span span(phases().account_sites);
  // One record per site, in site order.
  epoch.record.sites.reserve(cluster_.size());
  for (std::size_t site = 0; site < cluster_.size(); ++site) {
    epoch.record.sites.push_back(sim::make_site_epoch_record(
        cluster_.sites()[site], site_traces_[site]->at(epoch.hour), config_.epoch_hours,
        config_.account_base_power));
  }
}

void SimulationEngine::fold_app_samples(Epoch& epoch) {
  const obs::Span span(phases().fold_app_samples);
  // Each hosted app's latency sample folds into the epoch sums and the
  // response histogram, in snapshot order.
  snapshot_hosted();
  for (const auto& hosted : hosted_snapshot_) {
    const HostedApp& entry = *hosted.second;
    const double rtt = entry.rtt_ms;
    const sim::EdgeServer& server = server_at(entry.column);
    const double response = rtt + server.mean_service_ms(entry.app.model);
    const double rps = entry.app.rps;
    epoch.record.rtt_weighted_sum_ms += rtt * rps;
    epoch.record.response_weighted_sum_ms += response * rps;
    epoch.record.rps_total += rps;
    result_.telemetry.add_response_sample(response, rps);
  }
}

void SimulationEngine::power_sweep() {
  const obs::Span span(phases().power_sweep);
  power_manager_.sweep(cluster_);
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
  SimulationEngine engine(pristine_, *carbon_, latency_, config);
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
