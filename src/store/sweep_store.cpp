#include "store/sweep_store.hpp"

#include <stdexcept>

#include "carbon/synthesizer.hpp"
#include "carbon/trace_cache.hpp"
#include "carbon/zone.hpp"
#include "core/simulation.hpp"
#include "geo/site.hpp"
#include "sim/device.hpp"
#include "sim/workload.hpp"
#include "obs/metrics.hpp"
#include "solver/assignment.hpp"
#include "solver/milp.hpp"
#include "store/codecs.hpp"
#include "util/hash.hpp"

namespace carbonedge::store {

namespace {

// Registry mirrors of the per-instance atomics (dual-write): deterministic
// view — for a fixed on-disk state the hit/miss/store/failure pattern is a
// pure function of the grid.
struct SweepMetrics {
  obs::Counter& hits;
  obs::Counter& misses;
  obs::Counter& stores;
  obs::Counter& write_failures;
};

SweepMetrics& sweep_metrics() {
  obs::Registry& registry = obs::Registry::global();
  static SweepMetrics metrics{
      registry.counter("store.sweep.hits", "sweep cells resumed from disk",
                       obs::View::kDeterministic),
      registry.counter("store.sweep.misses", "sweep-cell lookups that missed",
                       obs::View::kDeterministic),
      registry.counter("store.sweep.stores", "freshly computed cells persisted",
                       obs::View::kDeterministic),
      registry.counter("store.sweep.write_failures",
                       "cell persists that failed (store degraded to memory-only)",
                       obs::View::kDeterministic)};
  return metrics;
}

}  // namespace

namespace {

void mix_workload(util::Fingerprint& fp, const sim::WorkloadParams& w) {
  fp.mix(w.arrivals_per_site);
  fp.mix(static_cast<std::uint64_t>(w.demand));
  for (const double weight : w.model_weights) fp.mix(weight);
  fp.mix(w.min_rps);
  fp.mix(w.max_rps);
  fp.mix(w.min_state_mb);
  fp.mix(w.max_state_mb);
  fp.mix(w.max_defer_epochs);
  fp.mix(w.latency_limit_rtt_ms);
  fp.mix(w.mean_lifetime_epochs);
  fp.mix(static_cast<std::uint64_t>(w.initial_per_site));
  fp.mix(w.initial_lifetime_epochs);
  fp.mix(w.seed);
}

void mix_solver(util::Fingerprint& fp, const solver::AssignmentOptions& s) {
  fp.mix(s.milp.lp.max_iterations);
  fp.mix(s.milp.lp.pivot_tolerance);
  fp.mix(s.milp.lp.feasibility_tolerance);
  fp.mix(s.milp.max_nodes);
  // Mixed although they are constants, so that keys stay byte-identical to
  // those stored when the two tolerances were options.
  fp.mix(solver::kIntegralityTolerance);
  fp.mix(solver::kGapTolerance);
  fp.mix(static_cast<std::uint64_t>(s.exact_size_limit));
}

void mix_config(util::Fingerprint& fp, const core::SimulationConfig& c) {
  fp.mix(static_cast<std::uint64_t>(c.policy.kind));
  fp.mix(c.policy.alpha);
  fp.mix(static_cast<std::uint64_t>(c.start_hour));
  fp.mix(c.epochs);
  fp.mix(c.epoch_hours);
  mix_workload(fp, c.workload);
  fp.mix(c.forecast_horizon_hours);
  fp.mix(static_cast<std::uint64_t>(c.power.min_on_per_site));
  fp.mix(c.power.enabled);
  fp.mix(c.reoptimize_every);
  fp.mix(c.reoptimize_monthly);
  fp.mix(c.migration.network_energy_wh_per_gb);
  fp.mix(c.migration.cost_aware);
  fp.mix(c.migration.benefit_horizon_epochs);
  fp.mix(c.migration.hysteresis);
  fp.mix(c.failures.mtbf_epochs);
  fp.mix(c.failures.repair_epochs);
  fp.mix(c.failures.seed);
  mix_solver(fp, c.solver_options);
  fp.mix(c.account_base_power);
}

}  // namespace

SweepStore::SweepStore(std::shared_ptr<ArtifactStore> artifacts)
    : artifacts_(std::move(artifacts)) {
  if (artifacts_ == nullptr) {
    throw std::invalid_argument("sweep store: artifact store must be non-null");
  }
}

std::string SweepStore::fingerprint(const runner::Scenario& scenario) {
  util::Fingerprint fp;
  fp.mix("carbonedge/sweep/v3");  // schema salt: bump when the field list changes
  // Region identity is its resolved site list. SiteIds are only stable
  // within one catalog, so the fingerprint mixes each site's full physical
  // identity (name, country, location, population) rather than trusting the
  // id — two regions over different compiled catalogs never collide even
  // when their id lists match. Each city's zone-spec content joins too,
  // exactly as the runner's service will resolve it (catalog spec, default
  // synthesizer params): without this, a recalibration of the built-in
  // carbon dataset or the synthesizer would silently resume stale cells.
  const auto& catalog = carbon::ZoneCatalog::builtin();
  const std::vector<geo::City> cities = scenario.region.resolve();
  fp.mix(static_cast<std::uint64_t>(cities.size()));
  for (const geo::City& city : cities) {
    fp.mix(static_cast<std::uint64_t>(city.id));
    fp.mix(city.name);
    fp.mix(city.country);
    fp.mix(static_cast<std::uint64_t>(city.continent));
    fp.mix(city.location.lat_deg);
    fp.mix(city.location.lon_deg);
    fp.mix(city.population_k);
    fp.mix(carbon::TraceCache::key_of(catalog.spec_for(city), carbon::SynthesizerParams{}));
  }
  // The latency band changes the feasible-pair geography, so banded and
  // dense runs of the same cell are distinct outcomes.
  fp.mix(scenario.latency_band_ms);
  const runner::DeviceMix& mix = scenario.mix;
  fp.mix(static_cast<std::uint64_t>(mix.devices.size()));
  for (const sim::DeviceType device : mix.devices) {
    fp.mix(static_cast<std::uint64_t>(device));
  }
  fp.mix(static_cast<std::uint64_t>(mix.servers_per_site));
  fp.mix(static_cast<std::uint64_t>(mix.total_servers));
  fp.mix(static_cast<std::uint64_t>(mix.initially_off_per_site));
  fp.mix(scenario.forecaster);
  mix_config(fp, scenario.config);
  return fp.digest().hex();
}

std::optional<core::SimulationResult> SweepStore::load(const runner::Scenario& scenario) {
  auto payload = artifacts_->load(ArtifactKind::kSweepOutcome, fingerprint(scenario));
  if (payload) {
    try {
      core::SimulationResult result = decode_outcome(*payload);
      hits_.fetch_add(1, std::memory_order_relaxed);
      sweep_metrics().hits.add();
      return result;
    } catch (const std::exception&) {
      // Checksum-valid but undecodable (schema drift): recompute the cell;
      // the fresh save overwrites the stale entry.
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  sweep_metrics().misses.add();
  return std::nullopt;
}

void SweepStore::save(const runner::Scenario& scenario, const core::SimulationResult& result) {
  try {
    artifacts_->save(ArtifactKind::kSweepOutcome, fingerprint(scenario),
                     encode_outcome(result));
  } catch (const std::exception&) {
    // Persisting is best-effort: a full or read-only store must not kill a
    // sweep whose cell already computed — the cell just won't resume warm.
    write_failures_.fetch_add(1, std::memory_order_relaxed);
    sweep_metrics().write_failures.add();
    return;
  }
  stores_.fetch_add(1, std::memory_order_relaxed);
  sweep_metrics().stores.add();
}

}  // namespace carbonedge::store
