#include "runner/scenario_runner.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "carbon/forecast.hpp"
#include "carbon/service.hpp"
#include "core/simulation.hpp"
#include "geo/catalog.hpp"
#include "geo/latency.hpp"
#include "geo/site.hpp"
#include "sim/datacenter.hpp"
#include "sim/server.hpp"
#include "util/parallelism.hpp"
#include "util/stats.hpp"

namespace carbonedge::runner {

namespace {

sim::EdgeCluster build_cluster(const Scenario& scenario) {
  const DeviceMix& mix = scenario.mix;
  // A single-device mix cycles trivially, so make_hetero_cluster covers the
  // homogeneous case too; total_servers switches to population-proportional
  // apportionment (the "Capacity" skew scenario).
  sim::EdgeCluster cluster =
      mix.total_servers > 0
          ? sim::make_population_cluster(scenario.region, mix.total_servers, mix.devices.front())
          : sim::make_hetero_cluster(scenario.region, mix.servers_per_site, mix.devices);
  if (mix.initially_off_per_site > 0) {
    for (sim::EdgeDataCenter& site : cluster.sites()) {
      std::vector<sim::EdgeServer>& servers = site.servers();
      const std::size_t off = std::min(mix.initially_off_per_site, servers.size());
      for (std::size_t s = servers.size() - off; s < servers.size(); ++s) {
        servers[s].set_powered_on(false);
      }
    }
  }
  return cluster;
}

// Distinct Region values can share a display name (e.g. cdn_region with
// different site counts both yield "CDN Europe"), so service dedup must key
// on the full identity: name plus the exact city list. SiteIds are only
// stable within one catalog, so the key spells out each city's name — two
// regions over different catalogs never alias even when their id lists
// match. The forecaster is part of the service state, so it joins the key
// too.
std::string service_key(const Scenario& scenario) {
  const geo::SiteCatalog& catalog = scenario.region.site_catalog();
  std::string key = scenario.forecaster;
  key += '\n';
  key += scenario.region.name;
  for (const geo::SiteId city : scenario.region.cities) {
    key += '|';
    key += std::to_string(city);
    key += '=';
    key += catalog.by_id(city).name;
  }
  return key;
}

}  // namespace

std::vector<ScenarioOutcome> ScenarioRunner::run(const ScenarioGrid& grid) const {
  return run(grid.expand());
}

std::vector<ScenarioOutcome> ScenarioRunner::run(std::vector<Scenario> scenarios) const {
  if (scenarios.empty()) return {};

  // Resolve the persistent sweep store first: cells already computed by an
  // earlier (possibly interrupted) run — or by another process sharing the
  // store — are loaded into their slots and never dispatched. Cached
  // results round-trip bit-exactly, so the aggregate is byte-identical to
  // a cold one-shot run of the same list.
  std::vector<core::SimulationResult> slots(scenarios.size());
  std::vector<std::size_t> pending;
  pending.reserve(scenarios.size());
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    if (options_.sweep_store != nullptr) {
      if (auto cached = options_.sweep_store->load(scenarios[i])) {
        slots[i] = std::move(*cached);
        continue;
      }
    }
    pending.push_back(i);
  }

  // Build each distinct (region, forecaster) service once, serially, before
  // any worker starts: services are then only read (const) concurrently.
  // Only pending cells need a service — a fully-warm resume builds none and
  // synthesizes nothing. Trace synthesis itself is additionally memoized
  // process-wide (and, with a store attached, across processes) by
  // carbon::TraceCache, so repeat sweeps over the same zones share one
  // immutable year-long series instead of re-synthesizing. Each pending
  // scenario's service pointer is resolved here too, keeping key building
  // and map lookups off the dispatch path.
  std::map<std::string, std::unique_ptr<carbon::CarbonIntensityService>> services;
  std::vector<const carbon::CarbonIntensityService*> cell_services(scenarios.size(), nullptr);
  for (const std::size_t i : pending) {
    const Scenario& scenario = scenarios[i];
    auto& slot = services[service_key(scenario)];
    if (!slot) {
      slot = std::make_unique<carbon::CarbonIntensityService>();
      slot->add_region(scenario.region);
      if (!scenario.forecaster.empty()) {
        slot->set_forecaster(carbon::make_forecaster(scenario.forecaster));
      }
    }
    cell_services[i] = slot.get();
  }

  // Cells lease their workers from the process budget: the sweep takes one
  // lane per concurrently running cell (each cell's simulation is serial).
  util::ParallelismBudget& budget =
      options_.budget != nullptr ? *options_.budget : util::global_budget();
  util::parallel_for(budget, pending.size(), [&](std::size_t p) {
    const std::size_t i = pending[p];
    core::EdgeSimulation simulation(build_cluster(scenarios[i]), *cell_services[i],
                                    geo::LatencyModel{}, scenarios[i].latency_band_ms);
    slots[i] = simulation.run(scenarios[i].config);
    // Publish as soon as the cell completes (atomic rename), so a killed
    // sweep loses at most the cells still in flight.
    if (options_.sweep_store != nullptr) {
      options_.sweep_store->save(scenarios[i], slots[i]);
    }
  });

  std::vector<ScenarioOutcome> outcomes;
  outcomes.reserve(scenarios.size());
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    outcomes.push_back(ScenarioOutcome{std::move(scenarios[i]), std::move(slots[i])});
  }
  return outcomes;
}

util::Table ScenarioRunner::summarize(const std::vector<ScenarioOutcome>& outcomes) {
  util::Table table({"Scenario", "Carbon (kg)", "Energy (kWh)", "Mean RTT (ms)", "Placed",
                     "Rejected", "ExpiredDef", "Migrations", "Skipped", "Failures", "Downtime"});
  for (const ScenarioOutcome& outcome : outcomes) {
    const core::SimulationResult& r = outcome.result;
    table.add_row({outcome.scenario.label, util::format_fixed(r.telemetry.total_carbon_kg(), 3),
                   util::format_fixed(r.telemetry.total_energy_wh() / 1e3, 3),
                   util::format_fixed(r.telemetry.mean_rtt_ms(), 2),
                   std::to_string(r.apps_placed), std::to_string(r.apps_rejected),
                   std::to_string(r.apps_expired_deferred), std::to_string(r.migrations),
                   std::to_string(r.migrations_skipped), std::to_string(r.server_failures),
                   std::to_string(r.app_downtime_epochs)});
  }
  return table;
}

util::Table ScenarioRunner::summarize(const std::vector<ScenarioOutcome>& outcomes,
                                      const CellCache* cache) {
  util::Table table = summarize(outcomes);
  // One health string for the whole sweep (the cache is shared by every
  // cell): "ok" when all persists landed, a loud FAIL count when the store
  // degraded to memory-only, "-" when the sweep ran without a store.
  std::string status = "-";
  if (cache != nullptr) {
    const CellCacheHealth health = cache->health();
    status = health.write_failures > 0
                 ? "FAIL:" + std::to_string(health.write_failures) + "w"
                 : "ok";
  }
  table.append_column("Store", status);
  return table;
}

}  // namespace carbonedge::runner
