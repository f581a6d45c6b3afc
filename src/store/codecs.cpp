#include "store/codecs.hpp"

#include <span>
#include <stdexcept>

#include "geo/coord.hpp"
#include "geo/site.hpp"
#include "store/artifact.hpp"

namespace carbonedge::store {

namespace {

// Per-kind payload schemas; bump when a codec's field list changes.
constexpr std::uint32_t kTraceSchema = 1;
constexpr std::uint32_t kOutcomeSchema = 2;
constexpr std::uint32_t kSiteCatalogSchema = 1;

void require_schema(std::uint32_t got, std::uint32_t want, const char* what) {
  if (got != want) {
    throw std::runtime_error(std::string("artifact: unsupported ") + what + " schema " +
                             std::to_string(got));
  }
}

}  // namespace

std::string encode_trace(const carbon::CarbonTrace& trace) {
  ByteWriter w;
  w.u32(kTraceSchema);
  w.str(trace.zone());
  w.u64(trace.hours());
  const bool with_mix = !trace.mixes().empty();
  w.u8(with_mix ? 1 : 0);
  for (const double v : trace.values()) w.f64(v);
  if (with_mix) {
    // Column per source: friendlier to per-source scans than row-major.
    for (const carbon::EnergySource s : carbon::kAllSources) {
      for (const carbon::GenerationMix& mix : trace.mixes()) w.f64(mix.at(s));
    }
  }
  return w.take();
}

carbon::CarbonTrace decode_trace(std::string_view payload) {
  ByteReader r(payload);
  require_schema(r.u32(), kTraceSchema, "trace");
  std::string zone = r.str();
  const std::uint64_t hours = r.u64();
  const bool with_mix = r.u8() != 0;
  std::vector<double> intensity;
  intensity.reserve(hours);
  for (std::uint64_t h = 0; h < hours; ++h) intensity.push_back(r.f64());
  carbon::CarbonTrace trace(std::move(zone), std::move(intensity));
  if (with_mix) {
    std::vector<carbon::GenerationMix> mixes(hours);
    for (const carbon::EnergySource s : carbon::kAllSources) {
      for (std::uint64_t h = 0; h < hours; ++h) mixes[h].set(s, r.f64());
    }
    trace.set_mixes(std::move(mixes));
  }
  r.expect_exhausted();
  return trace;
}

std::string encode_site_catalog(const geo::SiteCatalog& catalog) {
  const std::span<const geo::City> sites = catalog.all();
  ByteWriter w;
  w.u32(kSiteCatalogSchema);
  w.u64(sites.size());
  // Variable-width string rows first, then the fixed-width numeric columns
  // (friendlier to whole-column scans than interleaving).
  for (const geo::City& city : sites) w.str(city.name);
  for (const geo::City& city : sites) w.str(city.country);
  for (const geo::City& city : sites) w.u8(static_cast<std::uint8_t>(city.continent));
  for (const geo::City& city : sites) w.f64(city.location.lat_deg);
  for (const geo::City& city : sites) w.f64(city.location.lon_deg);
  for (const geo::City& city : sites) w.f64(city.population_k);
  return w.take();
}

geo::SiteCatalog decode_site_catalog(std::string_view payload) {
  ByteReader r(payload);
  require_schema(r.u32(), kSiteCatalogSchema, "site catalog");
  const std::uint64_t count = r.u64();
  // Wrap guard: a checksum-valid but hostile count must not drive the
  // reserve/loop arithmetic below.
  if (count > (std::uint64_t{1} << 24)) {
    throw std::runtime_error("artifact: implausible site catalog size");
  }
  std::vector<geo::City> sites(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    sites[i].id = static_cast<geo::SiteId>(i);
    sites[i].name = r.str();
  }
  for (std::uint64_t i = 0; i < count; ++i) sites[i].country = r.str();
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint8_t raw = r.u8();
    if (raw > static_cast<std::uint8_t>(geo::Continent::kEurope)) {
      throw std::runtime_error("artifact: unknown continent in site catalog");
    }
    sites[i].continent = static_cast<geo::Continent>(raw);
  }
  for (std::uint64_t i = 0; i < count; ++i) sites[i].location.lat_deg = r.f64();
  for (std::uint64_t i = 0; i < count; ++i) sites[i].location.lon_deg = r.f64();
  for (std::uint64_t i = 0; i < count; ++i) sites[i].population_k = r.f64();
  r.expect_exhausted();
  // SiteCatalog's constructor re-validates (dense ids, unique names,
  // coordinate ranges) — decode shares the ingest-time invariants.
  return geo::SiteCatalog(std::move(sites));
}

std::string encode_outcome(const core::SimulationResult& result) {
  ByteWriter w;
  w.u32(kOutcomeSchema);
  w.f64(result.mean_deploy_ms);
  w.u64(result.apps_placed);
  w.u64(result.apps_rejected);
  w.u64(result.migrations);
  w.u64(result.migrations_skipped);
  w.f64(result.migration_energy_wh);
  w.f64(result.migration_carbon_g);
  w.u64(result.server_failures);
  w.u64(result.apps_redeployed);
  w.u64(result.apps_deferred);
  w.u64(result.apps_expired_deferred);
  w.u64(result.app_downtime_epochs);

  const auto& epochs = result.telemetry.epochs();
  w.u64(epochs.size());
  for (const sim::EpochRecord& e : epochs) {
    w.u32(e.epoch);
    w.f64(e.rtt_weighted_sum_ms);
    w.f64(e.response_weighted_sum_ms);
    w.f64(e.rps_total);
    w.u32(e.apps_placed);
    w.u32(e.apps_rejected);
    w.f64(e.migration_energy_wh);
    w.f64(e.migration_carbon_g);
    w.u32(e.migrations);
    w.u32(e.failures);
    w.u64(e.sites.size());
    for (const sim::SiteEpochRecord& s : e.sites) {
      w.f64(s.energy_wh);
      w.f64(s.carbon_g);
      w.f64(s.intensity_g_kwh);
      w.u32(s.apps_hosted);
      w.f64(s.rps_hosted);
    }
  }

  const util::Histogram& hist = result.telemetry.response_histogram();
  w.f64(hist.bin_lo());
  w.f64(hist.bin_hi());
  w.u64(hist.bins().size());
  for (const double b : hist.bins()) w.f64(b);
  w.f64(hist.total_weight());
  w.f64(hist.weighted_sum());
  w.u64(hist.count());
  w.f64(hist.min());
  w.f64(hist.max());
  return w.take();
}

core::SimulationResult decode_outcome(std::string_view payload) {
  ByteReader r(payload);
  require_schema(r.u32(), kOutcomeSchema, "outcome");
  core::SimulationResult result;
  result.mean_deploy_ms = r.f64();
  result.apps_placed = r.u64();
  result.apps_rejected = r.u64();
  result.migrations = r.u64();
  result.migrations_skipped = r.u64();
  result.migration_energy_wh = r.f64();
  result.migration_carbon_g = r.f64();
  result.server_failures = r.u64();
  result.apps_redeployed = r.u64();
  result.apps_deferred = r.u64();
  result.apps_expired_deferred = r.u64();
  result.app_downtime_epochs = r.u64();

  const std::uint64_t epoch_count = r.u64();
  for (std::uint64_t i = 0; i < epoch_count; ++i) {
    sim::EpochRecord e;
    e.epoch = r.u32();
    e.rtt_weighted_sum_ms = r.f64();
    e.response_weighted_sum_ms = r.f64();
    e.rps_total = r.f64();
    e.apps_placed = r.u32();
    e.apps_rejected = r.u32();
    e.migration_energy_wh = r.f64();
    e.migration_carbon_g = r.f64();
    e.migrations = r.u32();
    e.failures = r.u32();
    const std::uint64_t site_count = r.u64();
    e.sites.reserve(site_count);
    for (std::uint64_t s = 0; s < site_count; ++s) {
      sim::SiteEpochRecord site;
      site.energy_wh = r.f64();
      site.carbon_g = r.f64();
      site.intensity_g_kwh = r.f64();
      site.apps_hosted = r.u32();
      site.rps_hosted = r.f64();
      e.sites.push_back(site);
    }
    result.telemetry.record(std::move(e));
  }

  const double lo = r.f64();
  const double hi = r.f64();
  const std::uint64_t bin_count = r.u64();
  std::vector<double> bins;
  bins.reserve(bin_count);
  for (std::uint64_t b = 0; b < bin_count; ++b) bins.push_back(r.f64());
  const double total_weight = r.f64();
  const double weighted_sum = r.f64();
  const std::uint64_t count = r.u64();
  const double min = r.f64();
  const double max = r.f64();
  result.telemetry.set_response_histogram(
      util::Histogram::restore(lo, hi, std::move(bins), total_weight, weighted_sum, count,
                               min, max));
  r.expect_exhausted();
  return result;
}

}  // namespace carbonedge::store
