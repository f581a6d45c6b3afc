#include "analysis/mesoscale.hpp"

#include <algorithm>

#include "util/parallelism.hpp"

namespace carbonedge::analysis {

ZoneStats zone_stats(const carbon::CarbonTrace& trace) {
  ZoneStats stats;
  stats.zone = trace.zone();
  stats.mean_g_kwh = trace.yearly_mean();
  stats.min_g_kwh = trace.yearly_min();
  stats.max_g_kwh = trace.yearly_max();
  stats.low_carbon_share = trace.average_mix().low_carbon_share();

  // Mean day shape -> daily swing.
  std::array<double, carbon::kHoursPerDay> shape{};
  const double days =
      static_cast<double>(trace.hours()) / static_cast<double>(carbon::kHoursPerDay);
  for (carbon::HourIndex h = 0; h < trace.hours(); ++h) {
    shape[carbon::hour_of_day(h)] += trace.at(h) / days;
  }
  stats.mean_daily_swing = *std::max_element(shape.begin(), shape.end()) -
                           *std::min_element(shape.begin(), shape.end());

  // Monthly means -> seasonal range (only meaningful on full-year traces).
  if (trace.hours() >= carbon::kHoursPerYear) {
    double lo = 1e300;
    double hi = -1e300;
    for (std::uint32_t m = 0; m < carbon::kMonthsPerYear; ++m) {
      const double mean = trace.monthly_mean(m);
      lo = std::min(lo, mean);
      hi = std::max(hi, mean);
    }
    stats.seasonal_range = hi - lo;
  }
  return stats;
}

RegionSummary summarize_region(const geo::Region& region,
                               const carbon::CarbonIntensityService& service,
                               carbon::HourIndex snapshot_hour) {
  RegionSummary summary;
  summary.region = region.name;
  const geo::BoundingBox box = region.bounds();
  summary.width_km = box.width_km();
  summary.height_km = box.height_km();

  double mean_lo = 1e300;
  double mean_hi = 0.0;
  double snap_lo = 1e300;
  double snap_hi = 0.0;
  for (const geo::City& city : region.resolve()) {
    const carbon::CarbonTrace& trace = service.trace(city.name);
    summary.zones.push_back(zone_stats(trace));
    mean_lo = std::min(mean_lo, summary.zones.back().mean_g_kwh);
    mean_hi = std::max(mean_hi, summary.zones.back().mean_g_kwh);
    const double snap = trace.at(snapshot_hour);
    snap_lo = std::min(snap_lo, snap);
    snap_hi = std::max(snap_hi, snap);
  }
  summary.yearly_spread = mean_lo > 0.0 ? mean_hi / mean_lo : 0.0;
  summary.snapshot_spread = snap_lo > 0.0 ? snap_hi / snap_lo : 0.0;
  return summary;
}

RadiusStudy radius_study(std::span<const geo::City> sites,
                         std::span<const double> mean_intensity,
                         const geo::LatencyModel& latency, double radius_km) {
  RadiusStudy study;
  study.radius_km = radius_km;
  std::vector<double> best_saving(sites.size(), 0.0);
  std::vector<double> pair_latency;
  for (std::size_t i = 0; i < sites.size(); ++i) {
    for (std::size_t j = 0; j < sites.size(); ++j) {
      if (i == j || sites[i].continent != sites[j].continent) continue;
      const double km = geo::haversine_km(sites[i].location, sites[j].location);
      if (km > radius_km) continue;
      const double saving = (mean_intensity[i] - mean_intensity[j]) /
                            std::max(mean_intensity[i], 1e-9) * 100.0;
      best_saving[i] = std::max(best_saving[i], saving);
      if (j > i) pair_latency.push_back(latency.one_way_ms(sites[i], sites[j]));
    }
  }
  study.saving_cdf = util::EmpiricalCdf(std::move(best_saving));
  study.fraction_above_20 = 1.0 - study.saving_cdf.at(20.0);
  study.fraction_above_40 = 1.0 - study.saving_cdf.at(40.0);
  study.median_saving = study.saving_cdf.quantile(0.5);
  study.median_latency_ms = util::median(pair_latency);
  study.latency_cdf = util::EmpiricalCdf(std::move(pair_latency));
  return study;
}

std::vector<double> yearly_means(std::span<const geo::City> sites,
                                 const carbon::SynthesizerParams& params) {
  const auto& catalog = carbon::ZoneCatalog::builtin();
  std::vector<double> means(sites.size(), 0.0);
  util::parallel_for(util::global_budget(), sites.size(), [&](std::size_t i) {
    const carbon::TraceSynthesizer synthesizer(params);
    means[i] = synthesizer.synthesize(catalog.spec_for(sites[i])).yearly_mean();
  });
  return means;
}

}  // namespace carbonedge::analysis
