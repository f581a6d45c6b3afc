// Mesoscale carbon analysis (paper Section 3) as a reusable library:
// per-zone trace statistics, intra-region spreads, and the radius-bounded
// best-saving study behind Figure 5.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "carbon/caltime.hpp"
#include "carbon/service.hpp"
#include "carbon/synthesizer.hpp"
#include "carbon/trace.hpp"
#include "geo/latency.hpp"
#include "geo/region.hpp"
#include "geo/site.hpp"
#include "util/stats.hpp"

namespace carbonedge::analysis {

/// Per-zone descriptive statistics over a year of hourly intensity.
struct ZoneStats {
  std::string zone;
  double mean_g_kwh = 0.0;
  double min_g_kwh = 0.0;
  double max_g_kwh = 0.0;
  double low_carbon_share = 0.0;  // from realized mixes; 0 if unavailable
  double mean_daily_swing = 0.0;  // max - min of the average day shape
  double seasonal_range = 0.0;    // max - min of the monthly means
};

/// Region-level summary: zone stats plus the paper's headline ratios.
struct RegionSummary {
  std::string region;
  std::vector<ZoneStats> zones;
  double yearly_spread = 0.0;   // max/min of zone yearly means (Fig. 3)
  double snapshot_spread = 0.0; // max/min at the requested snapshot hour (Fig. 2)
  double width_km = 0.0;
  double height_km = 0.0;
};

/// Compute ZoneStats for one trace.
[[nodiscard]] ZoneStats zone_stats(const carbon::CarbonTrace& trace);

/// Summarize a region whose traces are registered with `service`.
/// `snapshot_hour` selects the Figure 2 snapshot instant.
[[nodiscard]] RegionSummary summarize_region(const geo::Region& region,
                                             const carbon::CarbonIntensityService& service,
                                             carbon::HourIndex snapshot_hour = 12);

/// A candidate spatial-shift destination for one site.
struct ShiftPartner {
  geo::SiteId from = 0;
  geo::SiteId to = 0;
  double distance_km = 0.0;
  double one_way_ms = 0.0;
  double saving_fraction = 0.0;  // relative drop in yearly-mean intensity
};

/// Best shift partner for `from` among `sites` subject to a one-way latency
/// budget; nullopt when no partner improves on staying put.
[[nodiscard]] std::optional<ShiftPartner> best_partner(
    const geo::City& from, std::span<const geo::City> sites,
    std::span<const double> mean_intensity, const geo::LatencyModel& latency,
    double budget_one_way_ms);

/// The Figure 5 study: for every site, the best relative saving available
/// within `radius_km` (same-continent pairs only), plus the one-way latency
/// sample of all in-radius pairs.
struct RadiusStudy {
  double radius_km = 0.0;
  util::EmpiricalCdf saving_cdf;       // percentage points, one per site
  util::EmpiricalCdf latency_cdf;      // one-way ms, one per in-radius pair
  double fraction_above_20 = 0.0;      // sites with >20% best saving
  double fraction_above_40 = 0.0;
  double median_saving = 0.0;          // percent
  double median_latency_ms = 0.0;
};

[[nodiscard]] RadiusStudy radius_study(std::span<const geo::City> sites,
                                       std::span<const double> mean_intensity,
                                       const geo::LatencyModel& latency, double radius_km);

/// Yearly-mean intensities for a site list via the default synthesizer
/// (convenience for the Figure 5 pipeline).
[[nodiscard]] std::vector<double> yearly_means(std::span<const geo::City> sites,
                                               const carbon::SynthesizerParams& params = {});

}  // namespace carbonedge::analysis
