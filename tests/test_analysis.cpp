#include "analysis/mesoscale.hpp"

#include <gtest/gtest.h>

namespace carbonedge::analysis {
namespace {

carbon::CarbonIntensityService service_for(const geo::Region& region) {
  carbon::CarbonIntensityService service;
  service.add_region(region);
  return service;
}

TEST(ZoneStats, FlatTraceHasNoVariation) {
  const carbon::CarbonTrace flat("flat",
                                 std::vector<double>(carbon::kHoursPerYear, 321.0));
  const ZoneStats stats = zone_stats(flat);
  EXPECT_DOUBLE_EQ(stats.mean_g_kwh, 321.0);
  EXPECT_DOUBLE_EQ(stats.mean_daily_swing, 0.0);
  EXPECT_DOUBLE_EQ(stats.seasonal_range, 0.0);
  EXPECT_DOUBLE_EQ(stats.low_carbon_share, 0.0);  // no mixes attached
}

TEST(ZoneStats, DiurnalSignalYieldsSwing) {
  std::vector<double> values(carbon::kHoursPerYear);
  for (std::uint32_t h = 0; h < carbon::kHoursPerYear; ++h) {
    values[h] = 400.0 + (carbon::hour_of_day(h) == 12 ? -100.0 : 0.0);
  }
  const ZoneStats stats = zone_stats(carbon::CarbonTrace("d", std::move(values)));
  EXPECT_NEAR(stats.mean_daily_swing, 100.0, 1e-6);
}

TEST(RegionSummary, ReproducesFigure3Spreads) {
  const geo::Region region = geo::central_eu_region();
  const auto service = service_for(region);
  const RegionSummary summary = summarize_region(region, service);
  EXPECT_EQ(summary.zones.size(), 5u);
  EXPECT_GT(summary.yearly_spread, 6.0);   // paper: 10.8x
  EXPECT_LT(summary.yearly_spread, 20.0);
  EXPECT_GT(summary.snapshot_spread, 1.0);
  EXPECT_GT(summary.width_km, 300.0);
}

TEST(RegionSummary, ZoneOrderMatchesRegion) {
  const geo::Region region = geo::florida_region();
  const auto service = service_for(region);
  const RegionSummary summary = summarize_region(region, service);
  EXPECT_EQ(summary.zones[0].zone, "Jacksonville");
  EXPECT_EQ(summary.zones[1].zone, "Miami");
}

TEST(RadiusStudy, OpportunityGrowsWithRadius) {
  // Figure 5's monotonicity: larger radii expose at least as much saving.
  const geo::Region us = geo::cdn_region(geo::Continent::kNorthAmerica);
  const auto cities = us.resolve();
  const std::vector<double> means = yearly_means(cities);
  const geo::LatencyModel latency;
  double previous_above20 = -1.0;
  double previous_latency = -1.0;
  for (const double radius : {200.0, 500.0, 1000.0}) {
    const RadiusStudy study = radius_study(cities, means, latency, radius);
    EXPECT_GE(study.fraction_above_20, previous_above20);
    EXPECT_GE(study.median_latency_ms, previous_latency);
    EXPECT_GE(study.fraction_above_20, study.fraction_above_40);
    previous_above20 = study.fraction_above_20;
    previous_latency = study.median_latency_ms;
  }
  // At 1000 km a majority of US sites see >20% (paper: 78% combined US+EU).
  const RadiusStudy wide = radius_study(cities, means, latency, 1000.0);
  EXPECT_GT(wide.fraction_above_20, 0.4);
}

TEST(RadiusStudy, ZeroRadiusHasNoOpportunity) {
  const geo::Region region = geo::florida_region();
  const auto cities = region.resolve();
  const std::vector<double> means = yearly_means(cities);
  const RadiusStudy study = radius_study(cities, means, geo::LatencyModel{}, 1.0);
  EXPECT_DOUBLE_EQ(study.fraction_above_20, 0.0);
  EXPECT_DOUBLE_EQ(study.median_saving, 0.0);
}

TEST(YearlyMeans, MatchesDirectSynthesis) {
  const geo::Region region = geo::west_us_region();
  const auto cities = region.resolve();
  const std::vector<double> means = yearly_means(cities);
  ASSERT_EQ(means.size(), cities.size());
  const carbon::TraceSynthesizer synthesizer;
  const auto& catalog = carbon::ZoneCatalog::builtin();
  for (std::size_t i = 0; i < cities.size(); ++i) {
    EXPECT_NEAR(means[i], synthesizer.synthesize(catalog.spec_for(cities[i])).yearly_mean(),
                1e-9);
  }
}

}  // namespace
}  // namespace carbonedge::analysis
