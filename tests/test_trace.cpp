#include "carbon/trace.hpp"

#include <gtest/gtest.h>

#include <numeric>

namespace carbonedge::carbon {
namespace {

CarbonTrace ramp_trace(std::size_t hours) {
  std::vector<double> values(hours);
  std::iota(values.begin(), values.end(), 0.0);
  return CarbonTrace("ramp", std::move(values));
}

TEST(CarbonTrace, ConstructionValidates) {
  EXPECT_THROW(CarbonTrace("empty", {}), std::invalid_argument);
  EXPECT_THROW(CarbonTrace("neg", {1.0, -2.0}), std::invalid_argument);
  EXPECT_NO_THROW(CarbonTrace("ok", {0.0, 1.0}));
}

TEST(CarbonTrace, AtWrapsCyclically) {
  const CarbonTrace trace("t", {10.0, 20.0, 30.0});
  EXPECT_DOUBLE_EQ(trace.at(0), 10.0);
  EXPECT_DOUBLE_EQ(trace.at(2), 30.0);
  EXPECT_DOUBLE_EQ(trace.at(3), 10.0);
  EXPECT_DOUBLE_EQ(trace.at(7), 20.0);
}

TEST(CarbonTrace, MeanOverWindow) {
  const CarbonTrace trace("t", {10.0, 20.0, 30.0, 40.0});
  EXPECT_DOUBLE_EQ(trace.mean_over(0, 4), 25.0);
  EXPECT_DOUBLE_EQ(trace.mean_over(1, 2), 25.0);
  EXPECT_DOUBLE_EQ(trace.mean_over(3, 2), 25.0);  // wraps: 40, 10
  EXPECT_DOUBLE_EQ(trace.mean_over(0, 0), 0.0);
}

TEST(CarbonTrace, YearlyStatsOnFullTrace) {
  const CarbonTrace trace = ramp_trace(kHoursPerYear);
  EXPECT_DOUBLE_EQ(trace.yearly_min(), 0.0);
  EXPECT_DOUBLE_EQ(trace.yearly_max(), kHoursPerYear - 1.0);
  EXPECT_NEAR(trace.yearly_mean(), (kHoursPerYear - 1.0) / 2.0, 1e-6);
}

TEST(CarbonTrace, MonthlyMeansPartitionYearlyMean) {
  const CarbonTrace trace = ramp_trace(kHoursPerYear);
  double weighted = 0.0;
  for (std::uint32_t m = 0; m < kMonthsPerYear; ++m) {
    weighted += trace.monthly_mean(m) * days_in_month(m) * kHoursPerDay;
  }
  EXPECT_NEAR(weighted / kHoursPerYear, trace.yearly_mean(), 1e-6);
}

TEST(CarbonTrace, MonthlyMeanOfRampIncreases) {
  const CarbonTrace trace = ramp_trace(kHoursPerYear);
  for (std::uint32_t m = 1; m < kMonthsPerYear; ++m) {
    EXPECT_GT(trace.monthly_mean(m), trace.monthly_mean(m - 1));
  }
}

TEST(CarbonTrace, AverageMixNormalized) {
  GenerationMix avg;
  avg.set(EnergySource::kGas, 0.5);
  avg.set(EnergySource::kWind, 0.5);
  const CarbonTrace trace("t", {1.0, 2.0}, avg);
  EXPECT_NEAR(trace.average_mix().total(), 1.0, 1e-9);
  EXPECT_EQ(trace.average_mix(), avg);  // kept as given
}

}  // namespace
}  // namespace carbonedge::carbon
