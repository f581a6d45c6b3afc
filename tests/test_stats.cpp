#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/random.hpp"

namespace carbonedge::util {
namespace {

TEST(Stats, MeanVarianceStddev) {
  const std::vector<double> v = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(mean(v), 5.0);
  EXPECT_DOUBLE_EQ(variance(v), 4.0);
  EXPECT_DOUBLE_EQ(stddev(v), 2.0);
}

TEST(Stats, EmptyInputsAreZero) {
  const std::vector<double> empty;
  EXPECT_EQ(mean(empty), 0.0);
  EXPECT_EQ(variance(empty), 0.0);
  EXPECT_EQ(min_value(empty), 0.0);
  EXPECT_EQ(max_value(empty), 0.0);
  EXPECT_EQ(percentile(empty, 50.0), 0.0);
}

TEST(Stats, MinMaxSum) {
  const std::vector<double> v = {3.0, -1.0, 7.5};
  EXPECT_DOUBLE_EQ(min_value(v), -1.0);
  EXPECT_DOUBLE_EQ(max_value(v), 7.5);
  EXPECT_DOUBLE_EQ(sum(v), 9.5);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> v = {10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 40.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 25.0);
  EXPECT_DOUBLE_EQ(median(v), 25.0);
}

TEST(Stats, PercentileClampsOutOfRangeP) {
  const std::vector<double> v = {1.0, 2.0};
  EXPECT_DOUBLE_EQ(percentile(v, -5.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 250.0), 2.0);
}

TEST(Stats, MinMaxNormalize) {
  EXPECT_DOUBLE_EQ(minmax_normalize(5.0, 0.0, 10.0), 0.5);
  EXPECT_DOUBLE_EQ(minmax_normalize(-1.0, 0.0, 10.0), 0.0);  // clamps
  EXPECT_DOUBLE_EQ(minmax_normalize(11.0, 0.0, 10.0), 1.0);
  EXPECT_DOUBLE_EQ(minmax_normalize(5.0, 3.0, 3.0), 0.0);  // degenerate range
}

TEST(Stats, SummarizeReportsAllFields) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(static_cast<double>(i));
  const Summary s = summarize(v);
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_NEAR(s.median, 50.5, 0.01);
  EXPECT_NEAR(s.p95, 95.05, 0.01);
}

TEST(EmpiricalCdf, StepValuesAndQuantiles) {
  EmpiricalCdf cdf({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(cdf.at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.at(1.0), 0.25);
  EXPECT_DOUBLE_EQ(cdf.at(2.5), 0.5);
  EXPECT_DOUBLE_EQ(cdf.at(10.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.25), 1.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 4.0);
}

TEST(EmpiricalCdf, EmptyIsSafe) {
  EmpiricalCdf cdf;
  EXPECT_TRUE(cdf.empty());
  EXPECT_DOUBLE_EQ(cdf.at(1.0), 0.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 0.0);
  EXPECT_TRUE(cdf.curve(10).empty());
}

TEST(EmpiricalCdf, CurveIsMonotone) {
  Rng rng(5);
  std::vector<double> sample;
  for (int i = 0; i < 500; ++i) sample.push_back(rng.normal(10.0, 2.0));
  EmpiricalCdf cdf(std::move(sample));
  const auto curve = cdf.curve(50);
  ASSERT_EQ(curve.size(), 50u);
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GE(curve[i].second, curve[i - 1].second);
    EXPECT_GE(curve[i].first, curve[i - 1].first);
  }
  EXPECT_DOUBLE_EQ(curve.back().second, 1.0);
}

}  // namespace
}  // namespace carbonedge::util
