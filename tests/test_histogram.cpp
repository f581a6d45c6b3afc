#include "util/histogram.hpp"

#include <gtest/gtest.h>

#include "util/random.hpp"
#include "util/stats.hpp"

namespace carbonedge::util {
namespace {

TEST(Histogram, EmptyIsZero) {
  const Histogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(Histogram, InvalidRangeThrows) {
  EXPECT_THROW(Histogram(10.0, 10.0, 5), std::invalid_argument);
  EXPECT_THROW(Histogram(10.0, 5.0, 5), std::invalid_argument);
}

TEST(Histogram, MeanMinMaxTracked) {
  Histogram h(0.0, 100.0, 100);
  h.add(10.0);
  h.add(30.0);
  h.add(50.0);
  EXPECT_DOUBLE_EQ(h.mean(), 30.0);
  EXPECT_DOUBLE_EQ(h.min(), 10.0);
  EXPECT_DOUBLE_EQ(h.max(), 50.0);
  EXPECT_EQ(h.count(), 3u);
}

TEST(Histogram, WeightsCountProportionally) {
  Histogram h(0.0, 100.0, 100);
  h.add(10.0, 3.0);
  h.add(90.0, 1.0);
  EXPECT_DOUBLE_EQ(h.mean(), (3.0 * 10.0 + 90.0) / 4.0);
  // 3/4 of the mass is at 10 -> median lands in the 10 bin.
  EXPECT_NEAR(h.quantile(0.5), 10.0, 2.0);
}

TEST(Histogram, ZeroOrNegativeWeightIgnored) {
  Histogram h;
  h.add(5.0, 0.0);
  h.add(5.0, -1.0);
  EXPECT_TRUE(h.empty());
}

TEST(Histogram, QuantilesMatchExactStatsOnUniformSample) {
  Rng rng(17);
  Histogram h(0.0, 100.0, 1000);
  std::vector<double> sample;
  for (int i = 0; i < 50000; ++i) {
    const double v = rng.uniform(0.0, 100.0);
    h.add(v);
    sample.push_back(v);
  }
  for (const double p : {10.0, 50.0, 95.0}) {
    EXPECT_NEAR(h.quantile(p / 100.0), percentile(sample, p), 0.5) << p;
  }
}

TEST(Histogram, OutOfRangeClampsToEdges) {
  Histogram h(0.0, 10.0, 10);
  h.add(-5.0);
  h.add(25.0);
  EXPECT_DOUBLE_EQ(h.min(), -5.0);
  EXPECT_DOUBLE_EQ(h.max(), 25.0);
  EXPECT_DOUBLE_EQ(h.total_weight(), 2.0);
  // Quantiles clamp to observed min/max.
  EXPECT_DOUBLE_EQ(h.quantile(0.0), -5.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 25.0);
}

}  // namespace
}  // namespace carbonedge::util
