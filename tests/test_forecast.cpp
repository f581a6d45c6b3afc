#include "carbon/forecast.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "carbon/synthesizer.hpp"
#include "carbon/zone.hpp"
#include "geo/catalog.hpp"

namespace carbonedge::carbon {
namespace {

CarbonTrace sine_trace() {
  std::vector<double> values;
  values.reserve(kHoursPerYear);
  for (std::uint32_t h = 0; h < kHoursPerYear; ++h) {
    values.push_back(300.0 + 100.0 * std::sin(2.0 * 3.14159265 * (h % 24) / 24.0));
  }
  return CarbonTrace("sine", std::move(values));
}

CarbonTrace real_trace() {
  const auto& db = geo::builtin_sites();
  return TraceSynthesizer().synthesize(ZoneCatalog::builtin().spec_for(db.require("Flagstaff")));
}

TEST(Oracle, ReplaysTraceExactly) {
  const CarbonTrace trace = sine_trace();
  const OracleForecaster oracle;
  const auto f = oracle.forecast(trace, 100, 24);
  ASSERT_EQ(f.size(), 24u);
  for (std::uint32_t i = 0; i < 24; ++i) EXPECT_DOUBLE_EQ(f[i], trace.at(100 + i));
  EXPECT_DOUBLE_EQ(forecast_mape(oracle, trace, 0, 500, 6), 0.0);
}

TEST(Persistence, HoldsLastObservation) {
  const CarbonTrace trace = sine_trace();
  const PersistenceForecaster persistence;
  const auto f = persistence.forecast(trace, 50, 4);
  for (const double v : f) EXPECT_DOUBLE_EQ(v, trace.at(49));
}

TEST(Persistence, AtTimeZeroUsesFirstValue) {
  const CarbonTrace trace = sine_trace();
  const PersistenceForecaster persistence;
  EXPECT_DOUBLE_EQ(persistence.forecast(trace, 0, 1)[0], trace.at(0));
}

TEST(MovingAverage, AveragesTrailingWindow) {
  const CarbonTrace trace("t", {10.0, 20.0, 30.0, 40.0, 50.0});
  const MovingAverageForecaster ma(3);
  const auto f = ma.forecast(trace, 4, 2);
  // trailing 3 of hours {1,2,3} = (20+30+40)/3 = 30.
  EXPECT_DOUBLE_EQ(f[0], 30.0);
  EXPECT_DOUBLE_EQ(f[1], 30.0);
}

TEST(MovingAverage, TruncatesAtHistoryStart) {
  const CarbonTrace trace("t", {10.0, 20.0, 30.0});
  const MovingAverageForecaster ma(24);
  EXPECT_DOUBLE_EQ(ma.forecast(trace, 2, 1)[0], 15.0);  // mean of {10, 20}
  EXPECT_DOUBLE_EQ(ma.forecast(trace, 0, 1)[0], 10.0);  // no history: first value
}

TEST(Diurnal, LearnsPerfectlyPeriodicSignal) {
  const CarbonTrace trace = sine_trace();
  const DiurnalForecaster diurnal(7);
  // After a week of history, a 24h-periodic signal is predicted exactly.
  const auto f = diurnal.forecast(trace, 24 * 10, 24);
  for (std::uint32_t i = 0; i < 24; ++i) EXPECT_NEAR(f[i], trace.at(24 * 10 + i), 1e-9);
}

TEST(Diurnal, CausalBeforeFirstDay) {
  const CarbonTrace trace = sine_trace();
  const DiurnalForecaster diurnal(7);
  const auto f = diurnal.forecast(trace, 0, 2);
  ASSERT_EQ(f.size(), 2u);  // falls back to first value, stays finite
  for (const double v : f) EXPECT_TRUE(std::isfinite(v));
}

TEST(ForecastAccuracy, DiurnalBeatsPersistenceOnSolarZone) {
  // A zone with strong diurnal solar (Flagstaff) is predicted much better
  // by hour-of-day climatology than by flat persistence at 24h horizons.
  const CarbonTrace trace = real_trace();
  const DiurnalForecaster diurnal(7);
  const PersistenceForecaster persistence;
  const double mape_diurnal = forecast_mape(diurnal, trace, 24 * 14, 24 * 44, 24);
  const double mape_persistence = forecast_mape(persistence, trace, 24 * 14, 24 * 44, 24);
  EXPECT_LT(mape_diurnal, mape_persistence);
}

TEST(MeanForecast, MatchesWindowAverage) {
  const CarbonTrace trace("t", {10.0, 20.0, 30.0, 40.0});
  const OracleForecaster oracle;
  EXPECT_DOUBLE_EQ(oracle.mean_forecast(trace, 1, 2), 25.0);
  EXPECT_DOUBLE_EQ(oracle.mean_forecast(trace, 0, 0), 10.0);  // degenerate horizon
}

TEST(Factory, MakesAllKnownForecasters) {
  EXPECT_EQ(make_forecaster("oracle")->name(), "oracle");
  EXPECT_EQ(make_forecaster("persistence")->name(), "persistence");
  EXPECT_NE(make_forecaster("moving_average")->name().find("moving_average"), std::string::npos);
  EXPECT_NE(make_forecaster("diurnal")->name().find("diurnal"), std::string::npos);
  EXPECT_THROW(make_forecaster("lstm"), std::invalid_argument);
}


TEST(HoltWinters, ConstantSignalConverges) {
  const CarbonTrace trace("c", std::vector<double>(kHoursPerYear, 250.0));
  const HoltWintersForecaster hw;
  const auto f = hw.forecast(trace, 24 * 30, 24);
  for (const double v : f) EXPECT_NEAR(v, 250.0, 1e-6);
}

TEST(HoltWinters, LearnsDiurnalShape) {
  const CarbonTrace trace = sine_trace();
  const HoltWintersForecaster hw;
  const auto f = hw.forecast(trace, 24 * 30, 24);
  for (std::uint32_t i = 0; i < 24; ++i) {
    EXPECT_NEAR(f[i], trace.at(24 * 30 + i), 12.0) << i;
  }
}

TEST(HoltWinters, BeatsPersistenceOnSolarZone) {
  const CarbonTrace trace = real_trace();
  const HoltWintersForecaster hw;
  const PersistenceForecaster persistence;
  EXPECT_LT(forecast_mape(hw, trace, 24 * 14, 24 * 44, 24),
            forecast_mape(persistence, trace, 24 * 14, 24 * 44, 24));
}

TEST(HoltWinters, NonNegativeForecasts) {
  const CarbonTrace trace("near_zero", std::vector<double>(kHoursPerYear, 0.5));
  const HoltWintersForecaster hw;
  for (const double v : hw.forecast(trace, 1000, 24)) EXPECT_GE(v, 0.0);
}

TEST(HoltWinters, InvalidSmoothingThrows) {
  EXPECT_THROW(HoltWintersForecaster(0.0, 0.1), std::invalid_argument);
  EXPECT_THROW(HoltWintersForecaster(0.2, 1.5), std::invalid_argument);
}

TEST(HoltWinters, TimeZeroFallsBackToFirstValue) {
  const CarbonTrace trace = sine_trace();
  const HoltWintersForecaster hw;
  const auto f = hw.forecast(trace, 0, 3);
  for (const double v : f) EXPECT_DOUBLE_EQ(v, trace.at(0));
}

TEST(Factory, MakesHoltWinters) {
  EXPECT_EQ(make_forecaster("holt_winters")->name(), "holt_winters");
}

TEST(ForecastAccuracy, MapeZeroOnDegenerateRanges) {
  const CarbonTrace trace = sine_trace();
  const OracleForecaster oracle;
  EXPECT_DOUBLE_EQ(forecast_mape(oracle, trace, 10, 10, 4), 0.0);
  EXPECT_DOUBLE_EQ(forecast_mape(oracle, trace, 10, 20, 0), 0.0);
}

}  // namespace
}  // namespace carbonedge::carbon
