#include "carbon/service.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "geo/region.hpp"

namespace carbonedge::carbon {
namespace {

TEST(CarbonService, AddRegionRegistersAllZones) {
  CarbonIntensityService service;
  const auto names = service.add_region(geo::florida_region());
  EXPECT_EQ(names.size(), 5u);
  EXPECT_EQ(service.zone_count(), 5u);
  for (const std::string& name : names) EXPECT_TRUE(service.has_zone(name));
  EXPECT_FALSE(service.has_zone("Bern"));
}

TEST(CarbonService, IntensityMatchesTrace) {
  CarbonIntensityService service;
  service.add_region(geo::central_eu_region());
  const CarbonTrace& trace = service.trace("Munich");
  EXPECT_DOUBLE_EQ(service.intensity("Munich", 123), trace.at(123));
}

TEST(CarbonService, UnknownZoneThrows) {
  CarbonIntensityService service;
  EXPECT_THROW((void)service.intensity("Nowhere", 0), std::out_of_range);
  EXPECT_THROW((void)service.trace("Nowhere"), std::out_of_range);
  EXPECT_THROW((void)service.forecaster().mean_forecast(service.trace("Nowhere"), 0, 1),
               std::out_of_range);
}

TEST(CarbonService, OracleMeanForecastEqualsTrueMean) {
  CarbonIntensityService service;  // defaults to oracle
  service.add_region(geo::west_us_region());
  const CarbonTrace& trace = service.trace("Kingman");
  EXPECT_DOUBLE_EQ(service.forecaster().mean_forecast(trace, 100, 24), trace.mean_over(100, 24));
}

TEST(CarbonService, ForecasterSwappable) {
  CarbonIntensityService service;
  service.add_trace(CarbonTrace("z", {10.0, 20.0, 30.0, 40.0}));
  service.set_forecaster(std::make_unique<PersistenceForecaster>());
  // Persistence at t=2 holds trace[1] = 20 for the whole horizon.
  EXPECT_DOUBLE_EQ(service.forecaster().mean_forecast(service.trace("z"), 2, 2), 20.0);
  EXPECT_EQ(service.forecaster().name(), "persistence");
  EXPECT_THROW(service.set_forecaster(nullptr), std::invalid_argument);
}

TEST(CarbonService, AddTraceReplacesExisting) {
  CarbonIntensityService service;
  service.add_trace(CarbonTrace("z", {1.0}));
  service.add_trace(CarbonTrace("z", {5.0}));
  EXPECT_EQ(service.zone_count(), 1u);
  EXPECT_DOUBLE_EQ(service.intensity("z", 0), 5.0);
}

// CarbonTrace::at wraps modulo the trace length, so an empty trace would
// divide by zero on the first query: both overloads refuse to register one.
TEST(CarbonService, AddTraceRejectsEmptyTrace) {
  CarbonIntensityService service;
  EXPECT_THROW(service.add_trace(CarbonTrace{}), std::invalid_argument);
  EXPECT_EQ(service.zone_count(), 0u);
}

TEST(CarbonService, AddSharedTraceRejectsEmptyTrace) {
  CarbonIntensityService service;
  EXPECT_THROW(service.add_trace(std::make_shared<const CarbonTrace>()), std::invalid_argument);
  EXPECT_THROW(service.add_trace(std::shared_ptr<const CarbonTrace>{}), std::invalid_argument);
  EXPECT_EQ(service.zone_count(), 0u);
}

TEST(CarbonService, ForecastSeriesHasRequestedHorizon) {
  CarbonIntensityService service;
  service.add_trace(CarbonTrace("z", {1.0, 2.0, 3.0}));
  EXPECT_EQ(service.forecaster().forecast(service.trace("z"), 0, 5).size(), 5u);
}

TEST(CarbonService, NullForecasterCtorThrows) {
  EXPECT_THROW(CarbonIntensityService(nullptr), std::invalid_argument);
}

TEST(CarbonService, CustomSynthesizerParamsPropagate) {
  CarbonIntensityService a;
  SynthesizerParams params;
  params.seed = 99;
  a.add_region(geo::italy_region(), params);
  CarbonIntensityService b;
  b.add_region(geo::italy_region());  // default seed
  bool any_diff = false;
  for (HourIndex h = 0; h < 200; ++h) {
    any_diff |= a.intensity("Rome", h) != b.intensity("Rome", h);
  }
  EXPECT_TRUE(any_diff);
}

}  // namespace
}  // namespace carbonedge::carbon
