#include "carbon/synthesizer.hpp"

#include <gtest/gtest.h>

#include "geo/region.hpp"
#include "util/hash.hpp"

namespace carbonedge::carbon {
namespace {

const ZoneCatalog& catalog() { return ZoneCatalog::builtin(); }
const geo::SiteCatalog& db() { return geo::builtin_sites(); }

ZoneSpec spec(const char* city) { return catalog().spec_for(db().require(city)); }

TEST(ClearSky, ZeroAtNight) {
  EXPECT_DOUBLE_EQ(TraceSynthesizer::clear_sky(40.0, 0, 180), 0.0);
  EXPECT_DOUBLE_EQ(TraceSynthesizer::clear_sky(40.0, 23, 180), 0.0);
}

TEST(ClearSky, PeaksAtNoon) {
  const double noon = TraceSynthesizer::clear_sky(40.0, 12, 172);  // summer solstice
  const double morning = TraceSynthesizer::clear_sky(40.0, 8, 172);
  EXPECT_GT(noon, morning);
  EXPECT_GT(noon, 0.8);
  EXPECT_LE(noon, 1.0);
}

TEST(ClearSky, SummerStrongerThanWinterAtMidLatitudes) {
  const double summer = TraceSynthesizer::clear_sky(47.0, 12, 172);
  const double winter = TraceSynthesizer::clear_sky(47.0, 12, 355);
  EXPECT_GT(summer, winter);
}

TEST(ClearSky, PolarNightGivesZero) {
  // Latitude 75N around the December solstice: sun never rises.
  for (std::uint32_t h = 0; h < 24; ++h) {
    EXPECT_DOUBLE_EQ(TraceSynthesizer::clear_sky(75.0, h, 355), 0.0);
  }
}

TEST(DemandShape, WithinConfiguredBand) {
  const ZoneSpec zone = spec("Miami");
  for (std::uint32_t d = 0; d < 365; d += 30) {
    for (std::uint32_t h = 0; h < 24; ++h) {
      const double demand = TraceSynthesizer::demand_shape(zone, h, d);
      EXPECT_GT(demand, zone.demand_base * 0.8);
      EXPECT_LT(demand, zone.demand_peak * 1.2);
    }
  }
}

TEST(DemandShape, EveningPeakExceedsNightTrough) {
  const ZoneSpec zone = spec("Munich");
  EXPECT_GT(TraceSynthesizer::demand_shape(zone, 19, 100),
            TraceSynthesizer::demand_shape(zone, 4, 100));
}

TEST(Synthesizer, ProducesFullYearNonNegative) {
  const TraceSynthesizer synth;
  const CarbonTrace trace = synth.synthesize(spec("Orlando"));
  ASSERT_EQ(trace.hours(), kHoursPerYear);
  for (const double v : trace.values()) {
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1000.0);
  }
  EXPECT_EQ(trace.mixes().size(), kHoursPerYear);
}

TEST(Synthesizer, DeterministicPerZoneAndSeed) {
  const TraceSynthesizer synth;
  const CarbonTrace a = synth.synthesize(spec("Graz"));
  const CarbonTrace b = synth.synthesize(spec("Graz"));
  ASSERT_EQ(a.hours(), b.hours());
  for (std::size_t h = 0; h < a.hours(); h += 97) EXPECT_DOUBLE_EQ(a.at(h), b.at(h));
}

TEST(Synthesizer, IndependentOfGenerationOrder) {
  const TraceSynthesizer synth;
  std::vector<CarbonTrace> batch;
  for (const char* city : {"Bern", "Munich"}) batch.push_back(synth.synthesize(spec(city)));
  const CarbonTrace solo = synth.synthesize(spec("Munich"));
  EXPECT_DOUBLE_EQ(batch[1].at(1234), solo.at(1234));
}

TEST(Synthesizer, SeedChangesTrace) {
  SynthesizerParams params;
  params.seed = 1;
  const CarbonTrace a = TraceSynthesizer(params).synthesize(spec("Rome"));
  params.seed = 2;
  const CarbonTrace b = TraceSynthesizer(params).synthesize(spec("Rome"));
  bool any_diff = false;
  for (std::size_t h = 0; h < a.hours(); h += 13) any_diff |= a.at(h) != b.at(h);
  EXPECT_TRUE(any_diff);
}

TEST(Synthesizer, WestUsYearlySpreadMatchesFigure3a) {
  // Paper: ~2.7x between Kingman (max) and San Diego (min).
  const TraceSynthesizer synth;
  const double kingman = synth.synthesize(spec("Kingman")).yearly_mean();
  const double san_diego = synth.synthesize(spec("San Diego")).yearly_mean();
  const double ratio = kingman / san_diego;
  EXPECT_GT(ratio, 1.8);
  EXPECT_LT(ratio, 3.8);
}

TEST(Synthesizer, CentralEuYearlySpreadMatchesFigure3b) {
  // Paper: ~10.8x between Munich and the hydro/nuclear zones.
  const TraceSynthesizer synth;
  double lo = 1e18;
  double hi = 0.0;
  for (const geo::City& city : geo::central_eu_region().resolve()) {
    const double mean = synth.synthesize(catalog().spec_for(city)).yearly_mean();
    lo = std::min(lo, mean);
    hi = std::max(hi, mean);
  }
  EXPECT_GT(hi / lo, 6.0);
  EXPECT_LT(hi / lo, 20.0);
}

TEST(Synthesizer, SolarZoneHasMiddayDip) {
  // Kingman has 22% solar over coal: its average day shape must dip around
  // noon relative to midnight (Figure 4a's diurnal swing).
  const TraceSynthesizer synth;
  const CarbonTrace trace = synth.synthesize(spec("Kingman"));
  std::array<double, 24> by_hour{};
  for (std::uint32_t h = 0; h < trace.hours(); ++h) by_hour[hour_of_day(h)] += trace.at(h);
  EXPECT_LT(by_hour[12], by_hour[2] * 0.97);
}

TEST(Synthesizer, ImportBlendRaisesCleanZoneFloor) {
  SynthesizerParams no_imports;
  no_imports.grid_import_fraction = 0.0;
  SynthesizerParams with_imports;
  with_imports.grid_import_fraction = 0.10;
  const double lo = TraceSynthesizer(no_imports).synthesize(spec("Oslo")).yearly_mean();
  const double hi = TraceSynthesizer(with_imports).synthesize(spec("Oslo")).yearly_mean();
  EXPECT_GT(hi, lo + 20.0);
}

TEST(Synthesizer, HourlyMixesAreNormalized) {
  const TraceSynthesizer synth;
  const CarbonTrace trace = synth.synthesize(spec("Madrid"));
  for (std::size_t h = 0; h < trace.hours(); h += 131) {
    EXPECT_NEAR(trace.mixes()[h].total(), 1.0, 1e-9);
  }
}

TEST(Synthesizer, CoalZoneMixIsCoalDominated) {
  const TraceSynthesizer synth;
  const GenerationMix avg = synth.synthesize(spec("Warsaw")).average_mix();
  EXPECT_GT(avg.at(EnergySource::kCoal), 0.4);
}

// Digest of every intensity value and every mix share of the 80 CDN zones
// (North America then Europe, 40 sites each, region order) at default
// SynthesizerParams. The constant was printed by this test, built in Release
// with g++ 12 on x86-64, against the synthesizer that still evaluated every
// day and hour-of-day term inside its hourly loop. Tabulating those terms
// must not move a single bit of any trace.
TEST(Synthesizer, CdnZonesMatchRecordedDigest) {
  const TraceSynthesizer synth;
  util::Fingerprint fp;
  std::size_t zones = 0;
  for (const geo::Continent continent : {geo::Continent::kNorthAmerica, geo::Continent::kEurope}) {
    for (const geo::City& city : geo::cdn_region(continent, 40).resolve()) {
      const CarbonTrace trace = synth.synthesize(catalog().spec_for(city));
      for (const double v : trace.values()) fp.mix(v);
      for (const GenerationMix& mix : trace.mixes()) {
        for (const double share : mix.shares()) fp.mix(share);
      }
      ++zones;
    }
  }
  EXPECT_EQ(zones, 80u);
  EXPECT_EQ(fp.digest().hex(), "d71d44e021719845aa29b5ce7cbff627");
}

// A trace over N hours is the first N hours of any longer trace: nothing in
// the synthesis may depend on the horizon. Latitude 69.6 covers midnight sun
// and polar night; 8760 + 36 hours crosses the day-of-year wrap.
TEST(Synthesizer, ShorterHorizonIsAPrefix) {
  constexpr std::uint32_t kLongest = kHoursPerYear + 36;
  for (const double latitude : {69.6, -33.9, 1.3, 45.0}) {
    ZoneSpec zone = spec("Kingman");  // 22% solar: clear-sky terms reach the mix
    zone.latitude_deg = latitude;
    SynthesizerParams params;
    params.hours = kLongest;
    const CarbonTrace full = TraceSynthesizer(params).synthesize(zone);
    ASSERT_EQ(full.hours(), kLongest);
    for (const std::uint32_t hours : {1u, 36u, 336u, kHoursPerYear, kLongest}) {
      params.hours = hours;
      const CarbonTrace part = TraceSynthesizer(params).synthesize(zone);
      ASSERT_EQ(part.hours(), hours);
      ASSERT_EQ(part.mixes().size(), hours);
      for (std::uint32_t h = 0; h < hours; ++h) {
        ASSERT_EQ(part.at(h), full.at(h)) << "latitude " << latitude << " hours " << hours
                                          << " hour " << h;
        ASSERT_EQ(part.mixes()[h].shares(), full.mixes()[h].shares())
            << "latitude " << latitude << " hours " << hours << " hour " << h;
      }
    }
  }
}

TEST(Synthesizer, ShorterHorizonSupported) {
  SynthesizerParams params;
  params.hours = 48;
  const CarbonTrace trace = TraceSynthesizer(params).synthesize(spec("Lyon"));
  EXPECT_EQ(trace.hours(), 48u);
}

}  // namespace
}  // namespace carbonedge::carbon
