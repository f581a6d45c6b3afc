#include "carbon/zone.hpp"

#include <gtest/gtest.h>

#include "geo/region.hpp"

namespace carbonedge::carbon {
namespace {

const geo::SiteCatalog& db() { return geo::builtin_sites(); }

TEST(ZoneCatalog, PaperNamedZonesHaveOverrides) {
  const auto& catalog = ZoneCatalog::builtin();
  for (const char* name : {"Miami", "Kingman", "Bern", "Lyon", "Munich", "Warsaw", "Oslo"}) {
    EXPECT_TRUE(catalog.has_override(db().require(name))) << name;
  }
}

TEST(ZoneCatalog, SpecsAreNormalized) {
  const auto& catalog = ZoneCatalog::builtin();
  for (const geo::City& city : db().all()) {
    const ZoneSpec spec = catalog.spec_for(city);
    EXPECT_NEAR(spec.capacity.total(), 1.0, 1e-9) << city.name;
    EXPECT_EQ(spec.name, city.name);
    EXPECT_DOUBLE_EQ(spec.latitude_deg, city.location.lat_deg);
    EXPECT_GT(spec.demand_peak, spec.demand_base) << city.name;
  }
}

TEST(ZoneCatalog, CalibratedContrasts) {
  const auto& catalog = ZoneCatalog::builtin();
  // Static capacity-mix intensity already orders the calibrated zones the
  // way the paper reports them.
  const auto ci = [&](const char* name) {
    return catalog.spec_for(db().require(name)).capacity.carbon_intensity();
  };
  // Florida: Miami greenest (Figure 8c places everything there).
  EXPECT_LT(ci("Miami"), ci("Orlando"));
  EXPECT_LT(ci("Miami"), ci("Tampa"));
  EXPECT_LT(ci("Miami"), ci("Jacksonville"));
  EXPECT_LT(ci("Miami"), ci("Tallahassee"));
  // West US: Kingman dirtiest, San Diego cleanest (Figure 3a).
  EXPECT_GT(ci("Kingman"), ci("Flagstaff"));
  EXPECT_LT(ci("San Diego"), ci("Las Vegas"));
  // Central EU: order Bern/Lyon << Graz << Milan < Munich (Figure 3b).
  EXPECT_LT(ci("Bern"), ci("Graz"));
  EXPECT_LT(ci("Lyon"), ci("Graz"));
  EXPECT_LT(ci("Graz"), ci("Milan"));
  // Macro (Figure 1): Ontario (Toronto) clean, Poland (Warsaw) coal-heavy.
  EXPECT_LT(ci("Toronto"), 100.0);
  EXPECT_GT(ci("Warsaw"), 500.0);
}

TEST(ZoneCatalog, CountryDefaultsDifferPerCity) {
  const auto& catalog = ZoneCatalog::builtin();
  // Two German cities without overrides share a country archetype but get
  // deterministic per-city perturbations — neighboring zones must differ
  // (that is the paper's core observation).
  const ZoneSpec a = catalog.spec_for(db().require("Frankfurt"));
  const ZoneSpec b = catalog.spec_for(db().require("Hamburg"));
  EXPECT_NE(a.capacity, b.capacity);
  // But they keep the country character: both burn some coal, both have wind.
  EXPECT_GT(a.capacity.at(EnergySource::kCoal), 0.0);
  EXPECT_GT(b.capacity.at(EnergySource::kWind), 0.0);
}

TEST(ZoneCatalog, SpecsAreDeterministic) {
  const auto& catalog = ZoneCatalog::builtin();
  const ZoneSpec a = catalog.spec_for(db().require("Prague"));
  const ZoneSpec b = catalog.spec_for(db().require("Prague"));
  EXPECT_EQ(a.capacity, b.capacity);
}

TEST(ZoneCatalog, NordicZonesAreHydroHeavy) {
  const auto& catalog = ZoneCatalog::builtin();
  const ZoneSpec oslo = catalog.spec_for(db().require("Oslo"));
  EXPECT_GT(oslo.capacity.at(EnergySource::kHydro), 0.8);
  const ZoneSpec bergen = catalog.spec_for(db().require("Bergen"));
  EXPECT_GT(bergen.capacity.at(EnergySource::kHydro), 0.6);
}

TEST(ZoneCatalog, SpecsForRegionPreserveOrder) {
  const auto& catalog = ZoneCatalog::builtin();
  const auto cities = geo::florida_region().resolve();
  const auto specs = catalog.specs_for(cities);
  ASSERT_EQ(specs.size(), cities.size());
  for (std::size_t i = 0; i < cities.size(); ++i) EXPECT_EQ(specs[i].name, cities[i].name);
}

}  // namespace
}  // namespace carbonedge::carbon
