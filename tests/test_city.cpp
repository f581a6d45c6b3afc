#include "geo/city.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <set>

namespace carbonedge::geo {
namespace {

TEST(CityDatabase, ContainsAllPaperNamedCities) {
  const auto& db = CityDatabase::builtin();
  for (const char* name :
       {"Jacksonville", "Miami", "Tampa", "Orlando", "Tallahassee", "Las Vegas", "Kingman",
        "San Diego", "Phoenix", "Flagstaff", "Milan", "Rome", "Cagliari", "Palermo", "Arezzo",
        "Bern", "Munich", "Lyon", "Graz", "Toronto", "New York", "Warsaw", "Paris", "Oslo",
        "Vienna", "Zagreb", "Salt Lake City"}) {
    EXPECT_TRUE(db.find(name).has_value()) << name;
  }
}

TEST(CityDatabase, IdsAreDenseAndStable) {
  const auto& db = CityDatabase::builtin();
  for (std::size_t i = 0; i < db.size(); ++i) {
    EXPECT_EQ(db.by_id(static_cast<CityId>(i)).id, i);
  }
}

TEST(CityDatabase, NamesAreUnique) {
  const auto& db = CityDatabase::builtin();
  std::set<std::string> names;
  for (const City& c : db.all()) {
    EXPECT_TRUE(names.insert(c.name).second) << "duplicate city: " << c.name;
  }
}

TEST(CityDatabase, CoordinatesAreValid) {
  const auto& db = CityDatabase::builtin();
  for (const City& c : db.all()) {
    EXPECT_GE(c.location.lat_deg, -90.0);
    EXPECT_LE(c.location.lat_deg, 90.0);
    EXPECT_GE(c.location.lon_deg, -180.0);
    EXPECT_LE(c.location.lon_deg, 180.0);
    EXPECT_GT(c.population_k, 0.0) << c.name;
  }
}

TEST(CityDatabase, ContinentsMatchLongitudeSplit) {
  const auto& db = CityDatabase::builtin();
  for (const City& c : db.all()) {
    if (c.continent == Continent::kNorthAmerica) {
      EXPECT_LT(c.location.lon_deg, -50.0) << c.name;
    } else {
      EXPECT_GT(c.location.lon_deg, -15.0) << c.name;
    }
  }
}

TEST(CityDatabase, RequireThrowsOnUnknown) {
  const auto& db = CityDatabase::builtin();
  EXPECT_THROW((void)db.require("Atlantis"), std::out_of_range);
  EXPECT_NO_THROW((void)db.require("Miami"));
}

TEST(CityDatabase, ByIdOutOfRangeThrows) {
  const auto& db = CityDatabase::builtin();
  EXPECT_THROW((void)db.by_id(static_cast<CityId>(db.size())), std::out_of_range);
}

TEST(CityDatabase, ByContinentSortedByPopulation) {
  const auto& db = CityDatabase::builtin();
  const auto us = db.by_continent(Continent::kNorthAmerica);
  ASSERT_GT(us.size(), 10u);
  for (std::size_t i = 1; i < us.size(); ++i) {
    EXPECT_GE(db.by_id(us[i - 1]).population_k, db.by_id(us[i]).population_k);
  }
  // New York is the largest North American metro in the set.
  EXPECT_EQ(db.by_id(us.front()).name, "New York");
}

TEST(CityDatabase, CoverageIsCdnScale) {
  const auto& db = CityDatabase::builtin();
  const auto us = db.by_continent(Continent::kNorthAmerica);
  const auto eu = db.by_continent(Continent::kEurope);
  // The paper's latency dataset covers 64 US and 64 EU cities; our builtin
  // set provides the same order of coverage.
  EXPECT_GE(us.size(), 55u);
  EXPECT_GE(eu.size(), 55u);
}

TEST(CityDatabase, NearestFindsAnchor) {
  const auto& db = CityDatabase::builtin();
  const City& miami = db.require("Miami");
  EXPECT_EQ(db.nearest(miami.location), std::optional<SiteId>(miami.id));
  // A point in the Everglades is still closest to Miami.
  EXPECT_EQ(db.nearest({25.9, -80.7}), std::optional<SiteId>(miami.id));
}

}  // namespace
}  // namespace carbonedge::geo
