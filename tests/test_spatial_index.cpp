// SpatialIndex vs the brute-force oracle: the index's determinism contract
// is bit-identity with a linear scan, so every comparison here is EXPECT_EQ
// on indices and exact distances — never NEAR.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "geo/catalog.hpp"
#include "geo/city.hpp"
#include "geo/coord.hpp"
#include "geo/site.hpp"
#include "geo/spatial_index.hpp"
#include "util/random.hpp"

namespace carbonedge::geo {
namespace {

double unit(util::Rng& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

// Random site set covering the awkward geometry: uniform sphere-ish spread
// plus clusters at both poles and on both sides of the antimeridian.
std::vector<City> fuzz_sites(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<City> sites;
  sites.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    City c;
    c.id = static_cast<SiteId>(i);
    c.name = "fuzz-" + std::to_string(i);
    c.country = "XX";
    switch (i % 7) {
      case 5:  // polar caps
        c.location.lat_deg = (rng() % 2 == 0 ? 1.0 : -1.0) * (80.0 + 10.0 * unit(rng));
        c.location.lon_deg = -180.0 + 360.0 * unit(rng);
        break;
      case 6:  // antimeridian strip
        c.location.lat_deg = -60.0 + 120.0 * unit(rng);
        c.location.lon_deg = 175.0 + 10.0 * unit(rng);
        if (c.location.lon_deg > 180.0) c.location.lon_deg -= 360.0;
        break;
      default:
        c.location.lat_deg = -90.0 + 180.0 * unit(rng);
        c.location.lon_deg = -180.0 + 360.0 * unit(rng);
        break;
    }
    sites.push_back(std::move(c));
  }
  return sites;
}

std::vector<std::uint32_t> brute_radius(const std::vector<City>& sites, const GeoPoint& point,
                                        double radius_km) {
  std::vector<std::uint32_t> hits;
  for (std::size_t i = 0; i < sites.size(); ++i) {
    if (haversine_km(point, sites[i].location) <= radius_km) {
      hits.push_back(static_cast<std::uint32_t>(i));
    }
  }
  return hits;
}

std::vector<GeoPoint> fuzz_queries(const std::vector<City>& sites, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<GeoPoint> queries;
  for (std::size_t q = 0; q < 64; ++q) {
    queries.push_back({-90.0 + 180.0 * unit(rng), -180.0 + 360.0 * unit(rng)});
  }
  // Exact site locations (distance-0 hits), both poles, and
  // points hugging the antimeridian from each side.
  for (std::size_t i = 0; i < sites.size(); i += 9) queries.push_back(sites[i].location);
  queries.push_back({90.0, 0.0});
  queries.push_back({-90.0, 135.0});
  queries.push_back({10.0, 180.0});
  queries.push_back({10.0, -180.0});
  queries.push_back({-45.0, 179.999});
  queries.push_back({67.0, -179.5});
  return queries;
}

TEST(SpatialIndex, WithinRadiusMatchesBruteForceOnFuzzedSets) {
  const std::vector<City> sites = fuzz_sites(257, 44);
  const SpatialIndex index(sites);
  for (const GeoPoint& q : fuzz_queries(sites, 0x5eedULL)) {
    for (const double radius_km : {0.0, 150.0, 800.0, 3000.0, 12000.0, 25000.0}) {
      EXPECT_EQ(index.within_radius(q, radius_km), brute_radius(sites, q, radius_km))
          << "query (" << q.lat_deg << ", " << q.lon_deg << ") radius " << radius_km;
    }
  }
}

TEST(SpatialIndex, EmptyIndexHasNoHits) {
  const std::vector<City> none;
  const SpatialIndex index{std::span<const City>(none)};
  EXPECT_TRUE(index.within_radius({0.0, 0.0}, 1000.0).empty());
}

TEST(SpatialIndex, CatalogOverloadReturnsSiteIds) {
  const auto& db = CityDatabase::builtin();
  const SpatialIndex index(db);
  // A zero radius around Miami's own location must contain Miami's SiteId.
  const City& miami = db.require("Miami");
  const std::vector<std::uint32_t> hits = index.within_radius(miami.location, 0.0);
  EXPECT_NE(std::find(hits.begin(), hits.end(), miami.id), hits.end());
}

TEST(SpatialIndex, PolarRadiusQueriesMatchBruteForce) {
  // Dense polar cluster: all meridians converge, so a disc's column span
  // widens, up to every column of its rows. Still bit-equal to brute force.
  std::vector<City> sites = fuzz_sites(64, 99);
  for (std::size_t i = 0; i < sites.size(); ++i) {
    sites[i].location.lat_deg = 84.0 + 5.9 * (static_cast<double>(i) / sites.size());
    sites[i].location.lon_deg = -180.0 + 360.0 * (static_cast<double>(i * 37 % 64) / 64.0);
  }
  const SpatialIndex index(sites);
  util::Rng rng(123);
  for (int q = 0; q < 32; ++q) {
    const GeoPoint point{80.0 + 10.0 * unit(rng), -180.0 + 360.0 * unit(rng)};
    EXPECT_EQ(index.within_radius(point, 300.0), brute_radius(sites, point, 300.0));
  }
}

}  // namespace
}  // namespace carbonedge::geo
