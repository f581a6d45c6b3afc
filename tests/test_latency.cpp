#include "geo/latency.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "geo/catalog.hpp"
#include "geo/latency_io.hpp"
#include "geo/region.hpp"
#include "geo/site.hpp"

namespace carbonedge::geo {
namespace {

const SiteCatalog& db() { return builtin_sites(); }

TEST(LatencyModel, ZeroForSameCity) {
  const LatencyModel model;
  const City& miami = db().require("Miami");
  EXPECT_DOUBLE_EQ(model.one_way_ms(miami, miami), 0.0);
}

TEST(LatencyModel, SymmetricAcrossArgumentOrder) {
  const LatencyModel model;
  const City& a = db().require("Miami");
  const City& b = db().require("Tampa");
  EXPECT_DOUBLE_EQ(model.one_way_ms(a, b), model.one_way_ms(b, a));
}

TEST(LatencyModel, DeterministicAcrossInstances) {
  const LatencyModel m1;
  const LatencyModel m2;
  const City& a = db().require("Bern");
  const City& b = db().require("Graz");
  EXPECT_DOUBLE_EQ(m1.one_way_ms(a, b), m2.one_way_ms(a, b));
}

TEST(LatencyModel, RttIsTwiceOneWay) {
  const LatencyModel model;
  const City& a = db().require("Lyon");
  const City& b = db().require("Munich");
  EXPECT_DOUBLE_EQ(model.rtt_ms(a, b), 2.0 * model.one_way_ms(a, b));
}

TEST(LatencyModel, AboveSpeedOfLightFloor) {
  const LatencyModel model;
  const auto cities = db().all();
  for (std::size_t i = 0; i < cities.size(); i += 7) {
    for (std::size_t j = i + 1; j < cities.size(); j += 11) {
      const double km = haversine_km(cities[i].location, cities[j].location);
      const double floor_ms = km / 204.0;
      EXPECT_GT(model.one_way_ms(cities[i], cities[j]), floor_ms)
          << cities[i].name << " - " << cities[j].name;
    }
  }
}

TEST(LatencyModel, CalibratedToTable1Florida) {
  // Paper Table 1a: Florida one-way latencies between 1.86 and 7.2 ms.
  const LatencyModel model;
  const auto cities = florida_region().resolve();
  for (std::size_t i = 0; i < cities.size(); ++i) {
    for (std::size_t j = i + 1; j < cities.size(); ++j) {
      const double ms = model.one_way_ms(cities[i], cities[j]);
      EXPECT_GT(ms, 1.0) << cities[i].name << "-" << cities[j].name;
      EXPECT_LT(ms, 9.0) << cities[i].name << "-" << cities[j].name;
    }
  }
}

TEST(LatencyModel, CalibratedToTable1CentralEu) {
  // Paper Table 1b: Central-EU one-way latencies between ~4 and ~16.2 ms.
  const LatencyModel model;
  const auto cities = central_eu_region().resolve();
  for (std::size_t i = 0; i < cities.size(); ++i) {
    for (std::size_t j = i + 1; j < cities.size(); ++j) {
      const double ms = model.one_way_ms(cities[i], cities[j]);
      EXPECT_GT(ms, 2.0);
      EXPECT_LT(ms, 18.0);
    }
  }
}

TEST(LatencyModel, CrossBorderPairsPayPenalty) {
  // Same distance, but a cross-border pair should generally exceed a
  // domestic pair of similar length; verify the penalty enters the model by
  // comparing parameterizations directly.
  LatencyModelParams with_penalty;
  LatencyModelParams without_penalty = with_penalty;
  without_penalty.cross_border_penalty = 0.0;
  const LatencyModel penalized(with_penalty);
  const LatencyModel flat(without_penalty);
  const City& bern = db().require("Bern");
  const City& munich = db().require("Munich");  // CH - DE crossing
  EXPECT_GT(penalized.one_way_ms(bern, munich), flat.one_way_ms(bern, munich));
  const City& tampa = db().require("Tampa");
  const City& orlando = db().require("Orlando");  // domestic
  EXPECT_DOUBLE_EQ(penalized.one_way_ms(tampa, orlando), flat.one_way_ms(tampa, orlando));
}

TEST(LatencyProvider, MatchesModelAndIsSymmetric) {
  const LatencyModel model;
  const auto cities = florida_region().resolve();
  const LatencyProvider matrix(model, cities);
  ASSERT_EQ(matrix.size(), cities.size());
  for (std::size_t i = 0; i < cities.size(); ++i) {
    EXPECT_DOUBLE_EQ(matrix.one_way_ms(i, i), 0.0);
    for (std::size_t j = 0; j < cities.size(); ++j) {
      EXPECT_DOUBLE_EQ(matrix.one_way_ms(i, j), matrix.one_way_ms(j, i));
      EXPECT_DOUBLE_EQ(matrix.one_way_ms(i, j), model.one_way_ms(cities[i], cities[j]));
      EXPECT_DOUBLE_EQ(matrix.rtt_ms(i, j), 2.0 * matrix.one_way_ms(i, j));
    }
  }
}

TEST(LatencyModel, LongerDistanceCostsMoreOnAverage) {
  const LatencyModel model;
  const City& miami = db().require("Miami");
  const City& orlando = db().require("Orlando");      // ~330 km
  const City& seattle = db().require("Seattle");      // ~4400 km
  EXPECT_LT(model.one_way_ms(miami, orlando), model.one_way_ms(miami, seattle));
}

// The banded provider against full rows: bit-identical on the shared
// support, +infinity outside the band, neighborhoods ascending.
TEST(BandedLatency, MatchesDenseBitExactlyWithinTheBand) {
  const std::vector<City> cities = cdn_region(Continent::kNorthAmerica).resolve();
  const LatencyModel model;
  const LatencyProvider dense(model, cities);
  const double band_ms = 8.0;
  const LatencyProvider banded(model, cities, band_ms);
  ASSERT_EQ(banded.size(), dense.size());
  EXPECT_EQ(banded.band_one_way_ms(), band_ms);

  std::size_t in_band = 0;
  for (std::size_t i = 0; i < dense.size(); ++i) {
    for (std::size_t j = 0; j < dense.size(); ++j) {
      const double dense_ms = dense.one_way_ms(i, j);
      if (dense_ms <= band_ms) {
        // Exact equality: the band scores candidates with the same model.
        EXPECT_EQ(banded.one_way_ms(i, j), dense_ms) << i << "," << j;
        ++in_band;
      } else {
        EXPECT_TRUE(std::isinf(banded.one_way_ms(i, j))) << i << "," << j;
      }
    }
  }
  EXPECT_EQ(banded.stored_entries(), in_band);
  // The band must actually be sparse on a continental geography.
  EXPECT_LT(banded.stored_entries(), dense.size() * dense.size());
}

TEST(BandedLatency, NeighborhoodsAreAscendingAndMirrorTheSupport) {
  const std::vector<City> cities = cdn_region(Continent::kEurope).resolve();
  const LatencyModel model;
  const LatencyProvider banded(model, cities, 6.0);
  std::size_t total = 0;
  for (std::size_t i = 0; i < banded.size(); ++i) {
    const auto row = banded.neighbors(i);
    total += row.size();
    for (std::size_t k = 0; k < row.size(); ++k) {
      if (k > 0) {
        EXPECT_LT(row[k - 1], row[k]);  // strictly ascending
      }
      EXPECT_TRUE(std::isfinite(banded.one_way_ms(i, row[k])));
      // Symmetry: j in neighbors(i) <=> i in neighbors(j) (the model is
      // exactly symmetric, so band membership is too).
      EXPECT_EQ(banded.one_way_ms(row[k], i), banded.one_way_ms(i, row[k]));
    }
    // The diagonal is always in band (0 ms).
    EXPECT_EQ(banded.one_way_ms(i, i), 0.0);
  }
  EXPECT_EQ(total, banded.stored_entries());
}

TEST(BandedLatency, FullRowProviderListsEverySite) {
  const std::vector<City> cities = florida_region().resolve();
  const LatencyProvider provider(LatencyModel{}, cities);
  // A full row is every site in ascending order, so callers that scan
  // neighbors(i) visit the whole dense geography.
  for (std::size_t i = 0; i < provider.size(); ++i) {
    const auto row = provider.neighbors(i);
    ASSERT_EQ(row.size(), provider.size());
    for (std::size_t k = 0; k < row.size(); ++k) EXPECT_EQ(row[k], k);
  }
  EXPECT_EQ(provider.band_one_way_ms(), std::numeric_limits<double>::infinity());
  EXPECT_EQ(provider.rtt_ms(0, 1), 2.0 * provider.one_way_ms(0, 1));
}

TEST(BandedLatency, BandBelowBaseLatencyThrows) {
  const std::vector<City> cities = florida_region().resolve();
  const LatencyModel model;
  EXPECT_THROW(LatencyProvider(model, cities, model.params().base_ms), std::invalid_argument);
  EXPECT_THROW(LatencyProvider(model, cities, 0.0), std::invalid_argument);
}

TEST(BandedLatency, WideBandDegeneratesToTheDenseMatrix) {
  const std::vector<City> cities = central_eu_region().resolve();
  const LatencyModel model;
  const LatencyProvider dense(model, cities);
  const LatencyProvider banded(model, cities, 1e6);
  EXPECT_EQ(banded.stored_entries(), cities.size() * cities.size());
  for (std::size_t i = 0; i < cities.size(); ++i) {
    for (std::size_t j = 0; j < cities.size(); ++j) {
      EXPECT_EQ(banded.one_way_ms(i, j), dense.one_way_ms(i, j));
    }
  }
}

// row_ms(i) is the value side of neighbors(i): every entry bit-equals the
// one_way_ms lookup it replaces, on every layout the provider is built in.
void expect_rows_match_lookups(const LatencyProvider& provider) {
  ASSERT_GT(provider.size(), 0u);
  for (std::size_t i = 0; i < provider.size(); ++i) {
    const auto sites = provider.neighbors(i);
    const auto ms = provider.row_ms(i);
    ASSERT_EQ(ms.size(), sites.size()) << "row " << i;
    for (std::size_t k = 0; k < sites.size(); ++k) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(ms[k]),
                std::bit_cast<std::uint64_t>(provider.one_way_ms(i, sites[k])))
          << "row " << i << ", entry " << k;
    }
  }
}

TEST(LatencyProvider, RowValuesMatchLookupsOnFullRows) {
  expect_rows_match_lookups(
      LatencyProvider(LatencyModel{}, cdn_region(Continent::kEurope).resolve()));
}

TEST(LatencyProvider, RowValuesMatchLookupsOnBandedRows) {
  const std::vector<City> cities = cdn_region(Continent::kNorthAmerica).resolve();
  for (const double band_ms : {2.0, 6.0, 12.0, 1e6}) {
    expect_rows_match_lookups(LatencyProvider(LatencyModel{}, cities, band_ms));
  }
}

TEST(LatencyProvider, RowValuesMatchLookupsOnCsvBuiltRows) {
  const std::vector<City> cities = central_eu_region().resolve();
  std::ostringstream csv;
  write_latency_csv(csv, cities, LatencyModel{});
  expect_rows_match_lookups(read_latency_csv(csv.str(), cities));
}

}  // namespace
}  // namespace carbonedge::geo
