// SiteCatalog API + TSV ingest + CEAF codec round-trip.
#include <gtest/gtest.h>

#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "geo/catalog.hpp"
#include "geo/catalog_io.hpp"
#include "geo/site.hpp"
#include "store/artifact_store.hpp"
#include "store/codecs.hpp"
#include "store/site_catalog.hpp"
#include "store_test_util.hpp"
#include "util/hash.hpp"

namespace carbonedge {
namespace {

constexpr const char* kGoodDump =
    "# comment line\n"
    "\n"
    "Springfield\tUS\tNA\t39.7817\t-89.6501\t208\n"
    "Shelbyville\tUS\tNA\t39.4067\t-88.7903\t12.5\r\n"
    "Ogdenville\tCA\tNA\t45.0\t-75.0\t40\n"
    "North Haverbrook\tNO\tEU\t69.1\t18.2\t3\n";

TEST(ParseSitesTsv, ParsesRowsSkippingCommentsAndBlanksAndCr) {
  const std::vector<geo::City> sites = geo::parse_sites_tsv(kGoodDump);
  ASSERT_EQ(sites.size(), 4u);
  EXPECT_EQ(sites[0].id, 0u);
  EXPECT_EQ(sites[0].name, "Springfield");
  EXPECT_EQ(sites[0].country, "US");
  EXPECT_EQ(sites[0].continent, geo::Continent::kNorthAmerica);
  EXPECT_DOUBLE_EQ(sites[0].location.lat_deg, 39.7817);
  EXPECT_DOUBLE_EQ(sites[0].location.lon_deg, -89.6501);
  EXPECT_DOUBLE_EQ(sites[0].population_k, 208.0);
  EXPECT_EQ(sites[1].name, "Shelbyville");  // trailing \r stripped
  EXPECT_DOUBLE_EQ(sites[1].population_k, 12.5);
  EXPECT_EQ(sites[3].id, 3u);
  EXPECT_EQ(sites[3].continent, geo::Continent::kEurope);
}

void expect_parse_error(const std::string& dump, const std::string& fragment) {
  try {
    (void)geo::parse_sites_tsv(dump);
    FAIL() << "expected a parse error containing '" << fragment << "'";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find(fragment), std::string::npos)
        << "actual message: " << error.what();
  }
}

TEST(ParseSitesTsv, ErrorsNameTheOneBasedLine) {
  // Line 1 is a comment, line 2 the first data row, line 3 the bad one.
  expect_parse_error("# header\nA\tUS\tNA\t1\t2\t3\nB\tUS\tXX\t1\t2\t3\n", "line 3");
}

TEST(ParseSitesTsv, RejectsMalformedRows) {
  expect_parse_error("A\tUS\tNA\t1\t2\n", "line 1");               // missing column
  expect_parse_error("A\tUS\tNA\t1\t2\t3\t4\n", "line 1");         // extra column
  expect_parse_error("A\tUS\tSA\t1\t2\t3\n", "continent");          // unknown tag
  expect_parse_error("A\tUS\tNA\t91\t2\t3\n", "latitude");          // out of range
  expect_parse_error("A\tUS\tNA\t1\t-181\t3\n", "longitude");       // out of range
  expect_parse_error("A\tUS\tNA\t1\t2\t-3\n", "population");        // negative
  expect_parse_error("A\tUSA\tNA\t1\t2\t3\n", "country");           // not alpha-2
  expect_parse_error("\tUS\tNA\t1\t2\t3\n", "name");                // empty name
  expect_parse_error("A\tUS\tNA\t1\t2\t3\nA\tUS\tNA\t4\t5\t6\n", "duplicate");
  expect_parse_error("A\tUS\tNA\tabc\t2\t3\n", "line 1");           // non-numeric
  // from_chars reads these; no range check may let them through.
  expect_parse_error("A\tUS\tNA\tnan\t2\t3\n", "latitude 'nan'");
  expect_parse_error("A\tUS\tNA\t-nan\t2\t3\n", "latitude '-nan'");
  expect_parse_error("A\tUS\tNA\t1\tnan\t3\n", "longitude 'nan'");
  expect_parse_error("A\tUS\tNA\t1\tinf\t3\n", "longitude 'inf'");
  expect_parse_error("A\tUS\tNA\t1\t2\tnan\n", "population 'nan'");
  expect_parse_error("A\tUS\tNA\t1\t2\t-nan\n", "population '-nan'");
  expect_parse_error("A\tUS\tNA\t1\t2\tinf\n", "population 'inf'");
  expect_parse_error("A\tUS\tNA\t1\t2\t3\nB\tUS\tNA\tnan\t2\t3\n", "line 2");
}

TEST(SiteCatalog, CompiledFindMatchesLinearScanAndMissesCleanly) {
  const geo::SiteCatalog catalog(geo::parse_sites_tsv(kGoodDump));
  ASSERT_EQ(catalog.size(), 4u);
  for (const geo::City& city : catalog.all()) {
    const auto found = catalog.find(city.name);
    ASSERT_TRUE(found.has_value()) << city.name;
    EXPECT_EQ(*found, city.id);
  }
  EXPECT_FALSE(catalog.find("Atlantis").has_value());
  EXPECT_THROW((void)catalog.by_id(99), std::out_of_range);
}

TEST(SiteCatalog, RequireListsNearMissCandidates) {
  const geo::SiteCatalog catalog(geo::parse_sites_tsv(kGoodDump));
  try {
    (void)catalog.require("springfeld");  // case + one edit away
    FAIL() << "expected out_of_range";
  } catch (const std::out_of_range& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("unknown city: springfeld"), std::string::npos) << message;
    EXPECT_NE(message.find("Springfield"), std::string::npos) << message;
  }
}

TEST(SiteCatalog, NearestOnEmptyCatalogIsNullopt) {
  const geo::SiteCatalog empty(geo::parse_sites_tsv("# no rows\n"));
  ASSERT_EQ(empty.size(), 0u);
  EXPECT_FALSE(empty.nearest({0.0, 0.0}).has_value());
}

TEST(SiteCatalog, NearestBreaksDistanceTiesByLowerId) {
  // Two sites on the same spot: every query is equidistant, and the lower
  // id wins wherever the query is.
  const geo::SiteCatalog catalog(geo::parse_sites_tsv(
      "Far\tUS\tNA\t10.0\t10.0\t1\n"
      "Twin A\tUS\tNA\t39.5\t-89.0\t1\n"
      "Twin B\tUS\tNA\t39.5\t-89.0\t1\n"));
  for (const geo::GeoPoint q : {geo::GeoPoint{39.5, -89.0}, geo::GeoPoint{45.0, -100.0},
                                geo::GeoPoint{-10.0, -120.0}}) {
    EXPECT_EQ(catalog.nearest(q), std::optional<geo::SiteId>(1u));
  }
}

TEST(SiteCatalog, ConstructorRejectsBrokenInvariants) {
  std::vector<geo::City> gap = geo::parse_sites_tsv(kGoodDump);
  gap[2].id = 7;  // ids must be dense in order
  EXPECT_THROW(geo::SiteCatalog{std::move(gap)}, std::invalid_argument);

  std::vector<geo::City> dupe = geo::parse_sites_tsv(kGoodDump);
  dupe[1].name = dupe[0].name;
  EXPECT_THROW(geo::SiteCatalog{std::move(dupe)}, std::invalid_argument);

  std::vector<geo::City> bad_lat = geo::parse_sites_tsv(kGoodDump);
  bad_lat[0].location.lat_deg = 123.0;
  EXPECT_THROW(geo::SiteCatalog{std::move(bad_lat)}, std::invalid_argument);

  // NaN fails every ordered comparison, so it needs its own check.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<geo::City> nan_lat = geo::parse_sites_tsv(kGoodDump);
  nan_lat[0].location.lat_deg = nan;
  EXPECT_THROW(geo::SiteCatalog{std::move(nan_lat)}, std::invalid_argument);
  std::vector<geo::City> nan_lon = geo::parse_sites_tsv(kGoodDump);
  nan_lon[1].location.lon_deg = nan;
  EXPECT_THROW(geo::SiteCatalog{std::move(nan_lon)}, std::invalid_argument);
  std::vector<geo::City> nan_population = geo::parse_sites_tsv(kGoodDump);
  nan_population[2].population_k = nan;
  EXPECT_THROW(geo::SiteCatalog{std::move(nan_population)}, std::invalid_argument);
  std::vector<geo::City> inf_population = geo::parse_sites_tsv(kGoodDump);
  inf_population[2].population_k = std::numeric_limits<double>::infinity();
  EXPECT_THROW(geo::SiteCatalog{std::move(inf_population)}, std::invalid_argument);
}

TEST(SiteCatalogCodec, RoundTripsBitExactly) {
  const geo::SiteCatalog catalog(geo::parse_sites_tsv(kGoodDump));
  const std::string payload = store::encode_site_catalog(catalog);
  const geo::SiteCatalog decoded = store::decode_site_catalog(payload);
  ASSERT_EQ(decoded.size(), catalog.size());
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    const geo::City& a = catalog.all()[i];
    const geo::City& b = decoded.all()[i];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.country, b.country);
    EXPECT_EQ(a.continent, b.continent);
    EXPECT_EQ(a.location.lat_deg, b.location.lat_deg);  // bit-exact, not NEAR
    EXPECT_EQ(a.location.lon_deg, b.location.lon_deg);
    EXPECT_EQ(a.population_k, b.population_k);
  }
  // Re-encoding the decoded catalog reproduces the payload byte for byte.
  EXPECT_EQ(store::encode_site_catalog(decoded), payload);
}

TEST(SiteCatalog, BuiltinMatchesRecordedDigest) {
  // Pins the builtin table's ids, order and every field: the paper benches'
  // geography.
  util::Fingerprint fp;
  fp.mix(std::string_view(store::encode_site_catalog(geo::builtin_sites())));
  EXPECT_EQ(fp.digest().hex(), "99f0a1c24e08d2b71b270ab7a8c59af2");
}

TEST(SiteCatalogCodec, BuiltinDatabaseRoundTrips) {
  const auto& builtin = geo::builtin_sites();
  const geo::SiteCatalog decoded =
      store::decode_site_catalog(store::encode_site_catalog(builtin));
  ASSERT_EQ(decoded.size(), builtin.size());
  EXPECT_EQ(decoded.all()[0].name, builtin.all()[0].name);
  EXPECT_EQ(decoded.all().back().name, builtin.all().back().name);
}

TEST(SiteCatalogCodec, RejectsGarbageAndTruncation) {
  EXPECT_THROW((void)store::decode_site_catalog("garbage"), std::runtime_error);
  const std::string payload =
      store::encode_site_catalog(geo::SiteCatalog(geo::parse_sites_tsv(kGoodDump)));
  EXPECT_THROW((void)store::decode_site_catalog(payload.substr(0, payload.size() - 3)),
               std::runtime_error);
  // Trailing bytes are schema drift, not slack.
  EXPECT_THROW((void)store::decode_site_catalog(payload + "x"), std::runtime_error);
}

TEST(SiteCatalogStore, BuildIsContentAddressedAcrossFormatting) {
  testutil::TempStoreDir scratch("carbonedge_sitecat");
  const store::ArtifactStore artifacts(scratch.dir);
  const std::string key = store::build_site_catalog(artifacts, kGoodDump);
  // Same sites, different formatting: extra comments and blank lines must
  // compile to the same key (the key hashes the canonical payload).
  const std::string reformatted = std::string("# other header\n\n\n") + kGoodDump + "\n# tail\n";
  EXPECT_EQ(store::build_site_catalog(artifacts, reformatted), key);

  const auto loaded = store::load_site_catalog(artifacts, key);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->size(), 4u);
  EXPECT_EQ(loaded->all()[0].name, "Springfield");
}

TEST(SiteCatalogStore, CorruptOrUndecodableEntriesAreMisses) {
  testutil::TempStoreDir scratch("carbonedge_sitecat");
  const store::ArtifactStore artifacts(scratch.dir);
  EXPECT_FALSE(store::load_site_catalog(artifacts, "no-such-key").has_value());

  // Flipped payload byte: the container checksum catches it.
  const std::string key = store::build_site_catalog(artifacts, kGoodDump);
  const auto path = artifacts.entry_path(store::ArtifactKind::kSiteCatalog, key);
  {
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(-1, std::ios::end);
    file.put('\x5a');
  }
  EXPECT_FALSE(store::load_site_catalog(artifacts, key).has_value());

  // Checksum-valid container whose payload is not a catalog: the codec
  // throws and the loader reports a miss instead of crashing.
  artifacts.save(store::ArtifactKind::kSiteCatalog, "bogus", "not a catalog payload");
  EXPECT_FALSE(store::load_site_catalog(artifacts, "bogus").has_value());
}

}  // namespace
}  // namespace carbonedge
