// The planet-scale acceptance check: a 1000-site synthetic catalog runs a
// banded-geography simulation whose encoded outcome is byte-identical
// from run to run, without ever materializing the n^2 latency matrix.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "carbon/service.hpp"
#include "carbon/synthesizer.hpp"
#include "core/placement_service.hpp"
#include "core/policy.hpp"
#include "core/problem.hpp"
#include "core/simulation.hpp"
#include "geo/catalog.hpp"
#include "geo/latency.hpp"
#include "geo/region.hpp"
#include "geo/site.hpp"
#include "sim/datacenter.hpp"
#include "sim/device.hpp"
#include "sim/workload.hpp"
#include "solver/assignment.hpp"
#include "solver_test_util.hpp"
#include "store/codecs.hpp"
#include "util/hash.hpp"
#include "util/random.hpp"

namespace carbonedge {
namespace {

// 1000 synthetic sites spread over both study continents. Deterministic
// (hash-derived coordinates), so every run builds the identical catalog.
geo::SiteCatalog synthetic_catalog(std::size_t n) {
  std::vector<geo::City> sites;
  sites.reserve(n);
  const char* const countries_na[] = {"US", "CA", "MX"};
  const char* const countries_eu[] = {"DE", "FR", "ES", "PL", "IT"};
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t stream = 0x5ca1ab1eULL + i;
    geo::City c;
    c.id = static_cast<geo::SiteId>(i);
    c.name = "synth-" + std::to_string(i);
    const bool europe = i % 2 == 1;
    c.continent = europe ? geo::Continent::kEurope : geo::Continent::kNorthAmerica;
    const double u1 = static_cast<double>(util::splitmix64(stream) >> 11) * 0x1.0p-53;
    const double u2 = static_cast<double>(util::splitmix64(stream) >> 11) * 0x1.0p-53;
    const double u3 = static_cast<double>(util::splitmix64(stream) >> 11) * 0x1.0p-53;
    if (europe) {
      c.country = countries_eu[i / 2 % 5];
      c.location.lat_deg = 36.0 + 24.0 * u1;   // Iberia to Scandinavia
      c.location.lon_deg = -10.0 + 35.0 * u2;  // Lisbon to Warsaw
    } else {
      c.country = countries_na[i / 2 % 3];
      c.location.lat_deg = 25.0 + 25.0 * u1;    // Miami to Vancouver
      c.location.lon_deg = -125.0 + 55.0 * u2;  // west to east coast
    }
    c.population_k = 50.0 + 4000.0 * u3;
    sites.push_back(std::move(c));
  }
  return geo::SiteCatalog(std::move(sites));
}

core::SimulationConfig scale_config() {
  core::SimulationConfig config;
  config.policy = core::PolicyConfig::carbon_edge();
  config.epochs = 4;
  config.workload.arrivals_per_site = 0.05;  // ~50 arrivals per epoch at n=1000
  config.workload.model_weights = {1.0, 1.0, 1.0, 0.0};
  config.workload.seed = 42;
  config.reoptimize_every = 2;
  return config;
}

// One full run; returns the encoded outcome so comparisons are over every
// byte of the result, not a summary.
std::string run_banded(const geo::SiteCatalog& catalog) {
  const geo::Region region = geo::catalog_region(catalog, "synthetic-1000");
  carbon::CarbonIntensityService service;
  carbon::SynthesizerParams params;
  params.hours = 24 * 7;  // a week of trace is plenty for 4 epochs
  service.add_region(region, params);

  core::EdgeSimulation simulation(
      sim::make_uniform_cluster(region, 1, sim::DeviceType::kA2), service,
      geo::LatencyModel{}, /*latency_band_one_way_ms=*/8.0);
  return store::encode_outcome(simulation.run(scale_config()));
}

TEST(CatalogScale, ThousandSiteBandedSweepIsLaneCountInvariant) {
  const geo::SiteCatalog catalog = synthetic_catalog(1000);
  ASSERT_EQ(catalog.size(), 1000u);

  // The geography stays sparse: the 8 ms band must keep the support far
  // below the 10^6 dense pairs (this is what makes n=1000 tractable).
  const geo::LatencyProvider banded(geo::LatencyModel{}, catalog.all(), 8.0);
  EXPECT_LT(banded.stored_entries(), 1000u * 1000u / 4u);

  // Two runs over fresh services and simulations give byte-identical encoded
  // outcomes: every counter, every telemetry sample, every histogram bucket
  // — not just the summary table.
  const std::string first = run_banded(catalog);
  const std::string second = run_banded(catalog);
  EXPECT_EQ(first, second);
  EXPECT_FALSE(first.empty());
}

// A batch of 500 apps (every second site's origin) against the 1000
// servers of a one-A2-per-site cluster, with latency cut at an 8 ms band.
// Two resources per pair (memory and compute).
core::BuiltProblem banded_batch_problem() {
  const geo::SiteCatalog catalog = synthetic_catalog(1000);
  const geo::Region region = geo::catalog_region(catalog, "synthetic-1000");
  carbon::CarbonIntensityService service;
  carbon::SynthesizerParams params;
  params.hours = 24;
  service.add_region(region, params);
  sim::EdgeCluster cluster = sim::make_uniform_cluster(region, 1, sim::DeviceType::kA2);
  const std::vector<geo::City> cities = cluster.cities();
  const geo::LatencyProvider banded(geo::LatencyModel{}, cities, 8.0);

  std::vector<sim::Application> apps;
  for (std::size_t site = 0; site < cluster.size(); site += 2) {
    sim::Application app;
    app.id = site;
    app.model = sim::ModelType::kResNet50;
    app.origin_site = site;
    app.rps = 5.0;
    apps.push_back(app);
  }
  const std::vector<double> intensity =
      core::site_mean_intensity(cluster, service, /*now=*/0, /*horizon=*/1);
  core::PlacementLayout layout(cluster, banded);
  core::PlacementInput input;
  input.layout = &layout;
  input.site_mean_intensity = &intensity;
  return core::build_problem(input, apps, core::PolicyConfig::carbon_edge());
}

TEST(CatalogScale, ThousandSiteBandedBatchStaysSparse) {
  // The placement problem inherits the band's sparsity: a batch of 500
  // apps against 1000 servers holds far fewer pairs than the dense grid.
  const core::BuiltProblem built = banded_batch_problem();
  const std::size_t cells = built.problem.num_apps() * built.problem.num_servers();
  EXPECT_EQ(cells, 500u * 1000u);
  EXPECT_GT(built.problem.num_pairs(), 0u);
  EXPECT_LT(built.problem.num_pairs(), cells / 4u);
}

// Digest of the banded batch's placement with every component forced
// through greedy + local search (exact_size_limit 0): each app's server in
// app order, then the bits of the total cost. The band chains the sites
// into one connected component, so a single greedy call places all 500
// apps over 1000 servers. The constant was printed by
// this test, built in Release with g++ 12 on x86-64, against the regret
// greedy that still rescanned every unplaced app's whole row in every round.
// Rescanning only the apps a commit can affect must not move a single pick.
TEST(CatalogScale, BandedHeuristicPlacementMatchesRecordedDigest) {
  const core::BuiltProblem built = banded_batch_problem();
  solver::AssignmentOptions options;
  options.exact_size_limit = 0;
  const solver::AssignmentSolution solution = testutil::solve_auto(built.problem, options);
  EXPECT_EQ(solution.stats.heuristic_shards, solution.stats.components);
  EXPECT_EQ(solution.unassigned_count, 0u);
  util::Fingerprint fp;
  for (const std::size_t server : testutil::servers_of(built.problem, solution)) {
    fp.mix(static_cast<std::uint64_t>(server));
  }
  fp.mix(std::bit_cast<std::uint64_t>(solution.total_cost));
  EXPECT_EQ(fp.digest().hex(), "39ab22d09c99f963c4947820cf809902");
}

TEST(CatalogScale, CatalogRegionHonorsMaxSitesByPopulation) {
  const geo::SiteCatalog catalog = synthetic_catalog(100);
  const geo::Region all = geo::catalog_region(catalog, "all");
  EXPECT_EQ(all.cities.size(), 100u);
  const geo::Region top = geo::catalog_region(catalog, "top", 10);
  ASSERT_EQ(top.cities.size(), 10u);
  // Every selected site out-populates every rejected one (stable sort by
  // descending population, SiteId tie-break).
  double min_selected = 1e18;
  for (const geo::SiteId id : top.cities) {
    min_selected = std::min(min_selected, catalog.by_id(id).population_k);
  }
  std::size_t better = 0;
  for (const geo::City& city : catalog.all()) {
    if (city.population_k > min_selected) ++better;
  }
  EXPECT_LE(better, 10u);
}

}  // namespace
}  // namespace carbonedge
