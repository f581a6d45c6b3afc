// SiteCatalog: the read-only geography every layer above geo consumes.
//
// Regions, demand synthesis, latency providers, and the CLI all take a
// `const SiteCatalog&`. One class holds every site set: builtin_sites() is
// the paper-exact builtin table (234 US/Canadian and European cities,
// geo/city.cpp), and a compiled catalog is one ingested from a
// GeoNames-style dump (catalog_io.hpp) or decoded from a CEAF blob in the
// artifact store (store/site_catalog.hpp).
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "geo/coord.hpp"
#include "geo/site.hpp"

namespace carbonedge::geo {

/// Read-only, id-dense site set (`all()[id].id == id` for every id in
/// [0, size())). Owns its rows and keeps a name-sorted index, so find() is a
/// binary search.
class SiteCatalog {
 public:
  SiteCatalog() = default;
  /// Takes ownership of a site list. Throws std::invalid_argument when ids
  /// are not dense in-order, a name is empty or duplicated, a coordinate is
  /// outside WGS-84 range, or a population is negative.
  explicit SiteCatalog(std::vector<City> sites);

  /// Every site, ordered by SiteId.
  [[nodiscard]] std::span<const City> all() const noexcept { return sites_; }
  [[nodiscard]] std::size_t size() const noexcept { return sites_.size(); }

  /// Exact-name lookup (names are unique).
  [[nodiscard]] std::optional<SiteId> find(std::string_view name) const noexcept;

  /// Throws std::out_of_range when `id >= size()`.
  [[nodiscard]] const City& by_id(SiteId id) const;

  /// Lookup that throws std::out_of_range on miss, listing near-miss
  /// candidates (case mismatches, small typos) — regional builders resolve
  /// names exactly once, so a typo fails loudly and helpfully.
  [[nodiscard]] const City& require(std::string_view name) const;

  /// All sites on a continent, ordered by descending population.
  [[nodiscard]] std::vector<SiteId> by_continent(Continent continent) const;

  /// Nearest site to a point by haversine_km, the lower id on a tie; nullopt
  /// only when the catalog is empty. A linear scan: no placement path asks
  /// this, and SpatialIndex serves only radius queries.
  [[nodiscard]] std::optional<SiteId> nearest(const GeoPoint& point) const;

 private:
  std::vector<City> sites_;
  std::vector<SiteId> by_name_;  // ids ordered by site name
};

/// The builtin city table: stand-in for the WonderNetwork city list and the
/// Akamai CDN site list (both proprietary). Every city the paper names
/// (Figures 1-4, Table 1, Section 6.3.3) is present, so the regional
/// experiments run on the paper's own geography. Built once, through the
/// validating constructor.
[[nodiscard]] const SiteCatalog& builtin_sites();

// The former name of SiteCatalog, still spelled by the benchmark ledger
// (bench/ledger); it goes when the ledger switches to SiteCatalog.
using CompiledSiteCatalog = SiteCatalog;

}  // namespace carbonedge::geo
