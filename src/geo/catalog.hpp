// SiteCatalog: the read-only geography interface consumed by every layer
// above geo.
//
// Regions, demand synthesis, latency providers, and the CLI all take a
// `const SiteCatalog&` instead of reaching for the builtin city singleton.
// Two implementations exist: CityDatabase (city.hpp) wraps the paper-exact
// builtin set, and CompiledSiteCatalog holds a catalog ingested from a
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

/// Read-only, id-dense site set with name lookup. Implementations guarantee
/// `all()[id].id == id` for every id in [0, size()); the non-virtual helpers
/// rely on that contract.
class SiteCatalog {
 public:
  virtual ~SiteCatalog() = default;

  /// Every site, ordered by SiteId.
  [[nodiscard]] virtual std::span<const City> all() const noexcept = 0;

  /// Exact-name lookup. The default scans linearly; indexed implementations
  /// override it. Must agree with a linear scan (names are unique).
  [[nodiscard]] virtual std::optional<SiteId> find(
      std::string_view name) const noexcept;

  [[nodiscard]] std::size_t size() const noexcept { return all().size(); }

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

 protected:
  SiteCatalog() = default;
  SiteCatalog(const SiteCatalog&) = default;
  SiteCatalog& operator=(const SiteCatalog&) = default;
};

/// A catalog materialized from an ingested dump: owns its rows and keeps a
/// name-sorted index so find() is a binary search.
class CompiledSiteCatalog final : public SiteCatalog {
 public:
  CompiledSiteCatalog() = default;
  /// Takes ownership of a site list. Throws std::invalid_argument when ids
  /// are not dense in-order, a name is empty or duplicated, or a coordinate
  /// is outside WGS-84 range.
  explicit CompiledSiteCatalog(std::vector<City> sites);

  [[nodiscard]] std::span<const City> all() const noexcept override {
    return sites_;
  }
  [[nodiscard]] std::optional<SiteId> find(
      std::string_view name) const noexcept override;

 private:
  std::vector<City> sites_;
  std::vector<SiteId> by_name_;  // ids ordered by site name
};

}  // namespace carbonedge::geo
