// Deterministic radius index over a site set: "every site within r km of a
// point" without the O(n) scan per lookup. LatencyProvider's banded rows
// are its one production client.
//
// Structure: fixed-size lat/lon grid buckets (4-degree cells, longitude
// wrapping at the antimeridian). A query visits the cells of the disc's
// conservative lat/lon bounding box, widened to every column when the disc
// reaches a pole.
//
// Determinism contract: the grid only ever *narrows candidates*; membership
// is decided by the exact haversine_km predicate over a provable superset
// of the disc, so results are bit-identical to the brute-force scan — the
// oracle tests assert exactly that. Nearest-site lookups are
// SiteCatalog::nearest's linear scan.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "geo/coord.hpp"
#include "geo/site.hpp"

namespace carbonedge::geo {

class SiteCatalog;

class SpatialIndex {
 public:
  /// Indexes `sites` (non-owning: the span must outlive the index). Query
  /// results are indices into this span; when the span is a catalog's
  /// all(), an index IS the SiteId.
  explicit SpatialIndex(std::span<const City> sites);
  explicit SpatialIndex(const SiteCatalog& catalog);

  /// Indices of all sites with haversine_km(point, site) <= radius_km,
  /// ascending.
  [[nodiscard]] std::vector<std::uint32_t> within_radius(
      const GeoPoint& point, double radius_km) const;

 private:
  std::span<const City> sites_;

  // Grid: CSR buckets, row-major (rows x cols), member indices ascending.
  std::vector<std::size_t> cell_start_;
  std::vector<std::uint32_t> cell_members_;
};

}  // namespace carbonedge::geo
