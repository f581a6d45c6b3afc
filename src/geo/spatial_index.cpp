#include "geo/spatial_index.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "geo/catalog.hpp"
#include "geo/coord.hpp"
#include "geo/site.hpp"

namespace carbonedge::geo {
namespace {

constexpr double kEarthRadiusKm = 6371.0088;
constexpr double kCellDeg = 4.0;  // grid cell edge, degrees
constexpr auto kRows = static_cast<std::size_t>(180.0 / kCellDeg);
constexpr auto kCols = static_cast<std::size_t>(360.0 / kCellDeg);

constexpr double radians(double degrees) noexcept {
  return degrees * std::numbers::pi / 180.0;
}

constexpr double degrees(double rad) noexcept {
  return rad * 180.0 / std::numbers::pi;
}

/// Normalizes a longitude to [-180, 180).
double norm_lon(double lon_deg) noexcept {
  return lon_deg - 360.0 * std::floor((lon_deg + 180.0) / 360.0);
}

std::size_t row_of(double lat_deg) noexcept {
  const double lat = std::clamp(lat_deg, -90.0, 90.0);
  const auto row =
      static_cast<std::ptrdiff_t>(std::floor((lat + 90.0) / kCellDeg));
  return static_cast<std::size_t>(
      std::clamp<std::ptrdiff_t>(row, 0, static_cast<std::ptrdiff_t>(kRows) - 1));
}

std::size_t col_of(double lon_deg) noexcept {
  const double lon = norm_lon(lon_deg);
  const auto col =
      static_cast<std::ptrdiff_t>(std::floor((lon + 180.0) / kCellDeg));
  return static_cast<std::size_t>(
      std::clamp<std::ptrdiff_t>(col, 0, static_cast<std::ptrdiff_t>(kCols) - 1));
}

}  // namespace

SpatialIndex::SpatialIndex(const SiteCatalog& catalog)
    : SpatialIndex(catalog.all()) {}

SpatialIndex::SpatialIndex(std::span<const City> sites) : sites_(sites) {
  // Grid buckets: counting sort keeps per-cell member lists ascending.
  cell_start_.assign(kRows * kCols + 1, 0);
  for (const City& c : sites_) {
    const std::size_t cell =
        row_of(c.location.lat_deg) * kCols + col_of(c.location.lon_deg);
    ++cell_start_[cell + 1];
  }
  for (std::size_t cell = 0; cell < kRows * kCols; ++cell) {
    cell_start_[cell + 1] += cell_start_[cell];
  }
  cell_members_.resize(sites_.size());
  std::vector<std::size_t> cursor(cell_start_.begin(), cell_start_.end() - 1);
  for (std::size_t i = 0; i < sites_.size(); ++i) {
    const std::size_t cell = row_of(sites_[i].location.lat_deg) * kCols +
                             col_of(sites_[i].location.lon_deg);
    cell_members_[cursor[cell]++] = static_cast<std::uint32_t>(i);
  }
}

std::vector<std::uint32_t> SpatialIndex::within_radius(
    const GeoPoint& point, double radius_km) const {
  std::vector<std::uint32_t> result;
  if (sites_.empty() || radius_km < 0.0) return result;

  // Candidate cell box; margins only widen it — membership is decided by the
  // exact haversine predicate below, so the result is oracle-identical.
  const double radius_ang = radius_km / kEarthRadiusKm;
  const double dr_deg = degrees(radius_ang) * (1.0 + 1e-12) + 1e-9;
  const double lat_lo = point.lat_deg - dr_deg;
  const double lat_hi = point.lat_deg + dr_deg;
  const std::size_t r_lo = row_of(lat_lo);
  const std::size_t r_hi = row_of(lat_hi);

  bool all_cols = lat_lo <= -90.0 || lat_hi >= 90.0;
  std::size_t c_first = 0;
  std::size_t n_cols = kCols;
  if (!all_cols) {
    // Max longitude deviation of a spherical disc: sin(dlon) = sin(r)/cos(lat).
    const double cos_lat = std::cos(radians(point.lat_deg));
    const double s = std::sin(radius_ang) / cos_lat;
    if (radius_ang + radians(std::abs(point.lat_deg)) >=
            std::numbers::pi / 2.0 ||
        s >= 1.0) {
      all_cols = true;
    } else {
      const double dlon_deg = degrees(std::asin(s)) * (1.0 + 1e-12) + 1e-9;
      const std::size_t c_lo = col_of(point.lon_deg - dlon_deg);
      const std::size_t c_hi = col_of(point.lon_deg + dlon_deg);
      c_first = c_lo;
      n_cols = c_hi >= c_lo ? c_hi - c_lo + 1 : kCols - c_lo + c_hi + 1;
      if (n_cols >= kCols) all_cols = true;
    }
  }
  if (all_cols) {
    c_first = 0;
    n_cols = kCols;
  }

  for (std::size_t r = r_lo; r <= r_hi; ++r) {
    for (std::size_t k = 0; k < n_cols; ++k) {
      const std::size_t c = (c_first + k) % kCols;
      const std::size_t cell = r * kCols + c;
      for (std::size_t m = cell_start_[cell]; m < cell_start_[cell + 1]; ++m) {
        const std::uint32_t i = cell_members_[m];
        if (haversine_km(point, sites_[i].location) <= radius_km) {
          result.push_back(i);
        }
      }
    }
  }
  std::sort(result.begin(), result.end());
  return result;
}

}  // namespace carbonedge::geo
