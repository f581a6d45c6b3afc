#include "geo/latency.hpp"

#include <numeric>
#include <stdexcept>

#include "geo/coord.hpp"
#include "geo/spatial_index.hpp"
#include "util/random.hpp"

namespace carbonedge::geo {
namespace {

// Symmetric hash of a city pair: order-independent so L(a,b) == L(b,a).
std::uint64_t pair_hash(const City& a, const City& b, std::uint64_t seed) noexcept {
  const std::uint64_t ha = util::fnv1a(a.name);
  const std::uint64_t hb = util::fnv1a(b.name);
  const std::uint64_t lo = ha < hb ? ha : hb;
  const std::uint64_t hi = ha < hb ? hb : ha;
  return util::mix64(lo ^ util::mix64(hi ^ seed));
}

double unit_from_hash(std::uint64_t h) noexcept {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

double LatencyModel::one_way_ms(const City& a, const City& b) const noexcept {
  if (a.id == b.id) return 0.0;
  const double km = haversine_km(a.location, b.location);
  double inflation =
      params_.inflation_min +
      params_.inflation_span * unit_from_hash(pair_hash(a, b, params_.seed));
  if (a.country != b.country) inflation += params_.cross_border_penalty;
  return params_.base_ms + km / params_.fiber_km_per_ms * inflation;
}

LatencyProvider::LatencyProvider(const LatencyModel& model, std::span<const City> cities) {
  const std::size_t count = cities.size();
  row_start_.resize(count + 1);
  sites_.resize(count * count);
  values_.assign(count * count, 0.0);
  for (std::size_t i = 0; i <= count; ++i) row_start_[i] = i * count;
  for (std::size_t i = 0; i < count; ++i) {
    std::iota(sites_.begin() + static_cast<std::ptrdiff_t>(i * count),
              sites_.begin() + static_cast<std::ptrdiff_t>((i + 1) * count), std::uint32_t{0});
    for (std::size_t j = i + 1; j < count; ++j) {
      const double ms = model.one_way_ms(cities[i], cities[j]);
      values_[i * count + j] = ms;
      values_[j * count + i] = ms;
    }
  }
}

LatencyProvider::LatencyProvider(const LatencyModel& model, std::span<const City> cities,
                                 double band_one_way_ms)
    : band_ms_(band_one_way_ms) {
  const LatencyModelParams& p = model.params();
  if (band_ms_ <= p.base_ms) {
    throw std::invalid_argument("banded latency: band must exceed the base one-way latency");
  }
  // Conservative model inversion: no in-band pair can be farther than this.
  const double radius_km = (band_ms_ - p.base_ms) * p.fiber_km_per_ms / p.inflation_min;

  const SpatialIndex index(cities);
  row_start_.assign(cities.size() + 1, 0);
  for (std::size_t i = 0; i < cities.size(); ++i) {
    // Candidates ascending; the exact model decides membership, so the band
    // is symmetric and bit-identical to the full rows on its support.
    for (const std::uint32_t j : index.within_radius(cities[i].location, radius_km)) {
      const double ms =
          i == static_cast<std::size_t>(j) ? 0.0 : model.one_way_ms(cities[i], cities[j]);
      if (ms <= band_ms_) {
        sites_.push_back(j);
        values_.push_back(ms);
      }
    }
    row_start_[i + 1] = sites_.size();
  }
}

}  // namespace carbonedge::geo
