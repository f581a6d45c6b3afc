// Network latency: the model and the site-indexed provider built from it.
//
// LatencyModel substitutes for the WonderNetwork ping matrix: one-way
// latency between two cities is modeled as
//
//   one_way_ms = base + distance_km / fiber_km_per_ms * inflation(pair)
//
// where `inflation` captures fiber routing indirectness. It is drawn
// deterministically per (unordered) city pair from a hash of the city names,
// plus a penalty when the pair crosses a country border (inter-AS routing
// detours). Calibrated against Table 1 of the paper: Florida pairs land in
// 1.9-7.2 ms one-way, Central-EU pairs in 4-16 ms.
//
// LatencyProvider has one layout: per-site rows of (neighbor site, one-way
// ms), ascending by site. Full rows are the dense matrix (every pair, O(1)
// lookups); a band keeps only in-band neighbors, which is what lets
// 1000+-site geographies skip the n^2 pair table.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "geo/site.hpp"

namespace carbonedge::geo {

struct LatencyModelParams {
  double base_ms = 0.4;              // per-link fixed overhead (switching, last hop)
  double fiber_km_per_ms = 204.0;    // speed of light in fiber, one-way
  double inflation_min = 1.3;        // best-case routing indirectness
  double inflation_span = 1.7;       // hash-distributed extra indirectness
  double cross_border_penalty = 0.8; // added inflation across country borders
  std::uint64_t seed = 0x1eaf5eedULL;
};

/// Deterministic city-to-city latency oracle.
class LatencyModel {
 public:
  explicit LatencyModel(LatencyModelParams params = {}) : params_(params) {}

  /// One-way latency in milliseconds between two cities. Symmetric.
  [[nodiscard]] double one_way_ms(const City& a, const City& b) const noexcept;

  /// Round-trip latency (2x one-way).
  [[nodiscard]] double rtt_ms(const City& a, const City& b) const noexcept {
    return 2.0 * one_way_ms(a, b);
  }

  [[nodiscard]] const LatencyModelParams& params() const noexcept { return params_; }

 private:
  LatencyModelParams params_;
};

/// Site-indexed latency oracle: what placement and the simulation engine
/// consume (L_ij in Table 2).
///
/// One layout: per-site rows of (neighbor site, one-way ms), ascending by
/// site. A dense geography is a provider whose rows are full (every site
/// listed); a banded geography keeps only the pairs whose modeled one-way
/// latency is within the band, so memory and the feasibility loops scale
/// with the neighborhood instead of n^2 on 1000+-site catalogs. Pairs
/// outside a row report +infinity one-way, which the RTT feasibility
/// filters treat as "never feasible".
class LatencyProvider {
 public:
  LatencyProvider() = default;
  /// Every pair of `cities`: the upper triangle is computed once and
  /// mirrored, so L(i,j) == L(j,i) bit for bit.
  LatencyProvider(const LatencyModel& model, std::span<const City> cities);
  /// Only pairs within `band_one_way_ms` (diagonal always present).
  /// Candidates come from a SpatialIndex radius query with the conservative
  /// inversion of the model (one_way = base + km/fiber * inflation with
  /// inflation >= inflation_min, so an in-band pair has km <= (band - base)
  /// * fiber / inflation_min); each is then scored with the exact model, so
  /// stored values are bit-identical to the full rows. Throws
  /// std::invalid_argument when the band cannot even hold the zero-distance
  /// base latency.
  LatencyProvider(const LatencyModel& model, std::span<const City> cities,
                  double band_one_way_ms);

  /// Number of sites the provider covers (indices are [0, size())).
  [[nodiscard]] std::size_t size() const noexcept {
    return row_start_.empty() ? 0 : row_start_.size() - 1;
  }

  /// One-way latency in ms between site indices; +infinity when j is not in
  /// row i. A full row is indexed directly (O(1) on dense geographies);
  /// otherwise the row is binary-searched.
  [[nodiscard]] double one_way_ms(std::size_t i, std::size_t j) const noexcept {
    const std::size_t first = row_start_[i];
    const std::size_t last = row_start_[i + 1];
    if (last - first == size()) return values_[first + j];
    const auto row_begin = sites_.begin() + static_cast<std::ptrdiff_t>(first);
    const auto row_end = sites_.begin() + static_cast<std::ptrdiff_t>(last);
    const auto it = std::lower_bound(row_begin, row_end, static_cast<std::uint32_t>(j));
    if (it == row_end || *it != static_cast<std::uint32_t>(j)) {
      return std::numeric_limits<double>::infinity();
    }
    return values_[static_cast<std::size_t>(it - sites_.begin())];
  }

  /// Round-trip latency (2x one-way).
  [[nodiscard]] double rtt_ms(std::size_t i, std::size_t j) const noexcept {
    return 2.0 * one_way_ms(i, j);
  }

  /// The sites of row i, ascending: every site with finite latency from i
  /// (0..size()-1 for a full row). A prefilter only — entries may still be
  /// infeasible for a given RTT limit.
  [[nodiscard]] std::span<const std::uint32_t> neighbors(std::size_t i) const noexcept {
    return std::span<const std::uint32_t>(sites_).subspan(row_start_[i],
                                                          row_start_[i + 1] - row_start_[i]);
  }

  /// Row i's one-way latencies in ms, parallel to neighbors(i):
  /// row_ms(i)[k] is one_way_ms(i, neighbors(i)[k]). Walking the two spans
  /// together visits a row without a search per neighbor.
  [[nodiscard]] std::span<const double> row_ms(std::size_t i) const noexcept {
    return std::span<const double>(values_).subspan(row_start_[i],
                                                    row_start_[i + 1] - row_start_[i]);
  }

  /// The band the rows were cut at; +infinity when every pair is stored.
  [[nodiscard]] double band_one_way_ms() const noexcept { return band_ms_; }
  /// Stored (directed) entries, diagonal included — the measure of how far
  /// below n^2 a band stays.
  [[nodiscard]] std::size_t stored_entries() const noexcept { return sites_.size(); }

 private:
  double band_ms_ = std::numeric_limits<double>::infinity();
  std::vector<std::size_t> row_start_;
  std::vector<std::uint32_t> sites_;  // ascending within each row
  std::vector<double> values_;
};

}  // namespace carbonedge::geo
