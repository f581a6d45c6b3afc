// Carbon zones: the geographic unit for which grid carbon intensity is
// known (Section 3.1 of the paper; Electricity Maps zones).
//
// Each zone is described by its installed-capacity generation mix. The
// catalog below substitutes for the proprietary Electricity Maps dataset:
// the zones the paper names (Figures 1-4) carry hand-calibrated mixes that
// reproduce the paper's reported contrasts (Central-EU ~10.8x yearly spread,
// West-US ~2.7x, Poland coal-heavy, Ontario nuclear/hydro, ...); every other
// city falls back to a per-country archetype with deterministic per-city
// variation.
#pragma once

#include <string>
#include <vector>

#include "carbon/mix.hpp"
#include "geo/site.hpp"

namespace carbonedge::carbon {

/// Static description of one carbon zone.
struct ZoneSpec {
  std::string name;            // zone name == city name (one zone per site)
  geo::SiteId city = 0;        // anchor city
  double latitude_deg = 0.0;   // drives solar day-length seasonality
  GenerationMix capacity;      // installed-capacity shares, normalized
  double demand_peak = 0.82;   // peak demand as fraction of total capacity
  double demand_base = 0.52;   // overnight trough as fraction of capacity
};

/// Zone catalog: maps cities to zone specifications.
class ZoneCatalog {
 public:
  /// Catalog with the built-in calibrated dataset.
  [[nodiscard]] static const ZoneCatalog& builtin();

  /// Zone spec for a city (calibrated override, else country archetype with
  /// deterministic per-city variation).
  [[nodiscard]] ZoneSpec spec_for(const geo::City& city) const;

  /// Specs for every city of a region, in region order.
  [[nodiscard]] std::vector<ZoneSpec> specs_for(const std::vector<geo::City>& cities) const;

  /// True if `city` has a hand-calibrated (paper-named) mix.
  [[nodiscard]] bool has_override(const geo::City& city) const noexcept;

 private:
  ZoneCatalog() = default;
};

}  // namespace carbonedge::carbon
