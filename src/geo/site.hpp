// Site identity: the row type of a SiteCatalog (geo/catalog.hpp).
#pragma once

#include <cstdint>
#include <string>

#include "geo/coord.hpp"

namespace carbonedge::geo {

/// Identifier of a site within one catalog: ids are dense 0..size-1 and
/// stable across runs for a given catalog (builtin table order, or dump row
/// order for compiled catalogs). A SiteId is only meaningful relative to the
/// catalog that issued it.
using SiteId = std::uint32_t;

struct City {
  SiteId id = 0;
  std::string name;
  std::string country;  // ISO-3166 alpha-2
  Continent continent = Continent::kNorthAmerica;
  GeoPoint location;
  double population_k = 0.0;  // metro population, thousands
};

}  // namespace carbonedge::geo
