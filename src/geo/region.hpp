// Mesoscale regions and CDN deployments.
//
// The paper studies four hand-picked mesoscale regions (Figure 2) of five
// carbon zones each, a four-zone macro comparison (Figure 1), and a
// continental CDN deployment derived from Akamai edge locations. This module
// reconstructs all of them from a SiteCatalog (the builtin city database by
// default); the CDN set stands in for the Akamai locations, chosen by metro
// population (see cdn_region below). catalog_region() additionally turns any
// compiled catalog into an experiment geography, which is how sweeps reach
// the 1000+-site regime.
//
// Name resolution happens exactly once, at region construction: a Region
// carries stable SiteIds plus the catalog that issued them, and everything
// downstream (clusters, latency providers, fingerprints) works on ids.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "geo/catalog.hpp"
#include "geo/city.hpp"
#include "geo/coord.hpp"
#include "geo/site.hpp"

namespace carbonedge::geo {

/// An ordered set of sites forming one experiment geography. `catalog` is
/// the catalog the SiteIds refer to; null means the builtin city database.
/// The catalog must outlive the region (builders wire the builtin singleton
/// or a caller-owned compiled catalog).
struct Region {
  std::string name;
  std::vector<SiteId> cities;
  const SiteCatalog* catalog = nullptr;

  /// The catalog `cities` resolve against.
  [[nodiscard]] const SiteCatalog& site_catalog() const noexcept;
  [[nodiscard]] std::vector<City> resolve() const;
  [[nodiscard]] BoundingBox bounds() const;
};

/// Figure 2a: Florida — Jacksonville, Miami, Tampa, Orlando, Tallahassee.
[[nodiscard]] Region florida_region(
    const SiteCatalog& catalog = CityDatabase::builtin());

/// Figure 2b: West US — Las Vegas, Kingman, San Diego, Phoenix, Flagstaff.
[[nodiscard]] Region west_us_region(
    const SiteCatalog& catalog = CityDatabase::builtin());

/// Figure 2c: Italy — Milan, Rome, Cagliari, Palermo, Arezzo.
[[nodiscard]] Region italy_region(
    const SiteCatalog& catalog = CityDatabase::builtin());

/// Figure 2d: Central Europe — Bern, Munich, Lyon, Graz, Milan.
[[nodiscard]] Region central_eu_region(
    const SiteCatalog& catalog = CityDatabase::builtin());

/// Figure 1: macro zones — Toronto (Ontario), Los Angeles (California),
/// New York, Warsaw (Poland).
[[nodiscard]] Region macro_region(
    const SiteCatalog& catalog = CityDatabase::builtin());

/// All four mesoscale regions in Figure 2 order.
[[nodiscard]] std::vector<Region> mesoscale_regions(
    const SiteCatalog& catalog = CityDatabase::builtin());

/// A continental CDN deployment: up to `max_sites` cities on `continent`,
/// chosen by descending metro population (mirrors how CDN operators place
/// PoPs; the paper merges multiple DCs per city, so one site per city).
/// `max_sites == 0` means "all available cities".
[[nodiscard]] Region cdn_region(
    Continent continent, std::size_t max_sites = 0,
    const SiteCatalog& catalog = CityDatabase::builtin());

/// The whole catalog as one region — or, with `max_sites != 0`, its
/// `max_sites` most populous sites (population descending, SiteId
/// tie-break). This is the entry point for compiled-catalog sweeps.
[[nodiscard]] Region catalog_region(const SiteCatalog& catalog,
                                    std::string name,
                                    std::size_t max_sites = 0);

}  // namespace carbonedge::geo
