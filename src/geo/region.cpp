#include "geo/region.hpp"

#include <algorithm>
#include <initializer_list>
#include <utility>

namespace carbonedge::geo {
namespace {

/// Regions built on the builtin set carry a null catalog pointer: they stay
/// plain values (safe to serialize/compare) and resolve via builtin_sites().
const SiteCatalog* catalog_handle(const SiteCatalog& catalog) noexcept {
  return &catalog == &builtin_sites() ? nullptr : &catalog;
}

Region make_region(const SiteCatalog& db, std::string name,
                   std::initializer_list<const char*> names) {
  Region region;
  region.name = std::move(name);
  region.catalog = catalog_handle(db);
  region.cities.reserve(names.size());
  for (const char* city_name : names) region.cities.push_back(db.require(city_name).id);
  return region;
}

}  // namespace

const SiteCatalog& Region::site_catalog() const noexcept {
  return catalog != nullptr ? *catalog : builtin_sites();
}

std::vector<City> Region::resolve() const {
  const SiteCatalog& db = site_catalog();
  std::vector<City> out;
  out.reserve(cities.size());
  for (const SiteId id : cities) out.push_back(db.by_id(id));
  return out;
}

BoundingBox Region::bounds() const {
  std::vector<GeoPoint> points;
  points.reserve(cities.size());
  for (const City& c : resolve()) points.push_back(c.location);
  return bounding_box(points);
}

Region florida_region(const SiteCatalog& catalog) {
  return make_region(catalog, "Florida",
                     {"Jacksonville", "Miami", "Tampa", "Orlando", "Tallahassee"});
}

Region west_us_region(const SiteCatalog& catalog) {
  return make_region(catalog, "West US",
                     {"Las Vegas", "Kingman", "San Diego", "Phoenix", "Flagstaff"});
}

Region italy_region(const SiteCatalog& catalog) {
  return make_region(catalog, "Italy",
                     {"Milan", "Rome", "Cagliari", "Palermo", "Arezzo"});
}

Region central_eu_region(const SiteCatalog& catalog) {
  return make_region(catalog, "Central EU",
                     {"Bern", "Munich", "Lyon", "Graz", "Milan"});
}

Region macro_region(const SiteCatalog& catalog) {
  return make_region(catalog, "Macro",
                     {"Toronto", "Los Angeles", "New York", "Warsaw"});
}

std::vector<Region> mesoscale_regions(const SiteCatalog& catalog) {
  return {florida_region(catalog), west_us_region(catalog),
          italy_region(catalog), central_eu_region(catalog)};
}

Region cdn_region(Continent continent, std::size_t max_sites,
                  const SiteCatalog& catalog) {
  Region region;
  region.name = continent == Continent::kNorthAmerica ? "CDN US" : "CDN Europe";
  region.catalog = catalog_handle(catalog);
  std::vector<SiteId> ids = catalog.by_continent(continent);
  if (continent == Continent::kNorthAmerica) {
    // The paper's CDN analysis covers US sites; drop Canadian metros, which
    // only participate in the Figure 1 macro comparison.
    std::erase_if(ids, [&](SiteId id) { return catalog.by_id(id).country != "US"; });
  }
  if (max_sites != 0 && ids.size() > max_sites) ids.resize(max_sites);
  region.cities = std::move(ids);
  return region;
}

Region catalog_region(const SiteCatalog& catalog, std::string name,
                      std::size_t max_sites) {
  Region region;
  region.name = std::move(name);
  region.catalog = catalog_handle(catalog);
  const std::span<const City> sites = catalog.all();
  region.cities.resize(sites.size());
  for (std::size_t i = 0; i < sites.size(); ++i) {
    region.cities[i] = static_cast<SiteId>(i);
  }
  if (max_sites != 0 && region.cities.size() > max_sites) {
    std::stable_sort(region.cities.begin(), region.cities.end(),
                     [sites](SiteId a, SiteId b) {
                       return sites[a].population_k > sites[b].population_k;
                     });
    region.cities.resize(max_sites);
  }
  return region;
}

}  // namespace carbonedge::geo
