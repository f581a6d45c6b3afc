#include "geo/catalog.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

namespace carbonedge::geo {
namespace {

char lower(char c) noexcept {
  return static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
}

bool iequal(std::string_view a, std::string_view b) noexcept {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (lower(a[i]) != lower(b[i])) return false;
  }
  return true;
}

// Case-insensitive Levenshtein distance, capped: returns cap+1 as soon as the
// distance provably exceeds `cap` (keeps require()'s miss path O(n·|name|)).
std::size_t edit_distance_capped(std::string_view a, std::string_view b,
                                 std::size_t cap) {
  const std::size_t la = a.size();
  const std::size_t lb = b.size();
  const std::size_t diff = la > lb ? la - lb : lb - la;
  if (diff > cap) return cap + 1;
  std::vector<std::size_t> prev(lb + 1);
  std::vector<std::size_t> cur(lb + 1);
  for (std::size_t j = 0; j <= lb; ++j) prev[j] = j;
  for (std::size_t i = 1; i <= la; ++i) {
    cur[0] = i;
    std::size_t row_min = cur[0];
    for (std::size_t j = 1; j <= lb; ++j) {
      const std::size_t sub = lower(a[i - 1]) == lower(b[j - 1]) ? 0 : 1;
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + sub});
      row_min = std::min(row_min, cur[j]);
    }
    if (row_min > cap) return cap + 1;
    std::swap(prev, cur);
  }
  return prev[lb];
}

}  // namespace

const City& SiteCatalog::by_id(SiteId id) const {
  if (id >= sites_.size()) throw std::out_of_range("city id out of range");
  return sites_[id];
}

const City& SiteCatalog::require(std::string_view name) const {
  if (const auto id = find(name)) return by_id(*id);
  // Rank candidates: exact-but-for-case first, then small typos.
  constexpr std::size_t kMaxTypoDistance = 2;
  std::vector<std::pair<std::size_t, SiteId>> near;
  for (const City& c : sites_) {
    std::size_t distance;
    if (iequal(c.name, name)) {
      distance = 0;
    } else {
      distance = edit_distance_capped(c.name, name, kMaxTypoDistance);
      if (distance > kMaxTypoDistance) continue;
    }
    near.emplace_back(distance, c.id);
  }
  std::sort(near.begin(), near.end());
  std::string message = "unknown city: " + std::string(name);
  if (!near.empty()) {
    message += " (did you mean";
    const std::size_t shown = std::min<std::size_t>(near.size(), 3);
    for (std::size_t i = 0; i < shown; ++i) {
      message += i == 0 ? " " : ", ";
      message += by_id(near[i].second).name;
    }
    message += "?)";
  }
  throw std::out_of_range(message);
}

std::vector<SiteId> SiteCatalog::by_continent(Continent continent) const {
  std::vector<SiteId> ids;
  for (const City& c : sites_) {
    if (c.continent == continent) ids.push_back(c.id);
  }
  std::sort(ids.begin(), ids.end(), [this](SiteId a, SiteId b) {
    return sites_[a].population_k > sites_[b].population_k;
  });
  return ids;
}

std::optional<SiteId> SiteCatalog::nearest(const GeoPoint& point) const {
  std::optional<SiteId> best;
  double best_km = std::numeric_limits<double>::infinity();
  for (const City& c : sites_) {
    const double km = haversine_km(point, c.location);
    if (!best || km < best_km) {
      best_km = km;
      best = c.id;
    }
  }
  return best;
}

SiteCatalog::SiteCatalog(std::vector<City> sites)
    : sites_(std::move(sites)) {
  by_name_.reserve(sites_.size());
  for (std::size_t i = 0; i < sites_.size(); ++i) {
    const City& c = sites_[i];
    if (c.id != i) {
      throw std::invalid_argument("site catalog: ids must be dense in-order");
    }
    if (c.name.empty()) {
      throw std::invalid_argument("site catalog: empty site name");
    }
    // Negated comparisons, so a NaN fails them too.
    if (!(std::abs(c.location.lat_deg) <= 90.0) || !(std::abs(c.location.lon_deg) <= 180.0)) {
      throw std::invalid_argument("site catalog: coordinate out of range for " +
                                  c.name);
    }
    if (!(c.population_k >= 0.0 && std::isfinite(c.population_k))) {
      throw std::invalid_argument("site catalog: negative or non-finite population for " +
                                  c.name);
    }
    by_name_.push_back(static_cast<SiteId>(i));
  }
  std::sort(by_name_.begin(), by_name_.end(), [this](SiteId a, SiteId b) {
    return sites_[a].name < sites_[b].name;
  });
  for (std::size_t i = 1; i < by_name_.size(); ++i) {
    if (sites_[by_name_[i - 1]].name == sites_[by_name_[i]].name) {
      throw std::invalid_argument("site catalog: duplicate site name " +
                                  sites_[by_name_[i]].name);
    }
  }
}

std::optional<SiteId> SiteCatalog::find(std::string_view name) const noexcept {
  const auto it = std::lower_bound(
      by_name_.begin(), by_name_.end(), name,
      [this](SiteId id, std::string_view key) { return sites_[id].name < key; });
  if (it == by_name_.end() || sites_[*it].name != name) return std::nullopt;
  return *it;
}

}  // namespace carbonedge::geo
