#include "carbon/service.hpp"

#include <stdexcept>

#include "carbon/trace_cache.hpp"
#include "carbon/zone.hpp"
#include "geo/site.hpp"

namespace carbonedge::carbon {

CarbonIntensityService::CarbonIntensityService()
    : forecaster_(std::make_unique<OracleForecaster>()) {}

CarbonIntensityService::CarbonIntensityService(std::unique_ptr<Forecaster> forecaster)
    : forecaster_(std::move(forecaster)) {
  if (!forecaster_) throw std::invalid_argument("forecaster must be non-null");
}

void CarbonIntensityService::add_trace(CarbonTrace trace) {
  add_trace(std::make_shared<const CarbonTrace>(std::move(trace)));
}

void CarbonIntensityService::add_trace(std::shared_ptr<const CarbonTrace> trace) {
  if (!trace) throw std::invalid_argument("trace must be non-null");
  // CarbonTrace::at wraps modulo the length: an empty trace has no hours.
  if (trace->empty()) throw std::invalid_argument("trace must be non-empty");
  const std::string name = trace->zone();
  traces_.insert_or_assign(name, std::move(trace));
}

std::vector<std::string> CarbonIntensityService::add_region(const geo::Region& region,
                                                            const SynthesizerParams& params) {
  const auto& catalog = ZoneCatalog::builtin();
  std::vector<std::string> names;
  names.reserve(region.cities.size());
  for (const geo::City& city : region.resolve()) {
    add_trace(TraceCache::global().get(catalog.spec_for(city), params));
    names.push_back(city.name);
  }
  return names;
}

bool CarbonIntensityService::has_zone(const std::string& zone) const noexcept {
  return traces_.contains(zone);
}

const std::shared_ptr<const CarbonTrace>& CarbonIntensityService::find(
    const std::string& zone) const {
  const auto it = traces_.find(zone);
  if (it == traces_.end()) throw std::out_of_range("unknown carbon zone: " + zone);
  return it->second;
}

const CarbonTrace& CarbonIntensityService::trace(const std::string& zone) const {
  return *find(zone);
}

std::shared_ptr<const CarbonTrace> CarbonIntensityService::shared_trace(
    const std::string& zone) const {
  return find(zone);
}

double CarbonIntensityService::intensity(const std::string& zone, HourIndex hour) const {
  return trace(zone).at(hour);
}

void CarbonIntensityService::set_forecaster(std::unique_ptr<Forecaster> forecaster) {
  if (!forecaster) throw std::invalid_argument("forecaster must be non-null");
  forecaster_ = std::move(forecaster);
}

}  // namespace carbonedge::carbon
