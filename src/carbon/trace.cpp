#include "carbon/trace.hpp"

#include <algorithm>
#include <stdexcept>

namespace carbonedge::carbon {

CarbonTrace::CarbonTrace(std::string zone_name, std::vector<double> intensity,
                         GenerationMix average_mix)
    : zone_(std::move(zone_name)),
      intensity_(std::move(intensity)),
      average_mix_(average_mix) {
  if (intensity_.empty()) throw std::invalid_argument("carbon trace must be non-empty");
  for (const double v : intensity_) {
    if (v < 0.0) throw std::invalid_argument("carbon intensity must be non-negative");
  }
}

double CarbonTrace::mean_over(HourIndex start, std::uint32_t count) const noexcept {
  if (count == 0 || intensity_.empty()) return 0.0;
  double total = 0.0;
  for (std::uint32_t i = 0; i < count; ++i) total += at(start + i);
  return total / static_cast<double>(count);
}

double CarbonTrace::monthly_mean(std::uint32_t month) const noexcept {
  const HourIndex start = month_start_hour(month);
  return mean_over(start, days_in_month(month) * kHoursPerDay);
}

double CarbonTrace::yearly_mean() const noexcept {
  return mean_over(0, static_cast<std::uint32_t>(intensity_.size()));
}

double CarbonTrace::yearly_min() const noexcept {
  return intensity_.empty() ? 0.0 : *std::min_element(intensity_.begin(), intensity_.end());
}

double CarbonTrace::yearly_max() const noexcept {
  return intensity_.empty() ? 0.0 : *std::max_element(intensity_.begin(), intensity_.end());
}

}  // namespace carbonedge::carbon
