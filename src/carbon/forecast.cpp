#include "carbon/forecast.hpp"

#include <cmath>
#include <stdexcept>

namespace carbonedge::carbon {

double Forecaster::mean_forecast(const CarbonTrace& trace, HourIndex now,
                                 std::uint32_t horizon) const {
  if (horizon == 0) return trace.at(now);
  const std::vector<double> values = forecast(trace, now, horizon);
  double total = 0.0;
  for (const double v : values) total += v;
  return total / static_cast<double>(values.size());
}

std::vector<double> OracleForecaster::forecast(const CarbonTrace& trace, HourIndex now,
                                               std::uint32_t horizon) const {
  std::vector<double> out;
  out.reserve(horizon);
  for (std::uint32_t i = 0; i < horizon; ++i) out.push_back(trace.at(now + i));
  return out;
}

double OracleForecaster::mean_forecast(const CarbonTrace& trace, HourIndex now,
                                       std::uint32_t horizon) const {
  if (horizon == 0) return trace.at(now);
  double total = 0.0;
  for (std::uint32_t i = 0; i < horizon; ++i) total += trace.at(now + i);
  return total / static_cast<double>(horizon);
}

std::vector<double> PersistenceForecaster::forecast(const CarbonTrace& trace, HourIndex now,
                                                    std::uint32_t horizon) const {
  const double last = now == 0 ? trace.at(0) : trace.at(now - 1);
  return std::vector<double>(horizon, last);
}

MovingAverageForecaster::MovingAverageForecaster(std::uint32_t window)
    : window_(window == 0 ? 1 : window) {}

std::vector<double> MovingAverageForecaster::forecast(const CarbonTrace& trace, HourIndex now,
                                                      std::uint32_t horizon) const {
  const std::uint32_t available = std::min<std::uint32_t>(window_, now);
  double value = 0.0;
  if (available == 0) {
    value = trace.at(0);
  } else {
    for (std::uint32_t i = 1; i <= available; ++i) value += trace.at(now - i);
    value /= static_cast<double>(available);
  }
  return std::vector<double>(horizon, value);
}

std::string MovingAverageForecaster::name() const {
  return "moving_average(" + std::to_string(window_) + "h)";
}

DiurnalForecaster::DiurnalForecaster(std::uint32_t days) : days_(days == 0 ? 1 : days) {}

std::vector<double> DiurnalForecaster::forecast(const CarbonTrace& trace, HourIndex now,
                                                std::uint32_t horizon) const {
  std::vector<double> out;
  out.reserve(horizon);
  for (std::uint32_t i = 0; i < horizon; ++i) {
    const HourIndex target = now + i;
    double total = 0.0;
    std::uint32_t samples = 0;
    for (std::uint32_t d = 1; d <= days_; ++d) {
      const std::uint32_t back = d * kHoursPerDay;
      if (back > target) break;  // causal: stay within observed history
      total += trace.at(target - back);
      ++samples;
    }
    out.push_back(samples > 0 ? total / static_cast<double>(samples) : trace.at(0));
  }
  return out;
}

std::string DiurnalForecaster::name() const {
  return "diurnal(" + std::to_string(days_) + "d)";
}

double forecast_mape(const Forecaster& forecaster, const CarbonTrace& trace, HourIndex start,
                     HourIndex end, std::uint32_t horizon) {
  if (start >= end || horizon == 0) return 0.0;
  double total_ape = 0.0;
  std::size_t samples = 0;
  for (HourIndex now = start; now < end; now += horizon) {
    const std::vector<double> predicted = forecaster.forecast(trace, now, horizon);
    for (std::uint32_t i = 0; i < horizon; ++i) {
      const double actual = trace.at(now + i);
      if (actual <= 0.0) continue;
      total_ape += std::abs(predicted[i] - actual) / actual;
      ++samples;
    }
  }
  return samples == 0 ? 0.0 : total_ape / static_cast<double>(samples);
}

std::unique_ptr<Forecaster> make_forecaster(const std::string& name) {
  if (name == "oracle") return std::make_unique<OracleForecaster>();
  if (name == "persistence") return std::make_unique<PersistenceForecaster>();
  if (name == "moving_average") return std::make_unique<MovingAverageForecaster>();
  if (name == "diurnal") return std::make_unique<DiurnalForecaster>();
  throw std::invalid_argument("unknown forecaster: " + name);
}

}  // namespace carbonedge::carbon
