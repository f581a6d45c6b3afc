// Carbon-intensity forecasting.
//
// CarbonEdge's placement objective uses the *mean forecast* intensity Ī_j
// over the upcoming placement epoch (Table 2 / Eq. 6). The prototype's
// carbon-intensity service "provides real-time and forecast carbon
// intensity" (Section 5.1); these forecasters reproduce that service.
// All forecasters are causal: they may only read trace hours < `now`
// (except the oracle, which models a perfect forecast the way the paper's
// trace replay does).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "carbon/caltime.hpp"
#include "carbon/trace.hpp"

namespace carbonedge::carbon {

class Forecaster {
 public:
  virtual ~Forecaster() = default;

  /// Predict intensities for hours [now, now + horizon).
  [[nodiscard]] virtual std::vector<double> forecast(const CarbonTrace& trace, HourIndex now,
                                                     std::uint32_t horizon) const = 0;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Mean of the forecast window — the Ī_j consumed by the optimizer: the
  /// forecast series summed in order and divided by its length, or the
  /// intensity at `now` when `horizon` is 0.
  [[nodiscard]] virtual double mean_forecast(const CarbonTrace& trace, HourIndex now,
                                             std::uint32_t horizon) const;
};

/// Perfect foresight (replays the trace). Matches the paper's evaluation,
/// which replays historical traces through the carbon service.
class OracleForecaster final : public Forecaster {
 public:
  [[nodiscard]] std::vector<double> forecast(const CarbonTrace& trace, HourIndex now,
                                             std::uint32_t horizon) const override;
  /// The same mean, summed straight from the trace without the series.
  [[nodiscard]] double mean_forecast(const CarbonTrace& trace, HourIndex now,
                                     std::uint32_t horizon) const override;
  [[nodiscard]] std::string name() const override { return "oracle"; }
};

/// Flat persistence: every future hour equals the last observed hour.
class PersistenceForecaster final : public Forecaster {
 public:
  [[nodiscard]] std::vector<double> forecast(const CarbonTrace& trace, HourIndex now,
                                             std::uint32_t horizon) const override;
  [[nodiscard]] std::string name() const override { return "persistence"; }
};

/// Mean of the trailing `window` hours, held flat.
class MovingAverageForecaster final : public Forecaster {
 public:
  explicit MovingAverageForecaster(std::uint32_t window = 24);
  [[nodiscard]] std::vector<double> forecast(const CarbonTrace& trace, HourIndex now,
                                             std::uint32_t horizon) const override;
  [[nodiscard]] std::string name() const override;

 private:
  std::uint32_t window_;
};

/// Hour-of-day climatology: predicts each future hour as the average of the
/// same hour over the trailing `days` days — captures the diurnal solar
/// shape that persistence misses.
class DiurnalForecaster final : public Forecaster {
 public:
  explicit DiurnalForecaster(std::uint32_t days = 7);
  [[nodiscard]] std::vector<double> forecast(const CarbonTrace& trace, HourIndex now,
                                             std::uint32_t horizon) const override;
  [[nodiscard]] std::string name() const override;

 private:
  std::uint32_t days_;
};

/// Forecast accuracy: mean absolute percentage error of `forecaster` against
/// the trace over [start, end) with the given horizon, evaluated each epoch.
[[nodiscard]] double forecast_mape(const Forecaster& forecaster, const CarbonTrace& trace,
                                   HourIndex start, HourIndex end, std::uint32_t horizon);

/// Factory for the forecaster names a ScenarioGrid's forecaster axis takes
/// ("oracle", "persistence", "moving_average", "diurnal"); throws
/// std::invalid_argument otherwise.
[[nodiscard]] std::unique_ptr<Forecaster> make_forecaster(const std::string& name);

}  // namespace carbonedge::carbon
