// Hourly carbon-intensity traces: one value per hour of the trace year, the
// series placement reads. Beside it a trace keeps one generation mix, the
// normalized average of its hourly realized mixes (Figure 1a, low-carbon
// shares). The hourly mixes are folded into that average as they are
// produced and never stored, since nothing else reads them; they would be
// 8/9 of a trace's bytes.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "carbon/caltime.hpp"
#include "carbon/mix.hpp"

namespace carbonedge::carbon {

/// A year of hourly carbon intensity for one zone.
class CarbonTrace {
 public:
  CarbonTrace() = default;
  CarbonTrace(std::string zone_name, std::vector<double> intensity_g_per_kwh,
              GenerationMix average_mix = {});

  [[nodiscard]] const std::string& zone() const noexcept { return zone_; }
  [[nodiscard]] std::size_t hours() const noexcept { return intensity_.size(); }
  [[nodiscard]] bool empty() const noexcept { return intensity_.empty(); }

  /// Intensity at an hour; indices wrap modulo the trace length, so multi-
  /// year simulations replay the trace cyclically (as the prototype's trace
  /// replayer does).
  [[nodiscard]] double at(HourIndex h) const noexcept { return intensity_[h % intensity_.size()]; }

  [[nodiscard]] std::span<const double> values() const noexcept { return intensity_; }

  /// Mean over [start, start+count) with wrapping.
  [[nodiscard]] double mean_over(HourIndex start, std::uint32_t count) const noexcept;

  /// Mean for a calendar month (0-11). Requires a full-year trace.
  [[nodiscard]] double monthly_mean(std::uint32_t month) const noexcept;

  /// Yearly mean / min / max.
  [[nodiscard]] double yearly_mean() const noexcept;
  [[nodiscard]] double yearly_min() const noexcept;
  [[nodiscard]] double yearly_max() const noexcept;

  /// Average realized generation shares over the whole trace (Figure 1a);
  /// all zero for a trace built from intensities alone.
  [[nodiscard]] const GenerationMix& average_mix() const noexcept { return average_mix_; }

 private:
  std::string zone_;
  std::vector<double> intensity_;
  GenerationMix average_mix_;
};

}  // namespace carbonedge::carbon
