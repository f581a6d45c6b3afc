// Grid-dispatch trace synthesizer.
//
// Substitutes for the proprietary Electricity Maps traces the paper uses; the
// zone mixes it runs on are calibrated in carbon/zone.hpp.
// For each zone we simulate one year of hourly grid operation:
//
//   demand(t)   diurnal shape (overnight trough, morning ramp, evening
//               peak) x seasonal shape (winter heating at high latitudes,
//               summer cooling at low) x small AR(1) noise
//   solar(t)    capacity x clear-sky irradiance (day-length follows the
//               zone's latitude and the season) x cloud AR(1)
//   wind(t)     capacity x AR(1) around a seasonal mean (windier winters)
//   hydro(t)    run-of-river, mildly seasonal (spring melt)
//   nuclear(t)  flat baseload at a high capacity factor
//
// Must-run generation (nuclear + renewables) is taken first (curtailed if it
// exceeds demand); the residual is served by dispatchable thermal plants in
// merit order coal -> gas -> biomass -> oil; any remaining shortfall is
// imported at kImportIntensity. The hourly carbon intensity is the
// generation-weighted average of source intensities — exactly the quantity
// the paper's Figure 1b/2/3/4 traces report.
#pragma once

#include <cstdint>

#include "carbon/caltime.hpp"
#include "carbon/trace.hpp"
#include "carbon/zone.hpp"

namespace carbonedge::carbon {

struct SynthesizerParams {
  std::uint64_t seed = 0xCA4B0Full;  // global seed; per-zone streams derive from it
  std::uint32_t hours = kHoursPerYear;
  double cloud_persistence = 0.92;   // AR(1) coefficient for cloud cover
  double cloud_noise = 0.10;
  double wind_persistence = 0.94;
  double wind_noise = 0.08;
  double demand_noise = 0.015;
  double nuclear_capacity_factor = 0.93;
  double hydro_capacity_factor = 0.80;
  /// Fraction of consumption served by imports from unmodeled neighbors at
  /// kImportIntensity. Raises the intensity floor of very clean zones the
  /// way real interconnection does (keeps e.g. nuclear France near ~50
  /// g/kWh rather than the plant-level ~15).
  double grid_import_fraction = 0.06;

  /// Memberwise equality: two parameter sets synthesize identical traces
  /// exactly when they compare equal (the TraceCache memoization key).
  [[nodiscard]] bool operator==(const SynthesizerParams&) const noexcept = default;
};

/// Deterministic synthesizer: the same (zone, params) always yields the
/// same trace, independent of generation order across zones.
class TraceSynthesizer {
 public:
  explicit TraceSynthesizer(SynthesizerParams params = {}) : params_(params) {}

  /// Synthesize the hourly trace for one zone.
  [[nodiscard]] CarbonTrace synthesize(const ZoneSpec& zone) const;

  [[nodiscard]] const SynthesizerParams& params() const noexcept { return params_; }

  /// Clear-sky irradiance factor in [0,1] for a latitude/hour/day — exposed
  /// for testing the astronomical model in isolation.
  [[nodiscard]] static double clear_sky(double latitude_deg, std::uint32_t hour_of_day,
                                        std::uint32_t day_of_year) noexcept;

  /// Normalized demand (fraction of installed capacity) before noise.
  [[nodiscard]] static double demand_shape(const ZoneSpec& zone, std::uint32_t hour_of_day,
                                           std::uint32_t day_of_year) noexcept;

 private:
  SynthesizerParams params_;
};

}  // namespace carbonedge::carbon
