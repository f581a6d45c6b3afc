// Carbon-intensity service (Section 5.1, component 2 of the prototype):
// holds per-zone traces, answers real-time intensity queries, and owns the
// forecaster behind the optimizer's mean forecast Ī_j (step 0 in Fig. 6).
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "carbon/caltime.hpp"
#include "carbon/forecast.hpp"
#include "carbon/synthesizer.hpp"
#include "carbon/trace.hpp"
#include "geo/region.hpp"

namespace carbonedge::carbon {

class CarbonIntensityService {
 public:
  /// Service with an oracle forecaster (matches the paper's trace replay).
  CarbonIntensityService();
  explicit CarbonIntensityService(std::unique_ptr<Forecaster> forecaster);

  /// Register a trace for a zone; replaces any existing trace of that name.
  /// Throws std::invalid_argument on an empty (default-constructed) trace.
  void add_trace(CarbonTrace trace);
  /// Register an already-shared trace (e.g. from the TraceCache) without
  /// copying its year-long series. Throws std::invalid_argument on a null
  /// or empty trace.
  void add_trace(std::shared_ptr<const CarbonTrace> trace);

  /// Register traces for every city of a region, sharing them through the
  /// process-wide TraceCache (synthesis happens at most once per
  /// (zone, params) per process). Returns the zone names in region order.
  std::vector<std::string> add_region(const geo::Region& region,
                                      const SynthesizerParams& params = {});

  [[nodiscard]] bool has_zone(const std::string& zone) const noexcept;
  [[nodiscard]] std::size_t zone_count() const noexcept { return traces_.size(); }

  /// Real-time intensity of a zone at an hour.
  [[nodiscard]] double intensity(const std::string& zone, HourIndex hour) const;

  /// The zone's trace, by reference (no shared_ptr copy per query).
  [[nodiscard]] const CarbonTrace& trace(const std::string& zone) const;
  /// Shared handle to a zone's trace — lets callers hold (or re-register in
  /// another service) the immutable series without copying it.
  [[nodiscard]] std::shared_ptr<const CarbonTrace> shared_trace(const std::string& zone) const;
  [[nodiscard]] const Forecaster& forecaster() const noexcept { return *forecaster_; }
  void set_forecaster(std::unique_ptr<Forecaster> forecaster);

 private:
  /// The zone's map entry; throws std::out_of_range for an unknown zone.
  [[nodiscard]] const std::shared_ptr<const CarbonTrace>& find(const std::string& zone) const;

  // Traces are immutable and shared: services over the same region point at
  // the same year-long series (via the TraceCache), so constructing or
  // copying wide-sweep services does not duplicate 8760-hour vectors.
  std::unordered_map<std::string, std::shared_ptr<const CarbonTrace>> traces_;
  std::unique_ptr<Forecaster> forecaster_;
};

}  // namespace carbonedge::carbon
