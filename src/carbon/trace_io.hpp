// Carbon trace import/export in an Electricity-Maps-style CSV schema:
//
//   zone,hour,intensity_g_kwh[,hydro,solar,wind,nuclear,biomass,gas,oil,coal]
//
// The writers emit only the first three columns. The reader also accepts
// the eight per-source mix columns and keeps their per-zone average (summed
// in hour order, then normalized), the one mix a CarbonTrace holds.
//
// The prototype's carbon-intensity service "replays historical traces from
// Electricity Maps" (Section 5.1); this module lets users replay their own
// licensed exports through the same CarbonIntensityService, and lets every
// bench dump the synthetic traces it ran against for archival.
#pragma once

#include <filesystem>
#include <iosfwd>
#include <vector>

#include "carbon/trace.hpp"

namespace carbonedge::carbon {

/// Serialize one trace as CSV rows (zone, hour, intensity).
void write_trace_csv(std::ostream& out, const CarbonTrace& trace);

/// Serialize several traces into one document (rows grouped by zone).
void write_traces_csv(std::ostream& out, const std::vector<CarbonTrace>& traces);

/// Parse traces from CSV text. Hours must be contiguous from 0 per zone.
/// Throws std::runtime_error on schema violations.
[[nodiscard]] std::vector<CarbonTrace> read_traces_csv(const std::string& text);

/// File conveniences.
void save_traces(const std::filesystem::path& path, const std::vector<CarbonTrace>& traces);
[[nodiscard]] std::vector<CarbonTrace> load_traces(const std::filesystem::path& path);

}  // namespace carbonedge::carbon
