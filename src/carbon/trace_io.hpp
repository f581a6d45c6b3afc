// Carbon trace export as CSV, one row per zone-hour:
//
//   zone,hour,intensity_g_kwh
//
// `carbonedge_cli export-traces` dumps the synthetic traces a region ran
// against in this schema, intensities at 4 decimals.
#pragma once

#include <filesystem>
#include <iosfwd>
#include <vector>

#include "carbon/trace.hpp"

namespace carbonedge::carbon {

/// Serialize several traces into one document (rows grouped by zone).
void write_traces_csv(std::ostream& out, const std::vector<CarbonTrace>& traces);

/// write_traces_csv to a file; throws std::runtime_error if it cannot be
/// opened for writing.
void save_traces(const std::filesystem::path& path, const std::vector<CarbonTrace>& traces);

}  // namespace carbonedge::carbon
