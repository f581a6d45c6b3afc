// Latency import/export in a WonderNetwork-style CSV schema:
//
//   from,to,distance_km,one_way_ms,rtt_ms
//
// Users with access to real ping datasets (the paper uses WonderNetwork's
// 246-city matrix) can replay them through the same placement pipeline; the
// export path archives the synthetic matrix each experiment ran against.
#pragma once

#include <filesystem>
#include <iosfwd>
#include <string>

#include "geo/latency.hpp"
#include "geo/site.hpp"

namespace carbonedge::geo {

/// Write the pairwise latency of `cities` under `model` as CSV (upper
/// triangle only; the matrix is symmetric).
void write_latency_csv(std::ostream& out, std::span<const City> cities,
                       const LatencyModel& model);

/// Build a full-row LatencyProvider for `cities` from CSV text in the
/// schema above. Missing pairs and one_way_ms cells that are not a finite,
/// non-negative number (util::parse_nonnegative; the message names the
/// line) throw std::runtime_error; extra pairs are ignored; the direction
/// of a pair does not matter.
[[nodiscard]] LatencyProvider read_latency_csv(const std::string& text,
                                               std::span<const City> cities);

/// File conveniences.
void save_latency(const std::filesystem::path& path, std::span<const City> cities,
                  const LatencyModel& model);
[[nodiscard]] LatencyProvider load_latency(const std::filesystem::path& path,
                                           std::span<const City> cities);

}  // namespace carbonedge::geo
