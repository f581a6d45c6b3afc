// Payload codecs for the artifact container (store/artifact.hpp): columnar
// binary serializations of the artifact kinds.
//
// Doubles are stored as raw IEEE-754 bits, so every codec round-trips
// bit-exactly — a value decoded from the store is indistinguishable from
// the value that was encoded, which is what lets warmed benches and resumed
// sweeps render byte-identical tables. Each payload starts with a
// kind-schema version so payloads can evolve independently of the
// container format.
#pragma once

#include <string>
#include <string_view>

#include "carbon/trace.hpp"
#include "core/simulation.hpp"
#include "geo/catalog.hpp"

namespace carbonedge::store {

/// Carbon trace: zone name, then the intensity column, then (optionally)
/// one column per energy source of the realized generation mix.
[[nodiscard]] std::string encode_trace(const carbon::CarbonTrace& trace);
[[nodiscard]] carbon::CarbonTrace decode_trace(std::string_view payload);

/// Compiled site catalog: name/country/continent rows, then columnar
/// lat/lon/population doubles. The decoder re-runs SiteCatalog's
/// constructor validation, so a checksum-valid but semantically broken
/// payload (duplicate names, out-of-range coordinates) still throws.
[[nodiscard]] std::string encode_site_catalog(const geo::SiteCatalog& catalog);
[[nodiscard]] geo::SiteCatalog decode_site_catalog(std::string_view payload);

/// One sweep cell's full SimulationResult: run-level counters, the complete
/// per-epoch/per-site telemetry series, and the response-time histogram —
/// enough that a store-resumed outcome is a perfect stand-in for a computed
/// one (benches that read telemetry stay byte-identical too).
[[nodiscard]] std::string encode_outcome(const core::SimulationResult& result);
[[nodiscard]] core::SimulationResult decode_outcome(std::string_view payload);

}  // namespace carbonedge::store
