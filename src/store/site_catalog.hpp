// Compiled site catalogs in the artifact store.
//
// `carbonedge_cli catalog build` turns a GeoNames-style TSV dump
// (geo/catalog_io.hpp) into a validated, checksummed CEAF blob under
// <store>/catalogs/<key>.ceaf. The key is a content fingerprint of the
// *canonical encoded payload*, so two dumps that differ only in formatting
// (comments, blank lines, number spelling) compile to the same entry, and
// any process holding the key loads bit-identical site data.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "geo/catalog.hpp"
#include "store/artifact_store.hpp"

namespace carbonedge::store {

/// Parse + validate `tsv_text`, encode the catalog, and publish it under
/// its content key. Returns the key. Throws std::runtime_error (with the
/// offending line number) on malformed input.
std::string build_site_catalog(const ArtifactStore& store, std::string_view tsv_text);

/// Load a compiled catalog by key. Absent or corrupt entries (container
/// checksum, payload schema, or catalog-invariant failures) come back as
/// nullopt — compiled catalogs are rebuildable from their dump, so every
/// failure mode is a cache miss, never a crash.
[[nodiscard]] std::optional<geo::SiteCatalog> load_site_catalog(
    const ArtifactStore& store, std::string_view key);

}  // namespace carbonedge::store
