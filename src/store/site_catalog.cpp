#include "store/site_catalog.hpp"

#include <exception>
#include <utility>
#include <vector>

#include "geo/catalog.hpp"
#include "geo/catalog_io.hpp"
#include "geo/site.hpp"
#include "store/codecs.hpp"
#include "util/hash.hpp"

namespace carbonedge::store {

std::string build_site_catalog(const ArtifactStore& store, std::string_view tsv_text) {
  std::vector<geo::City> sites = geo::parse_sites_tsv(tsv_text);
  const geo::SiteCatalog catalog(std::move(sites));
  const std::string payload = encode_site_catalog(catalog);

  util::Fingerprint fp;
  fp.mix("carbonedge/site-catalog/v1");
  fp.mix(payload);
  const std::string key = fp.digest().hex();

  // Content addressing makes the publish idempotent: an existing entry
  // under this key already holds byte-identical data.
  if (!store.contains(ArtifactKind::kSiteCatalog, key)) {
    store.save(ArtifactKind::kSiteCatalog, key, payload);
  }
  return key;
}

std::optional<geo::SiteCatalog> load_site_catalog(const ArtifactStore& store,
                                                  std::string_view key) {
  const std::optional<std::string> payload = store.load(ArtifactKind::kSiteCatalog, key);
  if (!payload) return std::nullopt;
  try {
    return decode_site_catalog(*payload);
  } catch (const std::exception&) {
    // Checksum-valid but undecodable (schema drift) or invariant-breaking:
    // treat as a miss, exactly like the container-level corrupt path.
    return std::nullopt;
  }
}

}  // namespace carbonedge::store
