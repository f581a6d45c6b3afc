// Content-addressed persistent artifact store, shared across processes.
//
// Layout under one root directory (CARBONEDGE_STORE_DIR):
//
//   <root>/traces/<key>.ceaf     synthesized carbon traces (L2 tier of
//                                carbon::TraceCache)
//   <root>/sweeps/<key>.ceaf     per-scenario SimulationResults (SweepStore)
//   <root>/catalogs/<key>.ceaf   compiled site catalogs
//   <root>/locks/<kind>-<key>.lock   advisory cross-process locks
//
// Keys are caller-supplied content hashes (util::Fingerprint hex digests),
// so equal inputs land on the same file from any process. Writers publish
// entries via write-then-atomic-rename, so readers never see a torn file;
// every read validates the container checksum and treats a corrupt entry
// as absent (it will be regenerated and rewritten). lock_entry() gives
// cooperating processes a synthesize-once guarantee per key: take the
// lock, re-check load(), and only compute on a confirmed miss.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "store/artifact.hpp"
#include "util/fs.hpp"

namespace carbonedge::store {

class ArtifactStore {
 public:
  /// Opens (creating directories as needed) a store rooted at `root`.
  /// Throws std::runtime_error if the directories cannot be created.
  explicit ArtifactStore(std::filesystem::path root);

  /// Store named by the CARBONEDGE_STORE_DIR environment variable, or
  /// nullptr when the variable is unset/empty.
  [[nodiscard]] static std::shared_ptr<ArtifactStore> open_from_env();

  [[nodiscard]] const std::filesystem::path& root() const noexcept { return root_; }

  [[nodiscard]] std::filesystem::path entry_path(ArtifactKind kind,
                                                 std::string_view key) const;
  [[nodiscard]] bool contains(ArtifactKind kind, std::string_view key) const;

  /// The entry's payload, or nullopt when absent. A present-but-corrupt
  /// entry (bad header/checksum) counts as absent and bumps
  /// corrupt_reads() — callers regenerate and overwrite it.
  [[nodiscard]] std::optional<std::string> load(ArtifactKind kind,
                                               std::string_view key) const;

  /// Frame `payload` and publish it atomically under (kind, key).
  void save(ArtifactKind kind, std::string_view key, std::string_view payload) const;

  /// Blocking exclusive advisory lock scoped to (kind, key). Hold it across
  /// the load-recheck + compute + save sequence to guarantee at most one
  /// process computes a given artifact.
  [[nodiscard]] util::FileLock lock_entry(ArtifactKind kind, std::string_view key) const;

  struct Entry {
    ArtifactKind kind{};
    std::string key;
    std::uintmax_t file_bytes = 0;
    bool intact = true;  // only meaningful when listed with verify=true
  };
  /// All entries, sorted by (kind dir, key). With verify, each entry's
  /// checksum is validated and reported in `intact`.
  [[nodiscard]] std::vector<Entry> list(bool verify = false) const;

  struct GcReport {
    std::size_t removed_files = 0;       // temp leftovers + corrupt entries
    std::uintmax_t reclaimed_bytes = 0;  // bytes freed by those removals
    std::size_t evicted_files = 0;       // intact entries evicted by the cap
    std::uintmax_t evicted_bytes = 0;
  };
  /// Remove crashed writers' temp leftovers and corrupt entries. Temp
  /// files younger than a grace period are presumed to belong to a live
  /// writer mid-publish and are kept, so gc is safe to run concurrently
  /// with active sweeps.
  ///
  /// With `max_bytes > 0`, additionally bound the store: while the intact
  /// entries total more than `max_bytes`, evict least-recently-used first
  /// (the newer of access and modification time, so both reads and
  /// rewrites refresh an entry; recency is snapshotted before this call's
  /// own integrity reads). On noatime mounts — or after a separate
  /// verify/gc pass flattened atimes — recency degrades gracefully toward
  /// modification time with a deterministic path tie-break. Entries whose
  /// advisory lock is held are in flight — another process is computing or
  /// reading them — and are never evicted; an evicted entry is only ever a
  /// cache miss, to be regenerated on next use.
  GcReport gc(std::uintmax_t max_bytes = 0) const;

  /// Reads that found a corrupt entry (treated as misses) on this instance.
  [[nodiscard]] std::uint64_t corrupt_reads() const noexcept {
    return corrupt_reads_.load(std::memory_order_relaxed);
  }

 private:
  [[nodiscard]] std::filesystem::path kind_dir(ArtifactKind kind) const;
  [[nodiscard]] std::filesystem::path lock_path(ArtifactKind kind, std::string_view key) const;

  std::filesystem::path root_;
  mutable std::atomic<std::uint64_t> corrupt_reads_{0};
};

}  // namespace carbonedge::store
