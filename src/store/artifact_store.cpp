#include "store/artifact_store.hpp"

#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <system_error>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/env.hpp"

namespace carbonedge::store {

namespace {

// Registry mirrors (dual-write next to the per-instance corrupt_reads_):
// reads/hits/writes are pure functions of the request stream against a
// given on-disk state, so they sit in the deterministic view.
struct ArtifactMetrics {
  obs::Counter& reads;
  obs::Counter& read_hits;
  obs::Counter& corrupt_reads;
  obs::Counter& writes;
};

ArtifactMetrics& artifact_metrics() {
  obs::Registry& registry = obs::Registry::global();
  static ArtifactMetrics metrics{
      registry.counter("store.artifact.reads", "artifact load attempts",
                       obs::View::kDeterministic),
      registry.counter("store.artifact.read_hits", "artifact loads that returned a payload",
                       obs::View::kDeterministic),
      registry.counter("store.artifact.corrupt_reads",
                       "reads that found a corrupt entry (treated as misses)",
                       obs::View::kDeterministic),
      registry.counter("store.artifact.writes", "artifact publishes attempted",
                       obs::View::kDeterministic)};
  return metrics;
}

obs::Phase& read_phase() {
  static obs::Phase phase("store.read");
  return phase;
}

obs::Phase& write_phase() {
  static obs::Phase phase("store.write");
  return phase;
}

obs::Phase& gc_phase() {
  static obs::Phase phase("store.gc");
  return phase;
}

constexpr ArtifactKind kAllKinds[] = {ArtifactKind::kCarbonTrace, ArtifactKind::kSweepOutcome,
                                      ArtifactKind::kSiteCatalog};

const char* dir_name(ArtifactKind kind) {
  switch (kind) {
    case ArtifactKind::kCarbonTrace: return "traces";
    case ArtifactKind::kSweepOutcome: return "sweeps";
    case ArtifactKind::kSiteCatalog: return "catalogs";
  }
  throw std::invalid_argument("artifact store: unknown kind");
}

}  // namespace

ArtifactStore::ArtifactStore(std::filesystem::path root) : root_(std::move(root)) {
  std::error_code ec;
  for (const ArtifactKind kind : kAllKinds) {
    std::filesystem::create_directories(root_ / dir_name(kind), ec);
    if (ec) {
      throw std::runtime_error("artifact store: cannot create " +
                               (root_ / dir_name(kind)).string() + ": " + ec.message());
    }
  }
  std::filesystem::create_directories(root_ / "locks", ec);
  if (ec) {
    throw std::runtime_error("artifact store: cannot create " + (root_ / "locks").string() +
                             ": " + ec.message());
  }
}

std::shared_ptr<ArtifactStore> ArtifactStore::open_from_env() {
  const std::string dir = util::env::get_or("CARBONEDGE_STORE_DIR", "");
  if (dir.empty()) return nullptr;
  return std::make_shared<ArtifactStore>(std::filesystem::path(dir));
}

std::filesystem::path ArtifactStore::kind_dir(ArtifactKind kind) const {
  return root_ / dir_name(kind);
}

std::filesystem::path ArtifactStore::entry_path(ArtifactKind kind,
                                                std::string_view key) const {
  return kind_dir(kind) / (std::string(key) + std::string(kArtifactExtension));
}

bool ArtifactStore::contains(ArtifactKind kind, std::string_view key) const {
  std::error_code ec;
  return std::filesystem::exists(entry_path(kind, key), ec) && !ec;
}

std::optional<std::string> ArtifactStore::load(ArtifactKind kind, std::string_view key) const {
  const obs::Span span(read_phase());
  artifact_metrics().reads.add();
  const std::filesystem::path path = entry_path(kind, key);
  std::error_code ec;
  if (!std::filesystem::exists(path, ec) || ec) return std::nullopt;
  try {
    Artifact artifact = read_artifact_file(path);
    if (artifact.kind != kind) throw std::runtime_error("kind mismatch");
    artifact_metrics().read_hits.add();
    return std::move(artifact.payload);
  } catch (const std::exception&) {
    // Torn by a crashed writer, bit rot, or a foreign file under our name:
    // report a miss so the caller regenerates and overwrites it.
    corrupt_reads_.fetch_add(1, std::memory_order_relaxed);
    artifact_metrics().corrupt_reads.add();
    return std::nullopt;
  }
}

void ArtifactStore::save(ArtifactKind kind, std::string_view key,
                         std::string_view payload) const {
  const obs::Span span(write_phase());
  artifact_metrics().writes.add();
  write_artifact_file(entry_path(kind, key), kind, payload);
}

std::filesystem::path ArtifactStore::lock_path(ArtifactKind kind, std::string_view key) const {
  return root_ / "locks" / (std::string(dir_name(kind)) + "-" + std::string(key) + ".lock");
}

util::FileLock ArtifactStore::lock_entry(ArtifactKind kind, std::string_view key) const {
  return util::FileLock(lock_path(kind, key));
}

std::vector<ArtifactStore::Entry> ArtifactStore::list(bool verify) const {
  std::vector<Entry> entries;
  for (const ArtifactKind kind : kAllKinds) {
    std::error_code ec;
    for (const auto& file : std::filesystem::directory_iterator(kind_dir(kind), ec)) {
      if (!file.is_regular_file() || file.path().extension() != kArtifactExtension) continue;
      Entry entry;
      entry.kind = kind;
      entry.key = file.path().stem().string();
      std::error_code size_ec;
      const std::uintmax_t size = file.file_size(size_ec);
      // Deleted between iteration and stat (concurrent gc): report 0, not
      // the uintmax_t(-1) error sentinel, which would wreck ls totals.
      entry.file_bytes = size_ec || size == static_cast<std::uintmax_t>(-1) ? 0 : size;
      if (verify) {
        const ArtifactInfo info = inspect_artifact_file(file.path());
        entry.intact = info.intact && info.kind == kind;
      }
      entries.push_back(std::move(entry));
    }
  }
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    return a.kind != b.kind ? a.kind < b.kind : a.key < b.key;
  });
  return entries;
}

namespace {

/// Last use of an entry for LRU eviction: the newer of atime and mtime
/// (reads refresh atime — on relatime mounts lazily, but still monotone
/// enough for a cache — and rewrites refresh mtime). A failed stat reports
/// the maximum so racing entries sort as freshest and are never evicted.
std::int64_t last_use_ns(const std::filesystem::path& path) {
  struct ::stat st{};
  if (::stat(path.c_str(), &st) != 0) return std::numeric_limits<std::int64_t>::max();
  const auto to_ns = [](const ::timespec& ts) {
    return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 +
           static_cast<std::int64_t>(ts.tv_nsec);
  };
  return std::max(to_ns(st.st_atim), to_ns(st.st_mtim));
}

}  // namespace

ArtifactStore::GcReport ArtifactStore::gc(std::uintmax_t max_bytes) const {
  const obs::Span span(gc_phase());
  GcReport report;
  // Snapshot LRU candidates before anything below opens entry contents:
  // the integrity sweep's reads would refresh every entry's atime and
  // erase the very recency signal eviction orders by.
  struct Candidate {
    std::filesystem::path path;
    ArtifactKind kind{};
    std::string key;
    std::uintmax_t bytes = 0;
    std::int64_t last_use = 0;
  };
  std::vector<Candidate> candidates;
  if (max_bytes > 0) {
    for (const ArtifactKind kind : kAllKinds) {
      std::error_code ec;
      for (const auto& file : std::filesystem::directory_iterator(kind_dir(kind), ec)) {
        if (!file.is_regular_file() || file.path().extension() != kArtifactExtension) continue;
        std::error_code size_ec;
        const std::uintmax_t size = file.file_size(size_ec);
        if (size_ec || size == static_cast<std::uintmax_t>(-1)) continue;
        candidates.push_back(Candidate{file.path(), kind, file.path().stem().string(), size,
                                       last_use_ns(file.path())});
      }
    }
  }
  const auto remove_file = [&report](const std::filesystem::path& path) {
    std::error_code ec;
    const std::uintmax_t bytes = std::filesystem::file_size(path, ec);
    if (std::filesystem::remove(path, ec) && !ec) {
      ++report.removed_files;
      report.reclaimed_bytes += bytes == static_cast<std::uintmax_t>(-1) ? 0 : bytes;
    }
  };
  // A temp file younger than this belongs to a live writer between write
  // and rename, not a crashed one — deleting it would make that writer's
  // rename fail. Atomic publishes take milliseconds, so minutes of slack is
  // generous.
  constexpr auto kTempGraceLimit = std::chrono::minutes(10);
  // lint: nondeterminism-ok(gc grace period is wall-clock by design; never touches simulation output)
  const auto now = std::filesystem::file_time_type::clock::now();
  for (const ArtifactKind kind : kAllKinds) {
    std::error_code ec;
    for (const auto& file : std::filesystem::directory_iterator(kind_dir(kind), ec)) {
      if (!file.is_regular_file()) continue;
      const std::string name = file.path().filename().string();
      if (util::is_atomic_temp_name(name)) {
        std::error_code time_ec;
        const auto written = std::filesystem::last_write_time(file.path(), time_ec);
        if (!time_ec && now - written > kTempGraceLimit) remove_file(file.path());
        continue;
      }
      if (file.path().extension() != kArtifactExtension) continue;
      const ArtifactInfo info = inspect_artifact_file(file.path());
      if (!info.intact || info.kind != kind) remove_file(file.path());
    }
  }
  // Lock files are one-per-key and otherwise accumulate forever on a
  // long-lived store. Only reap ones that are past the grace period AND
  // currently unheld (non-blocking probe) — unlinking a held lock could
  // split future waiters across two inodes, whose only consequence here
  // would be a duplicate synthesis, but there is no reason to risk it.
  {
    std::error_code ec;
    for (const auto& file : std::filesystem::directory_iterator(root_ / "locks", ec)) {
      if (!file.is_regular_file()) continue;
      std::error_code time_ec;
      const auto written = std::filesystem::last_write_time(file.path(), time_ec);
      if (time_ec || now - written <= kTempGraceLimit) continue;
      const util::FileLock probe(file.path(), util::FileLock::Mode::kTry);
      if (probe.held()) remove_file(file.path());
    }
  }
  // Size cap: evict least-recently-used intact entries until the store
  // fits. Runs after the corrupt/temp sweep (junk never crowds out live
  // entries — candidates it removed are skipped below), over the snapshot
  // taken up top.
  if (max_bytes > 0) {
    std::uintmax_t total = 0;
    std::error_code ec;
    std::erase_if(candidates, [&](const Candidate& candidate) {
      return !std::filesystem::exists(candidate.path, ec) || ec;
    });
    for (const Candidate& candidate : candidates) total += candidate.bytes;
    std::sort(candidates.begin(), candidates.end(), [](const Candidate& a, const Candidate& b) {
      return a.last_use != b.last_use ? a.last_use < b.last_use
                                      : a.path.native() < b.path.native();
    });
    for (const Candidate& candidate : candidates) {
      if (total <= max_bytes) break;
      // In-flight entries (another process computing or reading under the
      // entry lock) are never evicted; holding the probe lock across the
      // removal keeps a new computation from racing the unlink.
      const util::FileLock probe(lock_path(candidate.kind, candidate.key),
                                 util::FileLock::Mode::kTry);
      if (!probe.held()) continue;
      std::error_code remove_ec;
      if (std::filesystem::remove(candidate.path, remove_ec) && !remove_ec) {
        ++report.evicted_files;
        report.evicted_bytes += candidate.bytes;
        total -= candidate.bytes;
      }
    }
  }
  return report;
}

}  // namespace carbonedge::store
