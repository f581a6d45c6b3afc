#include "store/artifact_store.hpp"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/stat.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>

#include "carbon/synthesizer.hpp"
#include "carbon/zone.hpp"
#include "geo/region.hpp"
#include "store/codecs.hpp"
#include "store/trace_tier.hpp"
#include "store_test_util.hpp"
#include "util/fs.hpp"
#include "util/hash.hpp"

namespace carbonedge::store {
namespace {

struct TempStoreDir : testutil::TempStoreDir {
  TempStoreDir() : testutil::TempStoreDir("carbonedge_store_test") {}
};

carbon::CarbonTrace synthetic_trace() {
  const auto cities = geo::central_eu_region().resolve();
  return carbon::TraceSynthesizer().synthesize(
      carbon::ZoneCatalog::builtin().spec_for(cities.front()));
}

TEST(Fingerprint, IsDeterministicAndFieldSensitive) {
  util::Fingerprint a;
  a.mix("hello").mix(std::uint64_t{42}).mix(1.5);
  util::Fingerprint b;
  b.mix("hello").mix(std::uint64_t{42}).mix(1.5);
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_EQ(a.digest().hex().size(), 32u);

  util::Fingerprint c;
  c.mix("hello").mix(std::uint64_t{43}).mix(1.5);
  EXPECT_NE(a.digest(), c.digest());
  // Length framing: {"ab","c"} != {"a","bc"}.
  util::Fingerprint ab_c;
  ab_c.mix("ab").mix("c");
  util::Fingerprint a_bc;
  a_bc.mix("a").mix("bc");
  EXPECT_NE(ab_c.digest(), a_bc.digest());
  // -0.0 hashes like +0.0 (they compare equal, so they must key equally).
  util::Fingerprint pos;
  pos.mix(0.0);
  util::Fingerprint neg;
  neg.mix(-0.0);
  EXPECT_EQ(pos.digest(), neg.digest());
}

TEST(AtomicWrite, PublishesWholeFilesAndFlagsTempNames) {
  TempStoreDir tmp;
  std::filesystem::create_directories(tmp.dir);
  const std::filesystem::path path = tmp.dir / "data.bin";
  util::write_file_atomic(path, "payload-bytes");
  EXPECT_EQ(util::read_file(path), "payload-bytes");
  util::write_file_atomic(path, "second");
  EXPECT_EQ(util::read_file(path), "second");
  EXPECT_TRUE(util::is_atomic_temp_name("data.bin.tmp-123-0"));
  EXPECT_FALSE(util::is_atomic_temp_name("data.bin"));
}

TEST(FileView, MapsAndReadsBytes) {
  TempStoreDir tmp;
  std::filesystem::create_directories(tmp.dir);
  const std::filesystem::path path = tmp.dir / "view.bin";
  util::write_file_atomic(path, "0123456789");
  const util::FileView view(path);
  EXPECT_EQ(view.bytes(), "0123456789");
}

TEST(FileLock, ExcludesAConcurrentAcquirer) {
  TempStoreDir tmp;
  std::filesystem::create_directories(tmp.dir);
  const std::filesystem::path lock_path = tmp.dir / "entry.lock";
  std::atomic<bool> second_acquired{false};
  std::thread contender;
  {
    const util::FileLock held(lock_path);
    if (!held.held()) GTEST_SKIP() << "advisory locks unavailable on this platform";
    contender = std::thread([&] {
      // flock excludes per open-file-description, so even an in-process
      // second acquirer blocks until the first lock is released.
      const util::FileLock other(lock_path);
      second_acquired.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(second_acquired.load());  // still excluded while we hold it
  }  // release
  contender.join();
  EXPECT_TRUE(second_acquired.load());
}

TEST(ArtifactFormat, TraceRoundTripsBitExact) {
  TempStoreDir tmp;
  std::filesystem::create_directories(tmp.dir);
  const carbon::CarbonTrace original = synthetic_trace();
  const std::filesystem::path path = tmp.dir / ("trace" + std::string(kArtifactExtension));
  write_artifact_file(path, ArtifactKind::kCarbonTrace, encode_trace(original));

  const Artifact artifact = read_artifact_file(path);
  EXPECT_EQ(artifact.kind, ArtifactKind::kCarbonTrace);
  const carbon::CarbonTrace loaded = decode_trace(artifact.payload);
  EXPECT_EQ(loaded.zone(), original.zone());
  ASSERT_EQ(loaded.hours(), original.hours());
  for (std::size_t h = 0; h < original.hours(); ++h) {
    // Bit-exact, not approximately equal: the store's tables must be
    // byte-identical to freshly synthesized ones.
    EXPECT_EQ(std::bit_cast<std::uint64_t>(loaded.values()[h]),
              std::bit_cast<std::uint64_t>(original.values()[h]));
  }
  ASSERT_GT(original.average_mix().total(), 0.0);
  for (std::size_t i = 0; i < carbon::kSourceCount; ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(loaded.average_mix().shares()[i]),
              std::bit_cast<std::uint64_t>(original.average_mix().shares()[i]));
  }
}

// The flag byte before the intensities once marked a trace without an
// average mix (0). No encoder writes that now, so such a blob is malformed:
// the codec throws and the trace tier loads it as a miss.
TEST(ArtifactFormat, TraceFlagZeroIsAMiss) {
  const carbon::CarbonTrace original("NoMix", {10.0, 20.5, 30.25});
  std::string payload = encode_trace(original);
  const std::size_t flag_at =
      payload.size() - (original.hours() + carbon::kSourceCount) * sizeof(double) - 1;
  ASSERT_EQ(payload[flag_at], '\1');
  EXPECT_EQ(decode_trace(payload).zone(), "NoMix");
  payload[flag_at] = '\0';
  EXPECT_THROW((void)decode_trace(payload), std::runtime_error);

  TempStoreDir tmp;
  const auto artifacts = std::make_shared<ArtifactStore>(tmp.dir);
  artifacts->save(ArtifactKind::kCarbonTrace, "flag0", payload);
  ArtifactTraceStore traces(artifacts);
  EXPECT_EQ(traces.load("flag0"), nullptr);
}

TEST(ArtifactFormat, CorruptionIsDetected) {
  TempStoreDir tmp;
  std::filesystem::create_directories(tmp.dir);
  const std::filesystem::path path = tmp.dir / ("t" + std::string(kArtifactExtension));
  write_artifact_file(path, ArtifactKind::kCarbonTrace,
                      encode_trace(carbon::CarbonTrace("Z", {1.0, 2.0})));
  ASSERT_TRUE(inspect_artifact_file(path).intact);

  // Flip one payload byte in place: the checksum must catch it.
  {
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(-1, std::ios::end);
    file.put('\xff');
  }
  EXPECT_FALSE(inspect_artifact_file(path).intact);
  EXPECT_THROW((void)read_artifact_file(path), std::runtime_error);

  // Truncation and garbage headers are caught too.
  util::write_file_atomic(path, "not an artifact");
  EXPECT_FALSE(inspect_artifact_file(path).intact);
  EXPECT_THROW((void)read_artifact_file(path), std::runtime_error);
}

TEST(ArtifactStore, SaveLoadListAndCorruptEntriesCountAsMisses) {
  TempStoreDir tmp;
  const ArtifactStore store(tmp.dir);
  EXPECT_FALSE(store.contains(ArtifactKind::kCarbonTrace, "k1"));
  EXPECT_EQ(store.load(ArtifactKind::kCarbonTrace, "k1"), std::nullopt);

  store.save(ArtifactKind::kCarbonTrace, "k1", "payload-one");
  store.save(ArtifactKind::kSiteCatalog, "k2", "payload-two");
  EXPECT_TRUE(store.contains(ArtifactKind::kCarbonTrace, "k1"));
  EXPECT_EQ(store.load(ArtifactKind::kCarbonTrace, "k1"), "payload-one");
  // A key is namespaced by kind.
  EXPECT_FALSE(store.contains(ArtifactKind::kSweepOutcome, "k1"));

  const auto entries = store.list(/*verify=*/true);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].kind, ArtifactKind::kCarbonTrace);
  EXPECT_EQ(entries[0].key, "k1");
  EXPECT_TRUE(entries[0].intact);

  // Corrupt k1: load() treats it as a miss and counts it.
  {
    std::ofstream file(store.entry_path(ArtifactKind::kCarbonTrace, "k1"),
                       std::ios::binary | std::ios::trunc);
    file << "garbage";
  }
  EXPECT_EQ(store.load(ArtifactKind::kCarbonTrace, "k1"), std::nullopt);
  EXPECT_EQ(store.corrupt_reads(), 1u);
}

TEST(ArtifactStore, GcSweepsTempLeftoversAndCorruptEntries) {
  TempStoreDir tmp;
  const ArtifactStore store(tmp.dir);
  store.save(ArtifactKind::kCarbonTrace, "good", "payload");
  const std::filesystem::path stale_tmp = tmp.dir / "traces" / "orphan.ceaf.tmp-999-0";
  const std::filesystem::path fresh_tmp = tmp.dir / "traces" / "inflight.ceaf.tmp-998-0";
  const std::filesystem::path stale_lock = tmp.dir / "locks" / "traces-dead.lock";
  const std::filesystem::path fresh_lock = tmp.dir / "locks" / "traces-live.lock";
  {  // a corrupt entry, a crashed writer's leftover, a live publish, and locks
    std::ofstream(store.entry_path(ArtifactKind::kCarbonTrace, "bad")) << "junk";
    std::ofstream(stale_tmp) << "partial";
    std::ofstream(fresh_tmp) << "in flight";
    std::ofstream(stale_lock).flush();
    std::ofstream(fresh_lock).flush();
  }
  // Backdate past the grace period; the fresh files play a concurrent
  // writer mid-publish and must survive the sweep.
  const auto stale_time = std::filesystem::file_time_type::clock::now() - std::chrono::hours(1);
  std::filesystem::last_write_time(stale_tmp, stale_time);
  std::filesystem::last_write_time(stale_lock, stale_time);

  const ArtifactStore::GcReport report = store.gc();
  EXPECT_EQ(report.removed_files, 3u);  // corrupt entry + stale temp + stale lock
  EXPECT_TRUE(store.contains(ArtifactKind::kCarbonTrace, "good"));
  EXPECT_FALSE(store.contains(ArtifactKind::kCarbonTrace, "bad"));
  EXPECT_FALSE(std::filesystem::exists(stale_tmp));
  EXPECT_TRUE(std::filesystem::exists(fresh_tmp));
  EXPECT_FALSE(std::filesystem::exists(stale_lock));
  EXPECT_TRUE(std::filesystem::exists(fresh_lock));
  EXPECT_EQ(store.list().size(), 1u);
}

// Backdate both atime and mtime (gc's LRU clock is the newer of the two).
void backdate(const std::filesystem::path& path, std::chrono::seconds age) {
  const auto stamp =
      std::chrono::system_clock::now().time_since_epoch() - age;
  ::timespec times[2];
  times[0].tv_sec = times[1].tv_sec =
      std::chrono::duration_cast<std::chrono::seconds>(stamp).count();
  times[0].tv_nsec = times[1].tv_nsec = 0;
  ASSERT_EQ(::utimensat(AT_FDCWD, path.c_str(), times, 0), 0);
}

TEST(ArtifactStore, GcMaxBytesEvictsLeastRecentlyUsedFirst) {
  TempStoreDir tmp;
  const ArtifactStore store(tmp.dir);
  store.save(ArtifactKind::kCarbonTrace, "oldest", std::string(64, 'a'));
  store.save(ArtifactKind::kSweepOutcome, "middle", std::string(64, 'b'));
  store.save(ArtifactKind::kCarbonTrace, "newest", std::string(64, 'c'));
  backdate(store.entry_path(ArtifactKind::kCarbonTrace, "oldest"), std::chrono::hours(3));
  backdate(store.entry_path(ArtifactKind::kSweepOutcome, "middle"), std::chrono::hours(2));
  backdate(store.entry_path(ArtifactKind::kCarbonTrace, "newest"), std::chrono::hours(1));
  const std::uintmax_t entry_bytes =
      std::filesystem::file_size(store.entry_path(ArtifactKind::kCarbonTrace, "oldest"));

  // Without a cap nothing intact is touched.
  const ArtifactStore::GcReport uncapped = store.gc();
  EXPECT_EQ(uncapped.evicted_files, 0u);
  EXPECT_EQ(store.list().size(), 3u);

  // The uncapped pass's integrity reads refresh atimes on strict-atime
  // mounts; restore the recency ordering under test.
  backdate(store.entry_path(ArtifactKind::kCarbonTrace, "oldest"), std::chrono::hours(3));
  backdate(store.entry_path(ArtifactKind::kSweepOutcome, "middle"), std::chrono::hours(2));
  backdate(store.entry_path(ArtifactKind::kCarbonTrace, "newest"), std::chrono::hours(1));

  // Capping at two entries' worth drops exactly the least recently used.
  const ArtifactStore::GcReport capped = store.gc(2 * entry_bytes);
  EXPECT_EQ(capped.evicted_files, 1u);
  EXPECT_EQ(capped.evicted_bytes, entry_bytes);
  EXPECT_FALSE(store.contains(ArtifactKind::kCarbonTrace, "oldest"));
  EXPECT_TRUE(store.contains(ArtifactKind::kSweepOutcome, "middle"));
  EXPECT_TRUE(store.contains(ArtifactKind::kCarbonTrace, "newest"));

  // A touched entry's LRU position refreshes (a load() does this through
  // atime on mounts that track it; force it portably): with a one-entry
  // cap "middle" survives and "newest" is evicted instead.
  backdate(store.entry_path(ArtifactKind::kCarbonTrace, "newest"), std::chrono::hours(1));
  EXPECT_TRUE(store.load(ArtifactKind::kSweepOutcome, "middle").has_value());
  backdate(store.entry_path(ArtifactKind::kSweepOutcome, "middle"), std::chrono::seconds(0));
  const ArtifactStore::GcReport tight = store.gc(entry_bytes);
  EXPECT_EQ(tight.evicted_files, 1u);
  EXPECT_TRUE(store.contains(ArtifactKind::kSweepOutcome, "middle"));
  EXPECT_FALSE(store.contains(ArtifactKind::kCarbonTrace, "newest"));
}

TEST(ArtifactStore, GcMaxBytesNeverEvictsInFlightEntries) {
  TempStoreDir tmp;
  const ArtifactStore store(tmp.dir);
  store.save(ArtifactKind::kCarbonTrace, "busy", std::string(64, 'a'));
  store.save(ArtifactKind::kCarbonTrace, "idle", std::string(64, 'b'));
  backdate(store.entry_path(ArtifactKind::kCarbonTrace, "busy"), std::chrono::hours(4));
  backdate(store.entry_path(ArtifactKind::kCarbonTrace, "idle"), std::chrono::hours(1));

  // "busy" is the LRU candidate, but a held entry lock marks it in flight;
  // eviction must fall through to the next-oldest entry instead.
  const util::FileLock in_flight = store.lock_entry(ArtifactKind::kCarbonTrace, "busy");
  if (!in_flight.held()) GTEST_SKIP() << "advisory locks unavailable on this platform";
  const ArtifactStore::GcReport report = store.gc(1);
  EXPECT_EQ(report.evicted_files, 1u);
  EXPECT_TRUE(store.contains(ArtifactKind::kCarbonTrace, "busy"));
  EXPECT_FALSE(store.contains(ArtifactKind::kCarbonTrace, "idle"));
}

TEST(ArtifactStore, OpenFromEnvRequiresTheVariable) {
  // The variable may or may not be set in the ambient environment (CI sets
  // it to exercise the L2 tier); both outcomes are valid — just verify the
  // unset case returns null rather than inventing a directory.
  const char* ambient = std::getenv("CARBONEDGE_STORE_DIR");
  if (ambient == nullptr || *ambient == '\0') {
    EXPECT_EQ(ArtifactStore::open_from_env(), nullptr);
  } else {
    EXPECT_NE(ArtifactStore::open_from_env(), nullptr);
  }
}

}  // namespace
}  // namespace carbonedge::store
