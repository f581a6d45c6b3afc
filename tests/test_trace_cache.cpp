#include "carbon/trace_cache.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <thread>
#include <vector>

#include "carbon/service.hpp"
#include "geo/region.hpp"
#include "store/artifact.hpp"
#include "store/artifact_store.hpp"
#include "store/trace_tier.hpp"
#include "store_test_util.hpp"

namespace carbonedge::carbon {
namespace {

struct TempStoreDir : testutil::TempStoreDir {
  TempStoreDir() : testutil::TempStoreDir("carbonedge_trace_cache_test") {}
};

ZoneSpec spec_of(const geo::Region& region, std::size_t index = 0) {
  const auto cities = region.resolve();
  return ZoneCatalog::builtin().spec_for(cities.at(index));
}

TEST(TraceCache, SameKeyReturnsSameSharedTrace) {
  TraceCache cache;
  const ZoneSpec zone = spec_of(geo::florida_region());
  const SynthesizerParams params;
  const auto first = cache.get(zone, params);
  const auto second = cache.get(zone, params);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first.get(), second.get());  // shared, not equal-by-value
  EXPECT_EQ(cache.syntheses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(TraceCache, CachedTraceMatchesDirectSynthesis) {
  TraceCache cache;
  const ZoneSpec zone = spec_of(geo::central_eu_region());
  const SynthesizerParams params;
  const CarbonTrace direct = TraceSynthesizer(params).synthesize(zone);
  const auto cached = cache.get(zone, params);
  ASSERT_EQ(cached->hours(), direct.hours());
  for (HourIndex h = 0; h < 48; ++h) {
    EXPECT_DOUBLE_EQ(cached->at(h), direct.at(h));
  }
}

TEST(TraceCache, DifferentParamsSynthesizeDistinctTraces) {
  TraceCache cache;
  const ZoneSpec zone = spec_of(geo::florida_region());
  SynthesizerParams a;
  SynthesizerParams b;
  b.seed = a.seed + 1;
  const auto trace_a = cache.get(zone, a);
  const auto trace_b = cache.get(zone, b);
  EXPECT_NE(trace_a.get(), trace_b.get());
  EXPECT_EQ(cache.syntheses(), 2u);
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(TraceCache, DifferentZonesSynthesizeDistinctTraces) {
  TraceCache cache;
  const geo::Region region = geo::florida_region();
  const auto trace_a = cache.get(spec_of(region, 0));
  const auto trace_b = cache.get(spec_of(region, 1));
  EXPECT_NE(trace_a.get(), trace_b.get());
  EXPECT_NE(trace_a->zone(), trace_b->zone());
  EXPECT_EQ(cache.syntheses(), 2u);
}

TEST(TraceCache, ConcurrentLookupsSynthesizeOncePerKey) {
  TraceCache cache;
  const geo::Region region = geo::florida_region();
  const std::vector<ZoneSpec> zones = {spec_of(region, 0), spec_of(region, 1),
                                       spec_of(region, 2)};
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kIterations = 32;
  std::vector<std::vector<std::shared_ptr<const CarbonTrace>>> seen(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < kIterations; ++i) {
        seen[t].push_back(cache.get(zones[i % zones.size()]));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  // Exactly one synthesis per distinct zone, no matter the interleaving...
  EXPECT_EQ(cache.syntheses(), zones.size());
  EXPECT_EQ(cache.size(), zones.size());
  // ... and every thread observed the same shared instance per zone.
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < kIterations; ++i) {
      EXPECT_EQ(seen[t][i].get(), seen[0][i % zones.size()].get());
    }
  }
}

TEST(TraceCache, ClearDropsEntriesButKeepsHandlesAlive) {
  TraceCache cache;
  const ZoneSpec zone = spec_of(geo::florida_region());
  const auto held = cache.get(zone);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.syntheses(), 0u);
  EXPECT_GT(held->hours(), 0u);  // the handle survives the eviction
  const auto fresh = cache.get(zone);
  EXPECT_NE(fresh.get(), held.get());  // re-synthesized after clear
}

TEST(TraceCache, ServicesOverTheSameRegionShareTraces) {
  // The tentpole guarantee: constructing many services over one region
  // synthesizes each zone's year-long series at most once per process and
  // shares the immutable trace between them.
  const geo::Region region = geo::italy_region();
  CarbonIntensityService first;
  first.add_region(region);
  const std::uint64_t syntheses_after_first = TraceCache::global().syntheses();
  CarbonIntensityService second;
  second.add_region(region);
  EXPECT_EQ(TraceCache::global().syntheses(), syntheses_after_first);  // all hits
  for (const geo::City& city : region.resolve()) {
    EXPECT_EQ(first.shared_trace(city.name).get(), second.shared_trace(city.name).get());
  }
}

TEST(TraceCache, AdHocSpecsSharingACatalogNameGetDistinctEntries) {
  // The old cache keyed on the bare zone name, so an ad-hoc spec reusing a
  // catalog name silently aliased the catalog trace. Content-hash keying
  // removes that invariant: same name, different mix => distinct entries.
  TraceCache cache;
  const ZoneSpec catalog_spec = spec_of(geo::florida_region());
  ZoneSpec adhoc = catalog_spec;
  adhoc.capacity = make_mix({{EnergySource::kCoal, 1.0}});
  const auto from_catalog = cache.get(catalog_spec);
  const auto from_adhoc = cache.get(adhoc);
  EXPECT_NE(from_catalog.get(), from_adhoc.get());
  EXPECT_EQ(cache.syntheses(), 2u);
  EXPECT_NE(from_catalog->yearly_mean(), from_adhoc->yearly_mean());
  // Equal content still shares, wherever the spec object came from.
  const ZoneSpec copy = catalog_spec;
  EXPECT_EQ(cache.get(copy).get(), from_catalog.get());
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(TraceCache, KeyOfCoversEveryField) {
  const ZoneSpec spec = spec_of(geo::florida_region());
  const SynthesizerParams params;
  const std::string base = TraceCache::key_of(spec, params);
  EXPECT_EQ(base.size(), 32u);
  EXPECT_EQ(TraceCache::key_of(spec, params), base);  // deterministic

  ZoneSpec changed = spec;
  changed.demand_peak += 0.01;
  EXPECT_NE(TraceCache::key_of(changed, params), base);
  changed = spec;
  changed.latitude_deg += 1.0;
  EXPECT_NE(TraceCache::key_of(changed, params), base);
  SynthesizerParams p2 = params;
  p2.grid_import_fraction += 0.01;
  EXPECT_NE(TraceCache::key_of(spec, p2), base);
}

TEST(TraceCache, TwoCachesShareOneStoreDirectory) {
  // The cross-process contract, exercised with two cache instances over one
  // store directory: the second "process" performs zero syntheses.
  TempStoreDir tmp;
  const ZoneSpec zone_a = spec_of(geo::italy_region(), 0);
  const ZoneSpec zone_b = spec_of(geo::italy_region(), 1);

  TraceCache first;
  first.set_store(store::make_trace_tier(std::make_shared<store::ArtifactStore>(tmp.dir)));
  const auto synthesized_a = first.get(zone_a);
  const auto synthesized_b = first.get(zone_b);
  EXPECT_EQ(first.syntheses(), 2u);
  EXPECT_EQ(first.disk_hits(), 0u);

  TraceCache second;
  second.set_store(store::make_trace_tier(std::make_shared<store::ArtifactStore>(tmp.dir)));
  const auto loaded_a = second.get(zone_a);
  const auto loaded_b = second.get(zone_b);
  EXPECT_EQ(second.syntheses(), 0u);  // exactly one synthesis per key, ever
  EXPECT_EQ(second.disk_hits(), 2u);
  // Repeat lookups stay in memory (L1), not the disk tier.
  (void)second.get(zone_a);
  EXPECT_EQ(second.hits(), 1u);
  EXPECT_EQ(second.disk_hits(), 2u);

  // Loaded series are bit-identical to the synthesized ones, average mix
  // included.
  ASSERT_EQ(loaded_a->hours(), synthesized_a->hours());
  for (std::size_t h = 0; h < loaded_a->hours(); ++h) {
    EXPECT_EQ(loaded_a->values()[h], synthesized_a->values()[h]);
  }
  ASSERT_GT(synthesized_b->average_mix().total(), 0.0);
  EXPECT_EQ(loaded_b->average_mix(), synthesized_b->average_mix());
}

TEST(TraceCache, CorruptStoreEntryIsResynthesizedAndHealed) {
  TempStoreDir tmp;
  const ZoneSpec zone = spec_of(geo::west_us_region());
  const std::string key = TraceCache::key_of(zone, {});
  auto artifacts = std::make_shared<store::ArtifactStore>(tmp.dir);

  TraceCache first;
  first.set_store(store::make_trace_tier(artifacts));
  (void)first.get(zone);
  // Scribble over the entry: the next cache must notice, re-synthesize,
  // and publish a fresh intact copy.
  artifacts->save(store::ArtifactKind::kCarbonTrace, key, "definitely not a trace payload");
  std::filesystem::resize_file(artifacts->entry_path(store::ArtifactKind::kCarbonTrace, key),
                               10);

  TraceCache second;
  second.set_store(store::make_trace_tier(artifacts));
  const auto healed = second.get(zone);
  EXPECT_EQ(second.syntheses(), 1u);
  EXPECT_EQ(second.disk_hits(), 0u);
  EXPECT_GT(healed->hours(), 0u);

  TraceCache third;
  third.set_store(store::make_trace_tier(artifacts));
  (void)third.get(zone);
  EXPECT_EQ(third.disk_hits(), 1u);  // healed entry reads back intact
}

TEST(TraceCache, SchemaOneEntryIsResynthesizedAndRewritten) {
  // A schema-1 entry (one mix per hour) under a live key, as written before
  // traces kept only their average mix. The key names the same series, so
  // it is unchanged; the payload no longer decodes and counts as a miss.
  TempStoreDir tmp;
  const ZoneSpec zone = spec_of(geo::florida_region());
  const std::string key = TraceCache::key_of(zone, {});
  const CarbonTrace direct = TraceSynthesizer().synthesize(zone);
  auto artifacts = std::make_shared<store::ArtifactStore>(tmp.dir);
  store::ByteWriter w;
  w.u32(1);
  w.str(direct.zone());
  w.u64(direct.hours());
  w.u8(1);
  for (const double v : direct.values()) w.f64(v);
  for (std::size_t i = 0; i < kSourceCount * direct.hours(); ++i) w.f64(1.0 / kSourceCount);
  artifacts->save(store::ArtifactKind::kCarbonTrace, key, w.take());

  TraceCache first;
  first.set_store(store::make_trace_tier(artifacts));
  const auto trace = first.get(zone);
  EXPECT_EQ(first.syntheses(), 1u);
  EXPECT_EQ(first.disk_hits(), 0u);
  ASSERT_EQ(trace->hours(), direct.hours());
  for (std::size_t h = 0; h < direct.hours(); ++h) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(trace->values()[h]),
              std::bit_cast<std::uint64_t>(direct.values()[h]));
  }
  EXPECT_EQ(trace->average_mix(), direct.average_mix());

  // Rewritten in place as schema 2: one entry, same key, intensities plus
  // the average only.
  const auto entries = artifacts->list(/*verify=*/true);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].key, key);
  EXPECT_TRUE(entries[0].intact);
  const auto payload = artifacts->load(store::ArtifactKind::kCarbonTrace, key);
  ASSERT_TRUE(payload.has_value());
  store::ByteReader r(*payload);
  EXPECT_EQ(r.u32(), 2u);
  EXPECT_LT(payload->size(), (direct.hours() + 64) * sizeof(double));

  TraceCache second;
  second.set_store(store::make_trace_tier(artifacts));
  EXPECT_EQ(second.get(zone)->average_mix(), direct.average_mix());
  EXPECT_EQ(second.syntheses(), 0u);
  EXPECT_EQ(second.disk_hits(), 1u);
}

TEST(TraceCache, ManuallyAddedTracesBypassTheCache) {
  // add_trace(CarbonTrace) registers ad-hoc series (tests, CSV loads)
  // without touching the process-wide cache.
  const std::uint64_t syntheses_before = TraceCache::global().syntheses();
  CarbonIntensityService service;
  service.add_trace(CarbonTrace("custom-zone", {100.0, 200.0}));
  EXPECT_EQ(TraceCache::global().syntheses(), syntheses_before);
  EXPECT_DOUBLE_EQ(service.intensity("custom-zone", 1), 200.0);
}

}  // namespace
}  // namespace carbonedge::carbon
