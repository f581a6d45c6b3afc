#include "carbon/trace_cache.hpp"

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/fs.hpp"
#include "util/hash.hpp"

namespace carbonedge::carbon {

namespace {

// Process-wide mirrors of the per-instance counters (dual-write): the
// instance accessors keep their exact semantics for tests and the --store
// stats line, while `carbonedge_cli metrics` enumerates the same numbers
// through the registry. All four are pure functions of the request stream,
// hence deterministic view.
struct CacheMetrics {
  obs::Counter& hits;
  obs::Counter& disk_hits;
  obs::Counter& syntheses;
  obs::Counter& lock_failures;
};

CacheMetrics& cache_metrics() {
  obs::Registry& registry = obs::Registry::global();
  static CacheMetrics metrics{
      registry.counter("carbon.trace_cache.hits", "trace lookups answered from memory (L1)",
                       obs::View::kDeterministic),
      registry.counter("carbon.trace_cache.disk_hits",
                       "trace lookups answered from the artifact store (L2)",
                       obs::View::kDeterministic),
      registry.counter("carbon.trace_cache.syntheses", "synthesizer runs (true misses)",
                       obs::View::kDeterministic),
      registry.counter("carbon.trace_cache.lock_failures",
                       "cross-process entry locks that could not be acquired",
                       obs::View::kDeterministic)};
  return metrics;
}

obs::Phase& synthesize_phase() {
  static obs::Phase phase("carbon.synthesize");
  return phase;
}

}  // namespace

std::string TraceCache::key_of(const ZoneSpec& zone, const SynthesizerParams& params) {
  util::Fingerprint fp;
  fp.mix("carbonedge/trace/v1");  // schema salt: invalidates keys if the field list changes
  fp.mix(zone.name);
  fp.mix(static_cast<std::uint64_t>(zone.city));
  fp.mix(zone.latitude_deg);
  for (const double share : zone.capacity.shares()) fp.mix(share);
  fp.mix(zone.demand_peak);
  fp.mix(zone.demand_base);
  fp.mix(params.seed);
  fp.mix(params.hours);
  fp.mix(params.cloud_persistence);
  fp.mix(params.cloud_noise);
  fp.mix(params.wind_persistence);
  fp.mix(params.wind_noise);
  fp.mix(params.demand_noise);
  fp.mix(params.nuclear_capacity_factor);
  fp.mix(params.hydro_capacity_factor);
  fp.mix(params.grid_import_fraction);
  return fp.digest().hex();
}

// TraceCache::global() is defined in src/store/trace_tier.cpp: its first-use
// attach of the CARBONEDGE_STORE_DIR store is store-layer policy, and
// defining it there keeps this translation unit free of store includes.

void TraceCache::set_store(std::shared_ptr<TraceStore> store) {
  const std::lock_guard<std::mutex> lock(mutex_);
  store_ = std::move(store);
}

std::shared_ptr<TraceStore> TraceCache::store() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return store_;
}

std::shared_ptr<const CarbonTrace> TraceCache::get(const ZoneSpec& zone,
                                                   const SynthesizerParams& params) {
  const std::string key = key_of(zone, params);
  // The lock spans the load/synthesis so a key is materialized exactly once
  // per process even under concurrent first requests. A year-long zone
  // synthesizes in about 0.8-1.4 ms (one core of a 4-vCPU x86-64 Xeon) and
  // sweeps warm the cache before fan-out, so the serialization is
  // immaterial.
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    ++hits_;
    cache_metrics().hits.add();
    return it->second;
  }

  // Decode failures (schema drift, tampering) surface from the adapter as a
  // plain nullptr miss, so a corrupt entry is re-synthesized and overwritten.
  std::shared_ptr<const CarbonTrace> trace;
  if (store_ != nullptr) {
    trace = store_->load(key);
    if (trace != nullptr) {
      ++disk_hits_;
      cache_metrics().disk_hits.add();
    } else {
      // Cross-process synthesize-once: take the entry lock, re-check (the
      // lock holder before us may have published), then compute + publish.
      // An unacquirable lock (unwritable locks/ dir) degrades to
      // at-least-once synthesis — counted, never fatal.
      const util::FileLock entry_lock = store_->lock_entry(key);
      if (!entry_lock.held()) {
        ++lock_failures_;
        cache_metrics().lock_failures.add();
      }
      trace = store_->load(key);
      if (trace != nullptr) {
        ++disk_hits_;
        cache_metrics().disk_hits.add();
      } else {
        {
          const obs::Span span(synthesize_phase());
          trace =
              std::make_shared<const CarbonTrace>(TraceSynthesizer(params).synthesize(zone));
        }
        ++syntheses_;
        cache_metrics().syntheses.add();
        // The store is a cache tier: a publish failure (disk full, lost
        // permissions) degrades this key to memory-only — the adapter
        // swallows it, it must not abort the computation that succeeded.
        store_->save(key, *trace);
      }
    }
  } else {
    {
      const obs::Span span(synthesize_phase());
      trace = std::make_shared<const CarbonTrace>(TraceSynthesizer(params).synthesize(zone));
    }
    ++syntheses_;
    cache_metrics().syntheses.add();
  }
  entries_.emplace(key, trace);
  return trace;
}

std::size_t TraceCache::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

std::uint64_t TraceCache::hits() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

std::uint64_t TraceCache::disk_hits() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return disk_hits_;
}

std::uint64_t TraceCache::syntheses() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return syntheses_;
}

std::uint64_t TraceCache::lock_failures() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return lock_failures_;
}

void TraceCache::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
  hits_ = 0;
  disk_hits_ = 0;
  syntheses_ = 0;
  lock_failures_ = 0;
}

}  // namespace carbonedge::carbon
