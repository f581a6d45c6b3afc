// Shared helpers for the benchmark harness. Every bench binary reproduces
// one table or figure of the paper, named by its file name (README.md,
// "Run"), printing the same rows/series the paper reports.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "carbon/caltime.hpp"
#include "carbon/service.hpp"
#include "carbon/trace_cache.hpp"
#include "core/policy.hpp"
#include "core/simulation.hpp"
#include "obs/export.hpp"
#include "sim/app_model.hpp"
#include "store/artifact_store.hpp"
#include "store/sweep_store.hpp"
#include "store/trace_tier.hpp"
#include "util/env.hpp"
#include "util/flags.hpp"

namespace carbonedge::bench {

inline void print_header(const std::string& id, const std::string& what) {
  std::cout << "\n================================================================\n"
            << id << " - " << what << "\n"
            << "================================================================\n";
}

inline void print_takeaway(const std::string& text) {
  std::cout << ">> " << text << "\n";
}

/// Carbon service over a region with the default calibrated synthesizer
/// (traces shared through the process-wide carbon::TraceCache).
inline carbon::CarbonIntensityService make_service(const geo::Region& region) {
  carbon::CarbonIntensityService service;
  service.add_region(region);
  return service;
}

/// CI smoke support: when CARBONEDGE_SMOKE_EPOCHS is set, cap the epoch
/// count so year-long benches exercise their full code path in seconds.
/// Returns the config unchanged when the variable is absent or 0, so
/// production runs keep the paper's horizons. A value that is not a count
/// within uint32 exits 1 with an error naming it.
inline core::SimulationConfig apply_smoke_epochs(core::SimulationConfig config) {
  const std::string env = util::env::get_or("CARBONEDGE_SMOKE_EPOCHS", "");
  if (env.empty()) return config;
  std::uint32_t cap = 0;
  try {
    cap = util::parse_flag_unsigned<std::uint32_t>(env, "CARBONEDGE_SMOKE_EPOCHS=" + env);
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    std::exit(1);
  }
  if (cap > 0) config.epochs = std::min(config.epochs, cap);
  return config;
}

/// Persistent-store warm path for the year-long benches: `--store[=DIR]`
/// (or the CARBONEDGE_STORE_DIR environment variable) attaches the on-disk
/// artifact store to the process-wide TraceCache and returns a SweepStore
/// to hand to ScenarioRunnerOptions::sweep_store. The flag is removed from
/// argv so harnesses that parse the remaining arguments (google-benchmark)
/// never see it. Returns nullptr when the store is off.
inline std::shared_ptr<store::SweepStore> init_store(int& argc, char** argv) {
  std::string dir = util::env::get_or("CARBONEDGE_STORE_DIR", "");
  if (const auto flag = util::take_flag(argc, argv, "--store")) {
    if (!flag->empty()) {
      dir = *flag;  // explicit value wins over the environment
    } else if (dir.empty()) {
      dir = ".carbonedge-store";  // bare --store (or --store=): env, else default
    }
  }
  if (dir.empty()) return nullptr;
  auto artifacts = std::make_shared<store::ArtifactStore>(dir);
  carbon::TraceCache::global().set_store(store::make_trace_tier(artifacts));
  return std::make_shared<store::SweepStore>(std::move(artifacts));
}

/// Store hit counters (printed at the end of a --store run): a warmed
/// second run reports zero syntheses — everything came from disk. A
/// degraded store (failed cell writes) is called out explicitly rather
/// than silently producing a cold next run.
inline void print_store_stats(const std::shared_ptr<store::SweepStore>& sweeps) {
  if (sweeps == nullptr) return;
  const carbon::TraceCache& cache = carbon::TraceCache::global();
  std::cout << "[store " << sweeps->artifacts()->root().string() << "] traces: "
            << cache.syntheses() << " synthesized, " << cache.disk_hits()
            << " loaded from disk, " << cache.hits() << " memory hits; sweep cells: "
            << sweeps->stores() << " computed+saved, " << sweeps->hits()
            << " resumed from disk\n";
  if (sweeps->write_failures() > 0) {
    std::cout << "[store] WARNING: " << sweeps->write_failures()
              << " cell writes failed — results were computed but not persisted\n";
  }
}

/// Parses and removes `--metrics=PATH` from argv (same contract as
/// init_store). Call write_metrics_json() with the returned path after the
/// bench has run; '-' writes the snapshot to stdout.
inline std::string init_metrics(int& argc, char** argv) {
  return util::take_flag(argc, argv, "--metrics=").value_or("");
}

/// Writes the process metrics registry (both views) as one JSON document.
/// True when `path` is empty (nothing asked) or the write succeeded; a bench
/// exits non-zero on false.
[[nodiscard]] inline bool write_metrics_json(const std::string& path) {
  return path.empty() || obs::write_snapshot(path, obs::snapshot_json());
}

/// Machine-readable bench results: `--bench-json=PATH` (stripped from argv
/// like --store, so google-benchmark never sees it) collects one row per
/// measured configuration — name, iteration count, and named counters (time
/// in ns, carbon in grams, whatever the bench reports) — and writes them as
/// one JSON document. CI uploads these as artifacts so perf and carbon
/// numbers are diffable across commits without scraping console output.
class BenchJsonWriter {
 public:
  BenchJsonWriter() = default;
  explicit BenchJsonWriter(std::string path) : path_(std::move(path)) {}

  [[nodiscard]] bool enabled() const noexcept { return !path_.empty(); }

  void add_row(std::string name, std::uint64_t iterations,
               std::vector<std::pair<std::string, double>> counters) {
    rows_.push_back({std::move(name), iterations, std::move(counters)});
  }

  /// Writes all collected rows. Idempotent; a disabled writer is a no-op.
  /// True when disabled or written; on false (after printing why) the bench
  /// exits non-zero, so a requested artifact never goes missing silently.
  [[nodiscard]] bool write() const {
    if (!enabled()) return true;
    std::FILE* out = std::fopen(path_.c_str(), "wb");
    if (out == nullptr) {
      std::cerr << "error: bench-json: cannot open " << path_ << "\n";
      return false;
    }
    std::fputs("{\"benchmarks\": [", out);
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const Row& row = rows_[i];
      std::fprintf(out, "%s\n  {\"name\": \"%s\", \"iterations\": %llu",
                   i == 0 ? "" : ",", row.name.c_str(),
                   static_cast<unsigned long long>(row.iterations));
      for (const auto& [key, value] : row.counters) {
        std::fprintf(out, ", \"%s\": %.17g", key.c_str(), value);
      }
      std::fputs("}", out);
    }
    std::fputs(rows_.empty() ? "]}\n" : "\n]}\n", out);
    const bool written = std::ferror(out) == 0;
    if (std::fclose(out) != 0 || !written) {
      std::cerr << "error: bench-json: cannot write " << path_ << "\n";
      return false;
    }
    std::cout << "[bench-json] wrote " << rows_.size() << " rows to " << path_ << "\n";
    return true;
  }

 private:
  struct Row {
    std::string name;
    std::uint64_t iterations = 0;
    std::vector<std::pair<std::string, double>> counters;
  };
  std::string path_;
  std::vector<Row> rows_;
};

/// Parses and removes `--bench-json=PATH` from argv (same contract as
/// init_store). Returns a disabled writer when the flag is absent.
inline BenchJsonWriter init_bench_json(int& argc, char** argv) {
  return BenchJsonWriter(util::take_flag(argc, argv, "--bench-json=").value_or(""));
}

/// The four evaluation policies in the paper's order (Section 6.1.3).
inline std::vector<core::PolicyConfig> evaluation_policies() {
  return {core::PolicyConfig::latency_aware(), core::PolicyConfig::energy_aware(),
          core::PolicyConfig::intensity_aware(), core::PolicyConfig::carbon_edge()};
}

/// Standard CDN simulation config (Section 6.3 setting): year-long,
/// 3-hour epochs, 20 ms RTT limit, mixed GPU inference workload.
inline core::SimulationConfig cdn_config(std::uint64_t seed = 42) {
  core::SimulationConfig config;
  config.epochs = carbon::kHoursPerYear / 3;
  config.epoch_hours = 3.0;
  config.workload.arrivals_per_site = 0.25;
  config.workload.mean_lifetime_epochs = 16.0;
  config.workload.model_weights = {1.0, 1.0, 1.0, 0.0};
  config.workload.latency_limit_rtt_ms = 20.0;
  config.workload.seed = seed;
  return config;
}

/// Regional testbed config (Section 6.2): one long-lived app per site for a
/// 24-hour day.
inline core::SimulationConfig testbed_config(sim::ModelType model) {
  core::SimulationConfig config;
  config.epochs = 24;
  config.workload.arrivals_per_site = 0.0;
  config.workload.initial_per_site = 1;
  config.workload.model_weights = {};
  config.workload.model_weights[static_cast<std::size_t>(model)] = 1.0;
  config.workload.latency_limit_rtt_ms = 25.0;
  return config;
}

}  // namespace carbonedge::bench
