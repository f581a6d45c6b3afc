// carbonedge_ledger: the performance ledger's driver. One process runs one
// workload and prints every metric as `workload metric value unit`, then one
// JSON result as its last line:
//
//   carbonedge_ledger --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                     [--smoke] [--scratch DIR] [--out FILE]
//
// Run it from the root of a checkout: the expected digests are read from
// bench/ledger/expected/.
//
// Every workload is a closed loop: the driver issues its next call into the
// library only when the previous one returned. Set-up runs several times
// cold (setup_s is the median), an untimed warm-up follows, then the timed
// part repeats back to back within --seconds of wall time. Each rep is split
// into segments (epochs, serve windows or sweep cells) that are the same in
// every rep, and epochs_per_s divides the rep's epochs by the sum of each
// segment's fastest time. All timing is driver-side, through obs::now_ns()
// around public calls, plus deltas of the process metrics registry read
// before and after each timed phase; nothing inside the library is
// instrumented for the ledger.
//
// Without --trace the result holds the end-to-end metrics. With --trace it
// holds the per-layer metrics, and the reps alternate traced (per-epoch
// timers, extra lane counts) and untraced so obs.overhead_frac can compare
// them. README.md lists every metric and what it should move.
//
// Correctness: each rep yields a digest (carbon to 17 significant digits
// plus counters) that must repeat across reps and lane counts and, at the
// default seed, match expected/<workload>.txt.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "carbon/caltime.hpp"
#include "carbon/service.hpp"
#include "carbon/synthesizer.hpp"
#include "carbon/trace_cache.hpp"
#include "core/policy.hpp"
#include "core/simulation.hpp"
#include "geo/catalog.hpp"
#include "geo/coord.hpp"
#include "geo/latency.hpp"
#include "geo/region.hpp"
#include "geo/site.hpp"
#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "runner/scenario_grid.hpp"
#include "runner/scenario_runner.hpp"
#include "serve/event_loop.hpp"
#include "serve/event_source.hpp"
#include "serve/export.hpp"
#include "sim/datacenter.hpp"
#include "sim/device.hpp"
#include "sim/workload.hpp"
#include "store/artifact_store.hpp"
#include "store/site_catalog.hpp"
#include "store/trace_tier.hpp"
#include "util/parallelism.hpp"
#include "util/random.hpp"
#include "util/stats.hpp"

using namespace carbonedge;

namespace {

// ------------------------------------------------------------ metric tables --
// The ledger's schema. BENCHMARK.json lists the same names and units, and
// `compare.py --check` verifies a result against it.

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"epochs_per_s", "epoch/s"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"solver.milp.self_s", "s"},
    {"solver.milp_nodes", "count"},
    {"solver.exact_shards", "count"},
    {"solver.exact_share", "ratio"},
    {"solver.solve.self_s", "s"},
    {"solver.heuristic_shards", "count"},
    {"solver.components", "count"},
    {"solver.solves", "count"},
    {"solver.problem_apps_mean", "apps"},
    {"core.place.self_s", "s"},
    {"core.place.calls", "count"},
    {"core.epoch_step.self_s", "s"},
    {"core.epoch_step.calls", "count"},
    {"core.step_mean_ms", "ms"},
    {"core.epoch_p50_ms", "ms"},
    {"core.epoch_p99_ms", "ms"},
    {"core.reopt_p50_ms", "ms"},
    {"core.step_plain_p50_ms", "ms"},
    {"core.step_plain_p99_ms", "ms"},
    {"util.epochs_per_s_4lane", "epoch/s"},
    {"util.lane_speedup_2", "x"},
    {"util.lane_speedup_4", "x"},
    {"util.peak_lanes", "lanes"},
    {"runner.peak_lanes", "lanes"},
    {"runner.cells_per_s", "cell/s"},
    {"carbon.syntheses", "count"},
    {"carbon.cache_hits", "count"},
    {"carbon.disk_hits", "count"},
    {"carbon.synthesize.self_s", "s"},
    {"carbon.add_region_s", "s"},
    {"store.reads", "count"},
    {"store.read_hits", "count"},
    {"store.writes", "count"},
    {"store.read.self_s", "s"},
    {"store.write.self_s", "s"},
    {"store.catalog_build_s", "s"},
    {"store.catalog_load_s", "s"},
    {"store.bytes", "B"},
    {"store.setup_cold_s", "s"},
    {"geo.latency_build_s", "s"},
    {"geo.band_entries", "count"},
    {"geo.catalog_region_s", "s"},
    {"serve.accepted", "count"},
    {"serve.dropped", "count"},
    {"serve.ingest.self_s", "s"},
    {"serve.window_flush.self_s", "s"},
    {"serve.reopt_fires", "count"},
    {"serve.events_per_s", "event/s"},
    {"sim.apps_placed", "count"},
    {"sim.apps_rejected", "count"},
    {"sim.apps_deferred", "count"},
    {"sim.migrations", "count"},
    {"sim.migrations_skipped", "count"},
    {"sim.server_failures", "count"},
    {"gen.arrivals_s", "s"},
    {"obs.overhead_frac", "ratio"},
};

/// A per-layer metric read from a registry delta; `scale` turns nanosecond
/// counters into seconds.
struct RegistryMetric {
  const char* metric;
  const char* registry;
  double scale;
};

// Deltas over one traced rep; the median over traced reps is reported.
constexpr RegistryMetric kRepRegistryMetrics[] = {
    {"solver.milp.self_s", "span.solver.milp.self_ns", 1e-9},
    {"solver.milp_nodes", "solver.milp_nodes", 1.0},
    {"solver.exact_shards", "solver.exact_shards", 1.0},
    {"solver.solve.self_s", "span.solver.solve.self_ns", 1e-9},
    {"solver.heuristic_shards", "solver.heuristic_shards", 1.0},
    {"solver.components", "solver.components", 1.0},
    {"solver.solves", "solver.solves", 1.0},
    {"core.place.self_s", "span.core.place.self_ns", 1e-9},
    {"core.place.calls", "span.core.place.calls", 1.0},
    {"core.epoch_step.self_s", "span.core.epoch_step.self_ns", 1e-9},
    {"core.epoch_step.calls", "span.core.epoch_step.calls", 1.0},
    {"serve.accepted", "serve.ingest.accepted", 1.0},
    {"serve.ingest.self_s", "span.serve.ingest.self_ns", 1e-9},
    {"serve.window_flush.self_s", "span.serve.window_flush.self_ns", 1e-9},
    {"sim.apps_placed", "sim.apps_placed", 1.0},
    {"sim.apps_rejected", "sim.apps_rejected", 1.0},
    {"sim.apps_deferred", "sim.apps_deferred", 1.0},
    {"sim.migrations", "sim.migrations", 1.0},
    {"sim.migrations_skipped", "sim.migrations_skipped", 1.0},
    {"sim.server_failures", "sim.server_failures", 1.0},
};

// The carbon and store layers work during set-up, so their deltas are taken
// over the last cold set-up pass (plus the last warm pass on catalog_1k).
constexpr RegistryMetric kSetupRegistryMetrics[] = {
    {"carbon.syntheses", "carbon.trace_cache.syntheses", 1.0},
    {"carbon.cache_hits", "carbon.trace_cache.hits", 1.0},
    {"carbon.disk_hits", "carbon.trace_cache.disk_hits", 1.0},
    {"carbon.synthesize.self_s", "span.carbon.synthesize.self_ns", 1e-9},
    {"store.reads", "store.artifact.reads", 1.0},
    {"store.read_hits", "store.artifact.read_hits", 1.0},
    {"store.writes", "store.artifact.writes", 1.0},
    {"store.read.self_s", "span.store.read.self_ns", 1e-9},
    {"store.write.self_s", "span.store.write.self_ns", 1e-9},
};

constexpr std::uint64_t kDefaultSeed = 1;
constexpr const char* kExpectedDir = "bench/ledger/expected";
constexpr int kSetupPasses = 9;
// Cold catalog set-ups write about 24 MB each, so fewer of them.
constexpr int kColdPasses = 3;
constexpr std::uint32_t kSmokeEpochs = 64;

// ------------------------------------------------------------------ helpers --

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::filesystem::path scratch = ".bench_build/ledger-scratch";
  std::string out;
};

double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(obs::now_ns() - start_ns) * 1e-9;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Lanes of a "4-lane" run: never more than the configured worker budget
/// (CARBONEDGE_THREADS, which run.sh caps at nproc).
std::size_t wide_lanes() { return std::min<std::size_t>(4, util::configured_thread_count()); }

/// Pins the calling thread to one of its allowed CPUs while alive, taking
/// the CPUs in turn across instances, then restores the old mask. Serial
/// reps and set-up passes rotate this way because a single-threaded process
/// otherwise stays on one CPU, and on a shared host one CPU ran 47% slower
/// than another within the same minute; over rotating reps, the fastest
/// segment times no longer depend on where the scheduler put the process.
/// Only serial work may run pinned: thread pools created inside would
/// inherit the mask.
class RotatingPin {
 public:
  RotatingPin() {
    if (sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
    static int turn = 0;
    int skip = turn++ % std::max(1, CPU_COUNT(&saved_));
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &saved_) || skip-- > 0) continue;
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
      return;
    }
  }
  ~RotatingPin() {
    if (pinned_) sched_setaffinity(0, sizeof saved_, &saved_);
  }
  RotatingPin(const RotatingPin&) = delete;
  RotatingPin& operator=(const RotatingPin&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

/// Registry values by name; a histogram contributes `<name>.count` and
/// `<name>.sum`.
using Snapshot = std::map<std::string, double>;

Snapshot snapshot() {
  Snapshot values;
  obs::Registry::global().visit([&](const obs::MetricRef& metric) {
    const std::string name(metric.name);
    if (metric.counter != nullptr) {
      values[name] = static_cast<double>(metric.counter->value());
    } else if (metric.gauge != nullptr) {
      values[name] = metric.gauge->value();
    } else if (metric.histogram != nullptr) {
      values[name + ".count"] = static_cast<double>(metric.histogram->count());
      values[name + ".sum"] = metric.histogram->sum();
    }
  });
  return values;
}

double delta(const Snapshot& before, const Snapshot& after, const std::string& name) {
  const auto a = before.find(name);
  const auto b = after.find(name);
  return (b == after.end() ? 0.0 : b->second) - (a == before.end() ? 0.0 : a->second);
}

std::string format_g17(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

/// One digest line per simulation outcome: everything a correct run must
/// reproduce bit for bit, and nothing that depends on wall time.
std::string outcome_digest(std::string_view label, const core::SimulationResult& r) {
  std::ostringstream line;
  line << label << " carbon_g=" << format_g17(r.telemetry.total_carbon_g())
       << " energy_wh=" << format_g17(r.telemetry.total_energy_wh())
       << " rtt_ms=" << format_g17(r.telemetry.mean_rtt_ms()) << " placed=" << r.apps_placed
       << " rejected=" << r.apps_rejected << " deferred=" << r.apps_deferred
       << " expired=" << r.apps_expired_deferred << " migrations=" << r.migrations
       << " skipped=" << r.migrations_skipped << " failures=" << r.server_failures;
  return line.str();
}

/// The solver's deterministic-view counters over one rep.
std::string solver_digest(const Snapshot& before, const Snapshot& after) {
  std::ostringstream line;
  line << "solver";
  for (const char* name : {"solves", "components", "exact_shards", "flow_shards",
                           "heuristic_shards", "unplaceable_apps", "milp_nodes"}) {
    line << ' ' << name << '=' << format_g17(delta(before, after, std::string("solver.") + name));
  }
  return line.str();
}

/// Collects metric values, operation counts and failed checks, and prints
/// the result.
class Report {
 public:
  explicit Report(const Options& options) : options_(&options) {}

  void set(const std::string& metric, double value) { values_[metric] = value; }
  void add(const std::string& metric, double value) { values_[metric] += value; }
  void sample(const std::string& metric, double value) { samples_[metric].push_back(value); }
  [[nodiscard]] double get(const std::string& metric) const {
    const auto it = values_.find(metric);
    return it == values_.end() ? 0.0 : it->second;
  }

  /// Records `units` attempted operations; when `ok` is false they all
  /// count as failed and `what` is reported.
  void operations(std::uint64_t units, bool ok, const std::string& what) {
    attempted_ += units;
    if (ok) return;
    failed_ += units;
    problems_.push_back(what);
  }
  void check(bool ok, const std::string& what) { operations(0, ok, what); }

  /// Set-up layers: registry deltas of one set-up pass, summed over calls.
  void setup_layers(const Snapshot& before, const Snapshot& after) {
    for (const RegistryMetric& m : kSetupRegistryMetrics) {
      add(m.metric, delta(before, after, m.registry) * m.scale);
    }
  }

  /// Rep layers: registry deltas of one traced rep.
  void rep_layers(const Snapshot& before, const Snapshot& after) {
    for (const RegistryMetric& m : kRepRegistryMetrics) {
      sample(m.metric, delta(before, after, m.registry) * m.scale);
    }
    const auto ratio = [&](const char* num, const char* den, double scale) {
      const double d = delta(before, after, den);
      return d > 0.0 ? delta(before, after, num) * scale / d : 0.0;
    };
    sample("solver.exact_share", ratio("solver.exact_shards", "solver.components", 1.0));
    sample("solver.problem_apps_mean",
           ratio("solver.problem_apps.sum", "solver.problem_apps.count", 1.0));
    sample("core.step_mean_ms",
           ratio("span.core.epoch_step.total_ns", "span.core.epoch_step.calls", 1e-6));
    sample("serve.dropped", delta(before, after, "serve.ingest.dropped_overflow") +
                                delta(before, after, "serve.ingest.dropped_stale"));
  }

  /// Checks one rep's digest (covering `units` operations): equal to the
  /// first rep's, and at the default seed equal to the checked-in one.
  void digest(const std::vector<std::string>& lines, std::uint64_t units) {
    if (reference_.empty()) {
      reference_ = lines;
      for (const std::string& line : lines) std::cout << "digest " << line << "\n";
      load_expected();
    }
    if (lines != reference_) {
      operations(units, false, "digest differs from the first rep's");
    } else {
      operations(units, !expected_ || *expected_ == lines,
                 "digest differs from " + expected_path().string());
    }
  }
  /// A digest that must equal the first rep's (another lane count).
  void same_digest(const std::vector<std::string>& lines, std::uint64_t units,
                   const std::string& what) {
    operations(units, lines == reference_, what + " digest differs from the first rep's");
  }

  /// Prints the active metric table, then the JSON result as the last line.
  void emit(std::ostream& out) {
    for (const auto& [metric, values] : samples_) set(metric, util::median(values));
    const MetricSpec* begin = options_->trace ? std::begin(kPerLayer) : std::begin(kEndToEnd);
    const MetricSpec* end = options_->trace ? std::end(kPerLayer) : std::end(kEndToEnd);
    std::ostringstream metrics;
    for (const MetricSpec* spec = begin; spec != end; ++spec) {
      double value = get(spec->name);
      if (!std::isfinite(value)) {
        problems_.push_back(std::string("metric ") + spec->name + " is not finite");
        value = 0.0;
      }
      out << options_->workload << ' ' << spec->name << ' ' << format_g17(value) << ' '
          << spec->unit << "\n";
      metrics << (spec == begin ? "" : ", ") << '"' << spec->name
              << "\": {\"value\": " << format_g17(value) << ", \"unit\": \"" << spec->unit
              << "\"}";
    }
    const std::string result = "{\"correct\": " + std::string(correct() ? "true" : "false") +
                               ", \"attempted\": " + std::to_string(attempted_) +
                               ", \"failed\": " + std::to_string(failed_) +
                               ", \"metrics\": {" + metrics.str() + "}}";
    if (!options_->out.empty()) {
      std::ofstream file(options_->out, std::ios::app);
      file << "{\"workload\": \"" << options_->workload << "\", \"seed\": " << options_->seed
           << ", \"trace\": " << (options_->trace ? 1 : 0)
           << ", \"smoke\": " << (options_->smoke ? "true" : "false")
           << ", \"threads\": " << util::configured_thread_count()
           << ", \"nproc\": " << std::thread::hardware_concurrency() << ", \"compiler\": \""
           << __VERSION__ << "\", \"result\": " << result << "}\n";
      if (!file) throw std::runtime_error("cannot append to " + options_->out);
    }
    for (const std::string& what : problems_) {
      std::cerr << "ledger: " << options_->workload << ": CHECK FAILED: " << what << "\n";
    }
    out << result << std::endl;
  }

  [[nodiscard]] bool correct() const { return problems_.empty(); }

 private:
  [[nodiscard]] std::filesystem::path expected_path() const {
    return std::filesystem::path(kExpectedDir) / (options_->workload + ".txt");
  }

  // Only the default seed's full-length digest is checked in.
  void load_expected() {
    if (options_->seed != kDefaultSeed || options_->smoke) return;
    std::ifstream file(expected_path());
    if (!file) {
      check(false, "missing expected digest " + expected_path().string());
      return;
    }
    expected_.emplace();
    for (std::string line; std::getline(file, line);) {
      if (!line.empty() && line.front() != '#') expected_->push_back(line);
    }
  }

  const Options* options_;
  std::map<std::string, double> values_;
  std::map<std::string, std::vector<double>> samples_;
  std::vector<std::string> reference_;
  std::optional<std::vector<std::string>> expected_;
  std::vector<std::string> problems_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Runs a set-up `pass` (which returns its own timed seconds) several times
/// and returns the median. The registry deltas of the last pass feed the
/// set-up layer metrics.
template <typename Pass>
double median_setup(const Options& options, Report& report, Pass&& pass,
                    int passes = kSetupPasses) {
  if (options.smoke) passes = 1;
  std::vector<double> seconds;
  for (int i = 0; i < passes; ++i) {
    const RotatingPin pin;
    const Snapshot before = snapshot();
    seconds.push_back(pass());
    if (i + 1 == passes) report.setup_layers(before, snapshot());
  }
  return util::median(seconds);
}

/// The closed loop: calls rep(traced) back to back while the next rep, as
/// long as the longest one so far, still ends within --seconds of wall time
/// (once in smoke mode). With --trace the reps alternate traced and
/// untraced, at least one of each.
template <typename Rep>
void repeat(const Options& options, Rep&& rep) {
  const std::uint64_t start = obs::now_ns();
  const std::size_t min_reps = options.trace ? 2 : 1;
  double longest = 0.0;
  for (std::size_t n = 0;; ++n) {
    if (n >= min_reps && (options.smoke || seconds_since(start) + longest > options.seconds)) {
      break;
    }
    const std::uint64_t t0 = obs::now_ns();
    rep(options.trace && n % 2 == 0);
    longest = std::max(longest, seconds_since(t0));
  }
}

/// Rep wall times, split by whether the rep was traced.
struct RepTimes {
  std::vector<double> all;
  std::vector<double> traced;
  std::vector<double> untraced;

  void add(double seconds, bool was_traced) {
    all.push_back(seconds);
    (was_traced ? traced : untraced).push_back(seconds);
  }
  /// How much longer a traced rep takes than an untraced one.
  void record_overhead(Report& report) const {
    if (traced.empty() || untraced.empty()) return;
    report.set("obs.overhead_frac", util::median(traced) / util::median(untraced) - 1.0);
  }
};

/// Splits a rep into segments at obs::now_ns() marks: lap() closes the
/// segment since the previous mark.
class Laps {
 public:
  Laps() : start_(obs::now_ns()), mark_(start_) {}
  void lap() {
    const std::uint64_t now = obs::now_ns();
    seconds_.push_back(static_cast<double>(now - mark_) * 1e-9);
    mark_ = now;
  }
  [[nodiscard]] std::uint64_t mark() const { return mark_; }
  /// From construction to the last lap.
  [[nodiscard]] double total() const { return static_cast<double>(mark_ - start_) * 1e-9; }
  [[nodiscard]] const std::vector<double>& seconds() const { return seconds_; }

 private:
  std::uint64_t start_;
  std::uint64_t mark_;
  std::vector<double> seconds_;
};

/// The fastest time of every segment (epoch, serve window or sweep cell)
/// over all reps: the end-to-end throughput estimate is the work of one rep
/// over the sum of these. Every rep runs the same input through the same
/// segments, and other tenants of a shared host only ever slow a segment
/// down, so this filters contention at the grain of a segment (about a
/// millisecond for an epoch) where the fastest whole rep filters it only at
/// the grain of seconds. On dense_cell at one seed, six processes spread
/// 3% this way against 7% for the fastest rep and 11% for the median rep.
class FastestSegments {
 public:
  void add(const std::vector<double>& seconds) {
    if (fastest_.empty()) {
      fastest_ = seconds;
      return;
    }
    if (seconds.size() != fastest_.size()) {
      throw std::runtime_error("a rep ran " + std::to_string(seconds.size()) +
                               " segments, the first one " + std::to_string(fastest_.size()));
    }
    for (std::size_t i = 0; i < seconds.size(); ++i) {
      fastest_[i] = std::min(fastest_[i], seconds[i]);
    }
  }
  [[nodiscard]] double total() const {
    return std::accumulate(fastest_.begin(), fastest_.end(), 0.0);
  }

 private:
  std::vector<double> fastest_;
};

/// Lane scaling, from traced reps: the serial rep against the same work at
/// 2 lanes and at wide_lanes().
struct LaneScaling {
  std::vector<double> serial;
  std::vector<double> two;
  std::vector<double> wide;

  void record(Report& report, double epochs) const {
    if (serial.empty() || wide.empty()) return;
    report.set("util.epochs_per_s_4lane", epochs / util::median(wide));
    report.set("util.lane_speedup_4", util::median(serial) / util::median(wide));
    if (!two.empty()) report.set("util.lane_speedup_2", util::median(serial) / util::median(two));
  }
};

/// Year-long CDN setting (paper Section 6.3): 3-hour epochs, 20 ms RTT SLO,
/// a mixed GPU inference workload.
core::SimulationConfig cdn_config(const Options& options) {
  core::SimulationConfig config;
  config.epochs = options.smoke ? kSmokeEpochs : carbon::kHoursPerYear / 3;
  config.epoch_hours = 3.0;
  config.workload.arrivals_per_site = 0.25;
  config.workload.mean_lifetime_epochs = 16.0;
  config.workload.model_weights = {1.0, 1.0, 1.0, 0.0};
  config.workload.latency_limit_rtt_ms = 20.0;
  config.workload.seed = options.seed;
  return config;
}

/// The same config cut to the warm-up horizon.
core::SimulationConfig warm_up_config(core::SimulationConfig config) {
  config.epochs = std::min(config.epochs, kSmokeEpochs);
  return config;
}

/// Per-epoch timings of driver-stepped runs (SimulationEngine::step, with
/// WorkloadGenerator::arrivals timed apart).
struct StepTimes {
  std::vector<double> plain_ms;
  std::vector<double> reopt_ms;
  double arrivals_s = 0.0;

  void record(Report& report) const {
    std::vector<double> all = plain_ms;
    all.insert(all.end(), reopt_ms.begin(), reopt_ms.end());
    report.set("core.epoch_p50_ms", util::percentile(all, 50.0));
    report.set("core.epoch_p99_ms", util::percentile(all, 99.0));
    report.set("core.reopt_p50_ms", util::percentile(reopt_ms, 50.0));
    report.set("core.step_plain_p50_ms", util::percentile(plain_ms, 50.0));
    report.set("core.step_plain_p99_ms", util::percentile(plain_ms, 99.0));
  }
};

/// Every arrival is rejected, expires while deferred, or is placed at least
/// once (apps_placed also counts re-placements of live apps, so it is a
/// lower bound, not an equality).
bool accounts_for(std::uint64_t arrivals, const core::SimulationResult& r) {
  const std::uint64_t unplaced = r.apps_rejected + r.apps_expired_deferred;
  return unplaced <= arrivals && arrivals <= r.apps_placed + unplaced;
}

/// One driver-stepped run: its digest, wall time, segments (engine
/// construction, each epoch, finish) and registry window.
struct SteppedRun {
  std::vector<std::string> digest;
  double seconds = 0.0;
  std::vector<double> segments;
  bool conserves = false;
  Snapshot before;
  Snapshot after;
};

/// Steps one run through a fresh SimulationEngine exactly as
/// EdgeSimulation::run does, leasing lanes from `budget`. With `times` set,
/// the arrivals and step calls of every epoch are also timed apart.
SteppedRun step_run(const core::EdgeSimulation& simulation,
                    const core::SimulationConfig& config, util::ParallelismBudget& budget,
                    StepTimes* times) {
  SteppedRun run;
  run.before = snapshot();
  Laps laps;
  core::SimulationEngine engine(simulation.pristine_cluster(), simulation.carbon_service(),
                                simulation.latency(), config, &budget);
  sim::WorkloadGenerator generator(config.workload, engine.cluster());
  laps.lap();
  std::uint64_t arrivals = 0;
  for (std::uint32_t epoch = 0; epoch < config.epochs; ++epoch) {
    const std::uint64_t t0 = laps.mark();
    std::vector<sim::Application> batch = generator.arrivals(epoch);
    arrivals += batch.size();
    const std::uint64_t t1 = times != nullptr ? obs::now_ns() : 0;
    engine.step(std::move(batch));
    laps.lap();
    if (times == nullptr) continue;
    times->arrivals_s += static_cast<double>(t1 - t0) * 1e-9;
    const bool reopt = epoch != 0 && config.reoptimize_every != 0 &&
                       epoch % config.reoptimize_every == 0;
    (reopt ? times->reopt_ms : times->plain_ms)
        .push_back(static_cast<double>(laps.mark() - t1) * 1e-6);
  }
  const core::SimulationResult result = engine.finish();
  laps.lap();
  run.seconds = laps.total();
  run.segments = laps.seconds();
  run.after = snapshot();
  run.digest = {outcome_digest("run", result), solver_digest(run.before, run.after)};
  run.conserves = accounts_for(arrivals, result);
  return run;
}

/// Stored latency pairs (a dense provider stores all n^2).
double latency_entries(const geo::LatencyProvider& latency) {
  double entries = 0.0;
  for (std::size_t i = 0; i < latency.size(); ++i) {
    const std::size_t n = latency.neighbors(i).size();
    entries += static_cast<double>(n == 0 ? latency.size() : n);
  }
  return entries;
}

/// EdgeSimulation construction (cluster copy + latency provider), timed.
std::unique_ptr<core::EdgeSimulation> build_simulation(
    Report& report, sim::EdgeCluster cluster, const carbon::CarbonIntensityService& service,
    double band_ms = 0.0) {
  const std::uint64_t t0 = obs::now_ns();
  auto simulation = std::make_unique<core::EdgeSimulation>(std::move(cluster), service,
                                                           geo::LatencyModel{}, band_ms);
  report.set("geo.latency_build_s", seconds_since(t0));
  report.set("geo.band_entries", latency_entries(simulation->latency()));
  return simulation;
}

/// CarbonIntensityService::add_region, timed (summed within a pass).
void add_region(Report& report, carbon::CarbonIntensityService& service,
                const geo::Region& region, const carbon::SynthesizerParams& params = {}) {
  const std::uint64_t t0 = obs::now_ns();
  service.add_region(region, params);
  report.add("carbon.add_region_s", seconds_since(t0));
}

/// Set-up of the CDN-US workloads (median of cold passes): year-long traces
/// for the 40 zones into `service`, the A2 cluster and its dense latency
/// matrix.
std::unique_ptr<core::EdgeSimulation> cdn_us_setup(const Options& options, Report& report,
                                                   carbon::CarbonIntensityService& service,
                                                   std::size_t servers_per_site) {
  const geo::Region region = geo::cdn_region(geo::Continent::kNorthAmerica, 40);
  std::unique_ptr<core::EdgeSimulation> simulation;
  report.set("setup_s", median_setup(options, report, [&] {
               carbon::TraceCache::global().clear();
               report.set("carbon.add_region_s", 0.0);
               simulation.reset();
               service = carbon::CarbonIntensityService{};
               const std::uint64_t t0 = obs::now_ns();
               add_region(report, service, region);
               simulation = build_simulation(
                   report,
                   sim::make_uniform_cluster(region, servers_per_site, sim::DeviceType::kA2),
                   service);
               return seconds_since(t0);
             }));
  return simulation;
}

// ---------------------------------------------------------------- workloads --

/// cdn_sweep: 16 year-long cells through ScenarioRunner. Many small cells,
/// so runner dispatch, engine step overhead and small MILPs dominate.
void cdn_sweep(const Options& options, Report& report) {
  const std::vector<geo::Region> regions = {geo::cdn_region(geo::Continent::kNorthAmerica, 40),
                                            geo::cdn_region(geo::Continent::kEurope, 40)};
  const std::vector<core::PolicyConfig> policies = {
      core::PolicyConfig::latency_aware(), core::PolicyConfig::energy_aware(),
      core::PolicyConfig::intensity_aware(), core::PolicyConfig::carbon_edge()};
  const std::vector<std::uint64_t> seeds = {options.seed, options.seed + 1};

  // Set-up: cold year-long traces for the 80 zones. The runner's own
  // services then hit the warm trace cache in every rep.
  report.set("setup_s", median_setup(options, report, [&] {
               carbon::TraceCache::global().clear();
               report.set("carbon.add_region_s", 0.0);
               const std::uint64_t t0 = obs::now_ns();
               for (const geo::Region& region : regions) {
                 carbon::CarbonIntensityService service;
                 add_region(report, service, region);
               }
               return seconds_since(t0);
             }));

  const auto make_grid = [&](core::SimulationConfig base) {
    runner::ScenarioGrid grid(std::move(base));
    grid.with_regions(regions).with_policies(policies).with_workload_seeds(seeds);
    return grid;
  };
  const runner::ScenarioGrid grid = make_grid(cdn_config(options));
  const std::vector<runner::Scenario> cells = grid.expand();
  // Timed reps sweep serially, one ScenarioRunner::run call per cell, so
  // each cell is a segment: at 4 lanes on a shared host the sweep's time
  // depends on the other tenants' load on all CPUs at once. Traced reps add
  // the whole grid at wide_lanes(), the lane-scaling and runner metrics.
  util::ParallelismBudget budget(wide_lanes());
  util::ParallelismBudget serial_budget(1);
  const runner::ScenarioRunner sweep(runner::ScenarioRunnerOptions{.budget = &budget});
  const runner::ScenarioRunner serial_sweep(
      runner::ScenarioRunnerOptions{.budget = &serial_budget});
  if (!options.smoke) (void)serial_sweep.run(make_grid(warm_up_config(cdn_config(options))));

  struct Sweep {
    std::vector<runner::ScenarioOutcome> outcomes;
    std::vector<std::string> digest;
    double seconds = 0.0;
    std::vector<double> segments;
    Snapshot before;
    Snapshot after;
  };
  const auto digest_sweep = [](Sweep& out) {
    for (const runner::ScenarioOutcome& outcome : out.outcomes) {
      out.digest.push_back(outcome_digest(outcome.scenario.label, outcome.result));
    }
    out.digest.push_back(solver_digest(out.before, out.after));
  };
  const auto serial_cells = [&] {
    Sweep out;
    out.before = snapshot();
    {
      const RotatingPin pin;
      Laps laps;
      for (const runner::Scenario& cell : cells) {
        std::vector<runner::ScenarioOutcome> one = serial_sweep.run(std::vector{cell});
        laps.lap();
        out.outcomes.push_back(std::move(one.front()));
      }
      out.seconds = laps.total();
      out.segments = laps.seconds();
    }
    out.after = snapshot();
    digest_sweep(out);
    return out;
  };
  const auto wide_sweep = [&] {
    Sweep out;
    out.before = snapshot();
    const std::uint64_t t0 = obs::now_ns();
    out.outcomes = sweep.run(grid);
    out.seconds = seconds_since(t0);
    out.after = snapshot();
    digest_sweep(out);
    return out;
  };

  RepTimes reps;
  FastestSegments segments;
  LaneScaling lanes;
  repeat(options, [&](bool traced) {
    const Sweep run = serial_cells();
    const std::vector<runner::ScenarioOutcome>& outcomes = run.outcomes;
    reps.add(run.seconds, traced);
    segments.add(run.segments);
    report.digest(run.digest, outcomes.size());
    // The paper's claim, per (region, seed): CarbonEdge emits less than
    // Latency-aware on the same workload. Seeds expand innermost.
    for (std::size_t r = 0; r < regions.size(); ++r) {
      for (std::size_t s = 0; s < seeds.size(); ++s) {
        const std::size_t first = r * policies.size() * seeds.size() + s;
        const runner::ScenarioOutcome& latency_aware = outcomes[first];
        const runner::ScenarioOutcome& carbon_edge = outcomes[first + 3 * seeds.size()];
        report.check(carbon_edge.result.telemetry.total_carbon_g() <
                         latency_aware.result.telemetry.total_carbon_g(),
                     "CarbonEdge does not beat Latency-aware in " + carbon_edge.scenario.label);
      }
    }
    if (!traced) return;
    report.rep_layers(run.before, run.after);
    const Sweep wide = wide_sweep();
    lanes.serial.push_back(run.seconds);
    lanes.wide.push_back(wide.seconds);
    report.same_digest(wide.digest, outcomes.size(), "wide sweep");
  });
  // Untraced runs still check lane-count invariance once per process.
  if (lanes.wide.empty()) {
    report.same_digest(wide_sweep().digest, cells.size(), "wide sweep");
  }

  const double cell_epochs = static_cast<double>(cells.size()) * grid.base().epochs;
  report.set("epochs_per_s", cell_epochs / segments.total());
  if (!lanes.wide.empty()) {
    report.set("runner.cells_per_s", static_cast<double>(cells.size()) / util::median(lanes.wide));
  }
  report.set("runner.peak_lanes", static_cast<double>(budget.peak_lanes()));
  report.set("util.peak_lanes", static_cast<double>(budget.peak_lanes()));
  lanes.record(report, cell_epochs);
  reps.record_overhead(report);
}

/// dense_cell: one heavy year-long cell stepped by the driver. The only
/// workload where failures, the migration veto and MILP-heavy deferral
/// bursts all run, so it shows tail epochs and what lanes buy.
void dense_cell(const Options& options, Report& report) {
  carbon::CarbonIntensityService service;
  const std::unique_ptr<core::EdgeSimulation> simulation =
      cdn_us_setup(options, report, service, /*servers_per_site=*/2);

  core::SimulationConfig config = cdn_config(options);
  config.workload.arrivals_per_site = 1.0;
  config.workload.mean_lifetime_epochs = 24.0;
  config.workload.max_defer_epochs = 8;
  config.reoptimize_every = 64;
  config.migration.cost_aware = true;
  config.failures.mtbf_epochs = 2000.0;
  // A tighter B&B node budget than the default 5000. At 5000 a handful of
  // shards that exhaust it decide a seed's run time: over seeds 1-10 a
  // year's nodes ranged 37k-75k and throughput spread 17% (quartiles over
  // median), which buries any change of the code under the choice of seed.
  // At 500 the spread is 7%, and deferral bursts still reach the MILP.
  config.solver_options.milp.max_nodes = 500;

  // Timed reps run serially: at 4 lanes this cell is slower and its rep
  // times spread twice as wide, so lanes are measured in traced reps only.
  util::ParallelismBudget serial_budget(1);
  util::ParallelismBudget two_budget(std::min<std::size_t>(2, wide_lanes()));
  util::ParallelismBudget wide_budget(wide_lanes());
  if (!options.smoke) (void)step_run(*simulation, warm_up_config(config), serial_budget, nullptr);

  RepTimes reps;
  FastestSegments segments;
  StepTimes times;
  LaneScaling lanes;
  repeat(options, [&](bool traced) {
    const SteppedRun run = [&] {
      const RotatingPin pin;
      return step_run(*simulation, config, serial_budget, traced ? &times : nullptr);
    }();
    reps.add(run.seconds, traced);
    segments.add(run.segments);
    report.digest(run.digest, config.epochs);
    report.check(run.conserves, "arrivals do not reconcile");
    if (!traced) return;
    report.rep_layers(run.before, run.after);
    report.sample("gen.arrivals_s", times.arrivals_s);
    times.arrivals_s = 0.0;
    const SteppedRun two = step_run(*simulation, config, two_budget, nullptr);
    const SteppedRun wide = step_run(*simulation, config, wide_budget, nullptr);
    lanes.serial.push_back(run.seconds);
    lanes.two.push_back(two.seconds);
    lanes.wide.push_back(wide.seconds);
    report.same_digest(two.digest, config.epochs, "2-lane");
    report.same_digest(wide.digest, config.epochs, "wide");
  });
  // Untraced runs still check lane-count invariance once per process.
  if (lanes.wide.empty()) {
    report.same_digest(step_run(*simulation, config, wide_budget, nullptr).digest, config.epochs,
                       "wide");
  }

  report.set("epochs_per_s", config.epochs / segments.total());
  times.record(report);
  lanes.record(report, config.epochs);
  report.set("util.peak_lanes", static_cast<double>(wide_budget.peak_lanes()));
  reps.record_overhead(report);
}

/// Keeps nothing but the time of every write. The window exporter writes
/// once per closed window (twice for the first, with the header), so the
/// times split a replay into per-window segments.
class LapSink final : public serve::ByteSink {
 public:
  explicit LapSink(Laps& laps) : laps_(&laps) {}
  [[nodiscard]] bool write(std::string_view /*line*/) override {
    laps_->lap();
    return true;
  }

 private:
  Laps* laps_;
};

/// serve_replay: the year-long CDN-US workload replayed as events through
/// serve::EventLoop, with an EMA trigger deciding re-optimization. The only
/// workload through ingest, windowing and EMA triggers.
void serve_replay(const Options& options, Report& report) {
  carbon::CarbonIntensityService service;
  const std::unique_ptr<core::EdgeSimulation> simulation =
      cdn_us_setup(options, report, service, /*servers_per_site=*/1);

  serve::ServeConfig config;
  config.sim = cdn_config(options);
  config.sim.policy = core::PolicyConfig::carbon_edge();
  config.window_epochs = 8;  // one window per simulated day
  // Re-optimize when the load-weighted intensity EMA (g/kWh) rises through
  // the fire level; it re-arms once the EMA falls back below the re-arm
  // level. The daily EMA spans roughly 212-247 over the year, and these
  // levels make it fire 18-21 times on seeds 1, 2, 3, 7 and 11.
  config.ema_reopt.enabled = true;
  config.ema_reopt.alpha = 0.75;
  config.ema_reopt.intensity = {.enabled = true, .fire = 230.0, .rearm = 226.0};

  // One replay. A serial one holds every spare lane of the process budget
  // (EventLoop takes no injected budget), so its engine and solver get one
  // lane: at 4 lanes this small-batch engine is about twice as slow and far
  // noisier, so lanes are measured in traced reps only. Every replay exports
  // its windows, to a sink that only marks the time.
  struct Replay {
    serve::ServeResult result;
    std::vector<std::string> digest;
    double seconds = 0.0;
    std::vector<double> segments;
    Snapshot before;
    Snapshot after;
  };
  util::ParallelismBudget& process = util::global_budget();
  const auto replay = [&](const serve::ServeConfig& serve_config, bool serial) {
    util::ParallelismBudget::Lease hold;
    std::optional<RotatingPin> pin;
    if (serial) {
      hold = process.acquire(process.total());
      pin.emplace();
    }
    serve::TraceReplaySource source(serve_config.sim.workload, simulation->pristine_cluster(),
                                    serve_config.sim.epochs, serve_config.sim.epoch_hours);
    serve::EventLoop loop(*simulation, serve_config);
    Replay out;
    out.before = snapshot();
    {
      Laps laps;
      LapSink sink(laps);
      serve::WindowCsvExporter exporter(sink);
      out.result = loop.run(source, &exporter);
      laps.lap();
      out.seconds = laps.total();
      out.segments = laps.seconds();
    }
    out.after = snapshot();
    const serve::ServeResult& r = out.result;
    std::ostringstream line;
    line << "serve accepted=" << r.ingest.accepted << " dropped=" << r.ingest.dropped()
         << " windows=" << r.windows.size() << " reopt_fires=" << r.reopt_fires;
    out.digest = {outcome_digest("replay", r.sim), line.str(),
                  solver_digest(out.before, out.after)};
    return out;
  };
  if (!options.smoke) {
    serve::ServeConfig warm = config;
    warm.sim = warm_up_config(config.sim);
    (void)replay(warm, true);
  }

  RepTimes reps;
  FastestSegments segments;
  LaneScaling lanes;
  std::vector<double> events_per_s;
  repeat(options, [&](bool traced) {
    const Replay run = replay(config, true);
    const serve::ServeResult& result = run.result;
    const std::uint64_t events = result.ingest.accepted + result.ingest.dropped();
    reps.add(run.seconds, traced);
    segments.add(run.segments);
    events_per_s.push_back(static_cast<double>(result.ingest.accepted) / run.seconds);
    report.set("serve.reopt_fires", static_cast<double>(result.reopt_fires));
    report.digest(run.digest, events);
    report.check(result.ingest.dropped() == 0, "ingest dropped events");
    report.check(accounts_for(result.ingest.accepted, result.sim),
                 "accepted events do not reconcile");
    report.check(options.smoke || result.reopt_fires >= 10,
                 "EMA trigger fired fewer than 10 times");
    if (!traced) return;
    report.rep_layers(run.before, run.after);
    const Replay wide = replay(config, false);
    lanes.serial.push_back(run.seconds);
    lanes.wide.push_back(wide.seconds);
    report.same_digest(wide.digest, events, "wide");
  });

  report.set("epochs_per_s", config.sim.epochs / segments.total());
  report.set("serve.events_per_s", util::median(events_per_s));
  lanes.record(report, config.sim.epochs);
  reps.record_overhead(report);
}

/// A synthetic site dump (TSV, geo/catalog_io.hpp) with `n` sites spread over
/// North America and Europe; coordinates are hash-derived from `seed`.
std::string synthetic_sites_tsv(std::size_t n, std::uint64_t seed) {
  const char* const countries_na[] = {"US", "CA", "MX"};
  const char* const countries_eu[] = {"DE", "FR", "ES", "PL", "IT"};
  std::uint64_t seed_state = seed;
  const std::uint64_t base = util::splitmix64(seed_state);
  std::string tsv = "# name\tcountry\tcontinent\tlat\tlon\tpopulation_k\n";
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t stream = base + i;
    const double u1 = static_cast<double>(util::splitmix64(stream) >> 11) * 0x1.0p-53;
    const double u2 = static_cast<double>(util::splitmix64(stream) >> 11) * 0x1.0p-53;
    const double u3 = static_cast<double>(util::splitmix64(stream) >> 11) * 0x1.0p-53;
    const bool europe = i % 2 == 1;
    // Iberia to Scandinavia and Lisbon to Warsaw; Miami to Vancouver, coast
    // to coast.
    const double lat = europe ? 36.0 + 24.0 * u1 : 25.0 + 25.0 * u1;
    const double lon = europe ? -10.0 + 35.0 * u2 : -125.0 + 55.0 * u2;
    char line[160];
    std::snprintf(line, sizeof line, "synth-%zu\t%s\t%s\t%.17g\t%.17g\t%.17g\n", i,
                  europe ? countries_eu[i / 2 % 5] : countries_na[i / 2 % 3],
                  europe ? "EU" : "NA", lat, lon, 50.0 + 4000.0 * u3);
    tsv += line;
  }
  return tsv;
}

/// Everything a catalog_1k rep reads. Heap-held so the addresses the
/// region, service and simulation keep of each other stay valid.
struct Geography {
  std::optional<geo::CompiledSiteCatalog> catalog;
  geo::Region region;
  carbon::CarbonIntensityService service;
  std::unique_ptr<core::EdgeSimulation> simulation;
};

/// Loads the compiled catalog `key` from `artifacts` and builds the banded
/// geography over it, timing each call into `timers`.
std::unique_ptr<Geography> load_geography(Report& timers, const store::ArtifactStore& artifacts,
                                          const std::string& key,
                                          const carbon::SynthesizerParams& params) {
  auto geography = std::make_unique<Geography>();
  std::uint64_t t0 = obs::now_ns();
  geography->catalog = store::load_site_catalog(artifacts, key);
  timers.set("store.catalog_load_s", seconds_since(t0));
  if (!geography->catalog) throw std::runtime_error("compiled catalog " + key + " did not load");
  t0 = obs::now_ns();
  geography->region = geo::catalog_region(*geography->catalog, "synthetic-1000");
  timers.set("geo.catalog_region_s", seconds_since(t0));
  timers.set("carbon.add_region_s", 0.0);
  add_region(timers, geography->service, geography->region, params);
  geography->simulation = build_simulation(
      timers, sim::make_uniform_cluster(geography->region, 1, sim::DeviceType::kA2),
      geography->service, /*band_ms=*/8.0);
  return geography;
}

/// catalog_1k: a 1000-site synthetic catalog compiled through the store,
/// two-week traces through the store's trace tier, and an hourly banded
/// simulation whose re-optimization batches hold hundreds of apps.
void catalog_1k(const Options& options, Report& report) {
  constexpr std::size_t kSites = 1000;
  const std::string tsv = synthetic_sites_tsv(kSites, options.seed);
  carbon::SynthesizerParams params;
  params.hours = 14 * 24;
  const std::filesystem::path root =
      options.scratch / ("catalog_1k-" + std::to_string(::getpid()));
  std::filesystem::remove_all(root);
  carbon::TraceCache& cache = carbon::TraceCache::global();

  // Cold set-up: a fresh store each pass, so the catalog compiles and every
  // trace is synthesized and written. Its time is mostly file writes, which
  // swing several-fold on a shared disk, so it is the per-layer
  // store.setup_cold_s; setup_s is the warm set-up the timed reps run on.
  std::shared_ptr<store::ArtifactStore> artifacts;
  std::string key;
  std::unique_ptr<Geography> cold;
  int pass = 0;
  const auto cold_pass = [&] {
    cold.reset();
    artifacts =
        std::make_shared<store::ArtifactStore>(root / ("cold-" + std::to_string(pass++)));
    cache.clear();
    cache.set_store(store::make_trace_tier(artifacts));
    const std::uint64_t t0 = obs::now_ns();
    key = store::build_site_catalog(*artifacts, tsv);
    report.set("store.catalog_build_s", seconds_since(t0));
    cold = load_geography(report, *artifacts, key, params);
    return seconds_since(t0);
  };
  report.set("store.setup_cold_s", median_setup(options, report, cold_pass, kColdPasses));
  const double syntheses = report.get("carbon.syntheses");
  double bytes = 0.0;
  for (const store::ArtifactStore::Entry& entry : artifacts->list()) {
    bytes += static_cast<double>(entry.file_bytes);
  }
  report.set("store.bytes", bytes);

  // Warm set-up: the same store and an empty memory cache, so the catalog
  // and every trace come from disk.
  Report warm_timers(options);
  std::unique_ptr<Geography> warm;
  report.set("setup_s", median_setup(options, report, [&] {
               warm.reset();
               cache.clear();
               const std::uint64_t t0 = obs::now_ns();
               warm = load_geography(warm_timers, *artifacts, key, params);
               return seconds_since(t0);
             }));
  cache.set_store(nullptr);

  report.check(warm->catalog->size() == kSites, "compiled catalog lost sites");
  report.check(syntheses > 0.0 && report.get("carbon.syntheses") == syntheses &&
                   report.get("carbon.disk_hits") == syntheses,
               "warm set-up did not load every trace from the store");
  bool traces_equal = true;
  for (const geo::City& city : warm->region.resolve()) {
    const auto a = cold->service.trace(city.name).values();
    const auto b = warm->service.trace(city.name).values();
    traces_equal = traces_equal && std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  report.check(traces_equal, "traces loaded from the store differ from the synthesized ones");
  cold.reset();

  core::SimulationConfig config;
  config.policy = core::PolicyConfig::carbon_edge();
  config.epochs = options.smoke ? kSmokeEpochs : params.hours;
  config.epoch_hours = 1.0;
  config.workload.arrivals_per_site = 0.05;
  config.workload.model_weights = {1.0, 1.0, 1.0, 0.0};
  config.workload.seed = options.seed;
  config.reoptimize_every = 24;

  // Serial timed reps, as on dense_cell; traced reps add a wide run.
  util::ParallelismBudget serial_budget(1);
  util::ParallelismBudget wide_budget(wide_lanes());
  const core::EdgeSimulation& simulation = *warm->simulation;
  if (!options.smoke) (void)step_run(simulation, warm_up_config(config), serial_budget, nullptr);
  RepTimes reps;
  FastestSegments segments;
  StepTimes times;
  LaneScaling lanes;
  repeat(options, [&](bool traced) {
    const SteppedRun run = [&] {
      const RotatingPin pin;
      return step_run(simulation, config, serial_budget, traced ? &times : nullptr);
    }();
    reps.add(run.seconds, traced);
    segments.add(run.segments);
    report.digest(run.digest, config.epochs);
    report.check(run.conserves, "arrivals do not reconcile");
    if (!traced) return;
    report.rep_layers(run.before, run.after);
    report.sample("gen.arrivals_s", times.arrivals_s);
    times.arrivals_s = 0.0;
    const SteppedRun wide = step_run(simulation, config, wide_budget, nullptr);
    lanes.serial.push_back(run.seconds);
    lanes.wide.push_back(wide.seconds);
    report.same_digest(wide.digest, config.epochs, "wide");
  });

  report.set("epochs_per_s", config.epochs / segments.total());
  times.record(report);
  lanes.record(report, config.epochs);
  report.set("util.peak_lanes", static_cast<double>(wide_budget.peak_lanes()));
  reps.record_overhead(report);
  warm.reset();
  std::filesystem::remove_all(root);
}

// --------------------------------------------------------------------- main --

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "carbonedge_ledger: " << error << "\n"
            << "usage: carbonedge_ledger --workload cdn_sweep|dense_cell|serve_replay|"
               "catalog_1k [--seed N] [--seconds S] [--trace 0|1] [--smoke]\n"
               "                         [--scratch DIR] [--out FILE]\n";
  std::exit(2);
}

/// Accepts `--key value` and `--key=value`; `--trace` and `--smoke` may
/// stand alone.
Options parse_options(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::optional<std::string> value;
    if (const std::size_t eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg.resize(eq);
    }
    const bool takes_value = arg != "--smoke" && arg != "--trace";
    const bool next_is_trace_value =
        arg == "--trace" && i + 1 < argc &&
        (std::string_view(argv[i + 1]) == "0" || std::string_view(argv[i + 1]) == "1");
    if (!value && (takes_value || next_is_trace_value)) {
      if (i + 1 >= argc) usage("missing value for " + arg);
      value = argv[++i];
    }
    try {
      if (arg == "--workload") {
        options.workload = *value;
      } else if (arg == "--seed") {
        options.seed = std::stoull(*value);
      } else if (arg == "--seconds") {
        options.seconds = std::stod(*value);
        if (!(options.seconds > 0.0)) usage("--seconds must be positive");
      } else if (arg == "--trace") {
        if (value && *value != "0" && *value != "1") usage("--trace takes 0 or 1");
        options.trace = !value || *value == "1";
      } else if (arg == "--smoke") {
        if (value) usage("--smoke takes no value");
        options.smoke = true;
      } else if (arg == "--scratch") {
        options.scratch = *value;
      } else if (arg == "--out") {
        options.out = *value;
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse_options(argc, argv);
  const std::map<std::string, void (*)(const Options&, Report&)> workloads = {
      {"cdn_sweep", cdn_sweep},
      {"dense_cell", dense_cell},
      {"serve_replay", serve_replay},
      {"catalog_1k", catalog_1k},
  };
  const auto workload = workloads.find(options.workload);
  if (workload == workloads.end()) usage("unknown workload '" + options.workload + "'");
  try {
    std::filesystem::create_directories(options.scratch);
    Report report(options);
    workload->second(options, report);
    report.set("peak_rss_mb", peak_rss_mb());
    report.emit(std::cout);
    return report.correct() ? 0 : 1;
  } catch (const std::exception& error) {
    std::cerr << "carbonedge_ledger: " << options.workload << ": " << error.what() << "\n";
    return 2;
  }
}
