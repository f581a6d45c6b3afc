// carbonedge_cli — command-line front end over the library.
//
//   carbonedge_cli zones                        list built-in zones + mixes
//   carbonedge_cli analyze <region>             Section 3 region summary
//   carbonedge_cli radius <km>                  Figure 5 radius study (US+EU)
//   carbonedge_cli simulate <region> <policy> <epochs>
//                                               run a regional simulation
//   carbonedge_cli sweep <region> <epochs> [--single]
//                                               deterministic scenario sweep
//                                               (the CI determinism gate's
//                                               probe: its table must be
//                                               byte-identical for every
//                                               CARBONEDGE_THREADS)
//   carbonedge_cli export-traces <region> <file.csv>
//                                               dump synthetic traces as CSV
//   carbonedge_cli serve <region> --replay|--stdin [--epochs=N]
//       [--window-epochs=N] [--policy=<p>] [--queue-capacity=N]
//       [--ooo=drop|clamp] [--ema-alpha=A] [--ema-reopt=<sig>:<fire>:<rearm>]
//       [--export=<file|->]
//                                               streaming serving mode: ingest
//                                               an event stream (trace replay
//                                               or CSV on stdin), aggregate
//                                               windowed telemetry, and — when
//                                               --ema-reopt is given — fire
//                                               event-driven re-optimization
//                                               on EMA threshold crossings.
//                                               The summary prints no timings
//                                               (the determinism gate diffs a
//                                               serve replay too).
//   carbonedge_cli store warm [region...]       pre-synthesize traces into the
//                                               persistent artifact store
//   carbonedge_cli store ls | verify | gc       inspect / checksum / clean it
//   carbonedge_cli catalog build <sites.tsv>    compile a GeoNames-style site
//                                               dump into the store; prints the
//                                               content key
//   carbonedge_cli catalog info <key>           summarize a compiled catalog
//   carbonedge_cli catalog nearest <key> <lat> <lon>
//   carbonedge_cli catalog radius <key> <lat> <lon> <km>
//                                               nearest site (a linear scan)
//                                               and spatial-index radius
//                                               query (byte-identical to the
//                                               brute-force oracle; the
//                                               determinism gate diffs radius)
//   carbonedge_cli catalog sweep <key> <epochs> [--max-sites=<n>] [--band=<ms>]
//                                               single-cell CarbonEdge sweep
//                                               over a compiled catalog, with
//                                               an optional sparse latency band
//   carbonedge_cli metrics                      enumerate the obs registry
//                                               (name, kind, view, value)
//
// Any command also accepts `--metrics=FILE` / `--metrics-prom=FILE`
// (stripped before dispatch): after a successful run, the obs registry is
// written as a JSON snapshot ({"deterministic":{...},"timing":{...}}) or
// Prometheus text to FILE ('-' = stdout). serve additionally accepts
// `--metrics-rows` to interleave per-window `#metrics` snapshot rows into
// the --export stream.
//
// The store and catalog subcommands operate on CARBONEDGE_STORE_DIR (or the
// directory given as `store|catalog --dir <path> <subcommand>`).
//
// Regions: florida, west_us, italy, central_eu, cdn_us, cdn_eu.
// Policies: latency, energy, intensity, carbonedge, alpha=<0..1>.
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/mesoscale.hpp"
#include "carbon/service.hpp"
#include "carbon/synthesizer.hpp"
#include "carbon/trace.hpp"
#include "carbon/trace_cache.hpp"
#include "carbon/trace_io.hpp"
#include "carbon/zone.hpp"
#include "core/policy.hpp"
#include "core/simulation.hpp"
#include "geo/catalog.hpp"
#include "geo/coord.hpp"
#include "geo/latency.hpp"
#include "geo/region.hpp"
#include "geo/site.hpp"
#include "geo/spatial_index.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "runner/scenario_grid.hpp"
#include "runner/scenario_runner.hpp"
#include "serve/event_loop.hpp"
#include "serve/event_source.hpp"
#include "serve/export.hpp"
#include "sim/datacenter.hpp"
#include "sim/device.hpp"
#include "store/artifact_store.hpp"
#include "store/site_catalog.hpp"
#include "store/sweep_store.hpp"
#include "store/trace_tier.hpp"
#include "util/env.hpp"
#include "util/flags.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace carbonedge;

namespace {

int usage() {
  std::cerr << "usage: carbonedge_cli zones | analyze <region> | radius <km> |\n"
               "       simulate <region> <policy> <epochs> | sweep <region> <epochs> "
               "[--single] |\n"
               "       serve <region> --replay|--stdin [--epochs=<n>] "
               "[--window-epochs=<n>]\n"
               "           [--policy=<p>] [--queue-capacity=<n>] [--ooo=drop|clamp]\n"
               "           [--ema-alpha=<a>] [--ema-reopt=<intensity|response|load>:"
               "<fire>:<rearm>]\n"
               "           [--export=<file|->] [--metrics-rows] |\n"
               "       export-traces <region> <file> |\n"
               "       store [--dir <path>] warm [region...] | ls | verify | gc "
               "[--max-bytes=<n>] |\n"
               "       catalog [--dir <path>] build <sites.tsv> | info <key> |\n"
               "           nearest <key> <lat> <lon> | radius <key> <lat> <lon> <km> |\n"
               "           sweep <key> <epochs> [--max-sites=<n>] [--band=<ms>] |\n"
               "       metrics\n"
               "regions: florida west_us italy central_eu cdn_us cdn_eu\n"
               "policies: latency energy intensity carbonedge alpha=<0..1>\n"
               "store dir: CARBONEDGE_STORE_DIR or store --dir <path>\n"
               "threads: CARBONEDGE_THREADS caps the process worker budget\n"
               "metrics: --metrics=<file|-> / --metrics-prom=<file|-> on any command\n";
  return 2;
}

geo::Region region_by_name(const std::string& name) {
  if (name == "florida") return geo::florida_region();
  if (name == "west_us") return geo::west_us_region();
  if (name == "italy") return geo::italy_region();
  if (name == "central_eu") return geo::central_eu_region();
  if (name == "cdn_us") return geo::cdn_region(geo::Continent::kNorthAmerica, 40);
  if (name == "cdn_eu") return geo::cdn_region(geo::Continent::kEurope, 40);
  throw std::invalid_argument("unknown region: " + name);
}

/// A positional number in [lo, hi]; `what` names the quantity in the error.
double parse_bounded_double(const std::string& arg, double lo, double hi,
                            const std::string& what) {
  const double value = util::parse_flag_double(arg);
  if (value < lo || value > hi) throw std::out_of_range(arg + " is not a " + what);
  return value;
}

/// Throws for an argument a command does not take (a misspelled flag must
/// fail loudly, not be dropped); dispatch turns it into exit 1.
[[noreturn]] void reject(const std::string& arg) {
  throw std::invalid_argument("unexpected argument '" + arg + "'");
}

/// Rejects any argument after a command's `count` fixed ones.
void reject_extra(const std::vector<std::string>& args, std::size_t count) {
  if (args.size() > count) reject(args[count]);
}

double parse_latitude(const std::string& arg) {
  return parse_bounded_double(arg, -90.0, 90.0, "latitude in [-90, 90]");
}

double parse_longitude(const std::string& arg) {
  return parse_bounded_double(arg, -180.0, 180.0, "longitude in [-180, 180]");
}

double parse_radius_km(const std::string& arg) {
  return parse_bounded_double(arg, 0.0, std::numeric_limits<double>::max(),
                              "radius >= 0 km");
}

core::PolicyConfig policy_by_name(const std::string& name) {
  if (name == "latency") return core::PolicyConfig::latency_aware();
  if (name == "energy") return core::PolicyConfig::energy_aware();
  if (name == "intensity") return core::PolicyConfig::intensity_aware();
  if (name == "carbonedge") return core::PolicyConfig::carbon_edge();
  if (const auto weight = util::flag_value(name, "alpha=")) {
    return core::PolicyConfig::multi_objective(util::parse_flag_double(*weight, name));
  }
  throw std::invalid_argument("unknown policy: " + name);
}

int cmd_zones() {
  const auto& db = geo::builtin_sites();
  const auto& catalog = carbon::ZoneCatalog::builtin();
  util::Table table({"Zone", "Country", "Static mix CI", "Calibrated", "Population (k)"});
  for (const geo::City& city : db.all()) {
    const carbon::ZoneSpec spec = catalog.spec_for(city);
    table.add_row({city.name, city.country,
                   util::format_fixed(spec.capacity.carbon_intensity(), 0),
                   catalog.has_override(city) ? "yes" : "",
                   util::format_fixed(city.population_k, 0)});
  }
  table.print(std::cout);
  return 0;
}

int cmd_analyze(const std::string& region_name) {
  const geo::Region region = region_by_name(region_name);
  carbon::CarbonIntensityService service;
  service.add_region(region);
  const analysis::RegionSummary summary = analysis::summarize_region(region, service);
  util::Table table({"Zone", "mean g/kWh", "min", "max", "low-carbon", "daily swing",
                     "seasonal range"});
  table.set_title(summary.region + " (" + util::format_fixed(summary.width_km, 0) + "km x " +
                  util::format_fixed(summary.height_km, 0) + "km)");
  for (const analysis::ZoneStats& z : summary.zones) {
    table.add_row({z.zone, util::format_fixed(z.mean_g_kwh, 0),
                   util::format_fixed(z.min_g_kwh, 0), util::format_fixed(z.max_g_kwh, 0),
                   util::format_percent(z.low_carbon_share, 0),
                   util::format_fixed(z.mean_daily_swing, 0),
                   util::format_fixed(z.seasonal_range, 0)});
  }
  table.print(std::cout);
  std::cout << "yearly spread " << util::format_fixed(summary.yearly_spread, 1)
            << "x, snapshot spread " << util::format_fixed(summary.snapshot_spread, 1) << "x\n";
  return 0;
}

int cmd_radius(double km) {
  std::vector<geo::City> sites = geo::cdn_region(geo::Continent::kNorthAmerica).resolve();
  const auto eu = geo::cdn_region(geo::Continent::kEurope).resolve();
  sites.insert(sites.end(), eu.begin(), eu.end());
  const std::vector<double> means = analysis::yearly_means(sites);
  const analysis::RadiusStudy study =
      analysis::radius_study(sites, means, geo::LatencyModel{}, km);
  std::cout << "radius " << km << " km over " << sites.size() << " sites:\n"
            << "  sites with >20% best saving: "
            << util::format_percent(study.fraction_above_20, 0) << "\n"
            << "  sites with >40% best saving: "
            << util::format_percent(study.fraction_above_40, 0) << "\n"
            << "  median best saving: " << util::format_fixed(study.median_saving, 1) << "%\n"
            << "  median one-way latency: " << util::format_fixed(study.median_latency_ms, 1)
            << " ms\n";
  return 0;
}

int cmd_sweep(const std::string& region_name, std::uint32_t epochs, bool single) {
  // Deterministic scenario sweep over the engine's epoch features —
  // deferral, cost-aware re-optimization, failure injection — printed as
  // the runner's summary table. The output contains no timings, so two runs
  // with different CARBONEDGE_THREADS must be byte-identical; the CI
  // determinism gate diffs exactly this. --single collapses the grid to one
  // CarbonEdge cell, which runs serially whatever the worker budget.
  core::SimulationConfig config;
  config.epochs = epochs;
  config.workload.arrivals_per_site = 1.0;
  config.workload.mean_lifetime_epochs = 12.0;
  config.workload.max_defer_epochs = 6;
  config.workload.model_weights = {1.0, 1.0, 1.0, 0.0};
  config.workload.seed = 1234;
  config.reoptimize_every = 16;
  config.migration.cost_aware = true;
  config.failures.mtbf_epochs = 300.0;
  runner::ScenarioGrid grid(config);
  grid.with_regions({region_by_name(region_name)});
  if (single) {
    grid.with_policies({core::PolicyConfig::carbon_edge()});
  } else {
    grid.with_policies({core::PolicyConfig::latency_aware(), core::PolicyConfig::carbon_edge()})
        .with_defer_epochs({0, 6})
        .with_workload_seeds({1, 2});
  }
  // CARBONEDGE_STORE_DIR attaches the persistent sweep store (same
  // convention as the benches' --store): cells resume from disk, fresh
  // ones persist back. The gate runs without the variable; either way the
  // summary has a Store column ("-" storeless, "ok"/"FAIL:<n>w" with one),
  // and its bytes stay thread-count-invariant.
  runner::ScenarioRunnerOptions options;
  const std::string store_dir = util::env::get_or("CARBONEDGE_STORE_DIR", "");
  if (!store_dir.empty()) {
    auto artifacts = std::make_shared<store::ArtifactStore>(store_dir);
    carbon::TraceCache::global().set_store(store::make_trace_tier(artifacts));
    options.sweep_store = std::make_shared<store::SweepStore>(std::move(artifacts));
  }
  const auto outcomes = runner::ScenarioRunner(options).run(grid);
  runner::ScenarioRunner::summarize(outcomes, options.sweep_store.get()).print(std::cout);
  return 0;
}

int cmd_simulate(const std::string& region_name, const std::string& policy_name,
                 std::uint32_t epochs) {
  const geo::Region region = region_by_name(region_name);
  carbon::CarbonIntensityService service;
  service.add_region(region);
  core::EdgeSimulation simulation(
      sim::make_uniform_cluster(region, 1, sim::DeviceType::kA2), service);
  core::SimulationConfig config;
  config.policy = policy_by_name(policy_name);
  config.epochs = epochs;
  config.workload.arrivals_per_site = 0.5;
  config.workload.model_weights = {1.0, 1.0, 1.0, 0.0};
  // Decision time is the core.place span's wall time over the run (the
  // placement service's own phase), averaged per epoch.
  const obs::Phase place("core.place");
  const std::uint64_t place_ns_before = place.total_ns().value();
  const core::SimulationResult result = simulation.run(config);
  const double place_ms =
      static_cast<double>(place.total_ns().value() - place_ns_before) / 1e6;
  std::cout << core::describe(config.policy) << " over " << epochs << " epochs on "
            << region.name << ":\n"
            << "  carbon: " << util::format_fixed(result.telemetry.total_carbon_g(), 1)
            << " g\n"
            << "  energy: " << util::format_fixed(result.telemetry.total_energy_wh(), 1)
            << " Wh\n"
            << "  mean RTT: " << util::format_fixed(result.telemetry.mean_rtt_ms(), 2)
            << " ms\n"
            << "  placed/rejected: " << result.apps_placed << "/" << result.apps_rejected
            << "\n  mean decision time: "
            << util::format_fixed(epochs > 0 ? place_ms / static_cast<double>(epochs) : 0.0, 2)
            << " ms\n";
  return 0;
}

// ----------------------------------------------------------------- serve --

// `--ema-reopt=<signal>:<fire>:<rearm>`, repeatable (one per signal).
void parse_ema_reopt(const std::string& arg, std::string_view value,
                     serve::EmaReoptConfig& ema) {
  const std::size_t first = value.find(':');
  const std::size_t second = first == std::string::npos ? first : value.find(':', first + 1);
  if (second == std::string::npos) {
    throw std::invalid_argument("expected --ema-reopt=<signal>:<fire>:<rearm>, got " + arg);
  }
  const std::string signal(value.substr(0, first));
  serve::EmaTrigger trigger;
  trigger.enabled = true;
  trigger.fire = util::parse_flag_double(value.substr(first + 1, second - first - 1), arg);
  trigger.rearm = util::parse_flag_double(value.substr(second + 1), arg);
  if (signal == "intensity") {
    ema.intensity = trigger;
  } else if (signal == "response") {
    ema.response_ms = trigger;
  } else if (signal == "load") {
    ema.load_rps = trigger;
  } else {
    throw std::invalid_argument("unknown --ema-reopt signal: " + signal);
  }
  ema.enabled = true;
}

int cmd_serve(std::vector<std::string> args) {
  const std::string region_name = args.front();
  args.erase(args.begin());

  bool replay = false;
  bool from_stdin = false;
  std::uint32_t epochs = 168;
  std::string policy_name = "carbonedge";
  std::string export_path;
  serve::ServeConfig serve_config;
  serve_config.window_epochs = 8;
  for (const std::string& arg : args) {
    if (arg == "--replay") {
      replay = true;
    } else if (arg == "--stdin") {
      from_stdin = true;
    } else if (const auto n = util::flag_value(arg, "--epochs=")) {
      epochs = util::parse_flag_unsigned<std::uint32_t>(*n, arg);
    } else if (const auto n = util::flag_value(arg, "--window-epochs=")) {
      serve_config.window_epochs = util::parse_flag_unsigned<std::uint32_t>(*n, arg);
    } else if (const auto n = util::flag_value(arg, "--queue-capacity=")) {
      serve_config.queue_capacity = util::parse_flag_unsigned(*n, arg);
    } else if (arg == "--ooo=drop") {
      serve_config.out_of_order = serve::OutOfOrderPolicy::kDrop;
    } else if (arg == "--ooo=clamp") {
      serve_config.out_of_order = serve::OutOfOrderPolicy::kClamp;
    } else if (const auto name = util::flag_value(arg, "--policy=")) {
      policy_name = *name;
    } else if (const auto alpha = util::flag_value(arg, "--ema-alpha=")) {
      serve_config.ema_reopt.alpha = util::parse_flag_double(*alpha, arg);
    } else if (const auto trigger = util::flag_value(arg, "--ema-reopt=")) {
      parse_ema_reopt(arg, *trigger, serve_config.ema_reopt);
    } else if (const auto path = util::flag_value(arg, "--export=")) {
      export_path = *path;
    } else if (arg == "--metrics-rows") {
      serve_config.metrics_rows = true;
    } else {
      reject(arg);
    }
  }
  if (replay == from_stdin) {
    throw std::invalid_argument("serve needs exactly one of --replay / --stdin");
  }

  // The sweep scenario's engine knobs (deferral, cost-aware re-optimization,
  // failure injection), so a replay exercises the full epoch body. With
  // --ema-reopt the trigger replaces the fixed cadence.
  core::SimulationConfig config;
  config.policy = policy_by_name(policy_name);
  config.epochs = epochs;
  config.workload.arrivals_per_site = 1.0;
  config.workload.mean_lifetime_epochs = 12.0;
  config.workload.max_defer_epochs = 6;
  config.workload.model_weights = {1.0, 1.0, 1.0, 0.0};
  config.workload.seed = 1234;
  config.reoptimize_every = 16;
  config.migration.cost_aware = true;
  config.failures.mtbf_epochs = 300.0;
  serve_config.sim = config;

  const geo::Region region = region_by_name(region_name);
  carbon::CarbonIntensityService service;
  service.add_region(region);
  core::EdgeSimulation simulation(
      sim::make_uniform_cluster(region, 1, sim::DeviceType::kA2), service);

  std::unique_ptr<serve::EventSource> source;
  serve::CsvEventSource* csv_source = nullptr;
  if (replay) {
    source = std::make_unique<serve::TraceReplaySource>(
        config.workload, simulation.pristine_cluster(), config.epochs, config.epoch_hours);
  } else {
    auto csv = std::make_unique<serve::CsvEventSource>(
        std::cin, serve::CsvEventSource::ErrorPolicy::kSkip);
    csv_source = csv.get();
    source = std::move(csv);
  }

  std::ofstream export_file;
  std::unique_ptr<serve::OstreamSink> sink;
  std::unique_ptr<serve::WindowCsvExporter> exporter;
  if (!export_path.empty()) {
    if (export_path == "-") {
      sink = std::make_unique<serve::OstreamSink>(std::cout);
    } else {
      export_file.open(export_path);
      if (!export_file) {
        std::cerr << "error: cannot open " << export_path << "\n";
        return 1;
      }
      sink = std::make_unique<serve::OstreamSink>(export_file);
    }
    exporter = std::make_unique<serve::WindowCsvExporter>(*sink);
  }

  serve::EventLoop loop(simulation, serve_config);
  const serve::ServeResult result = loop.run(*source, exporter.get());

  // No timings in this summary: the CI determinism gate diffs serve output
  // across CARBONEDGE_THREADS values, byte for byte.
  const auto& sim_result = result.sim;
  std::cout << "serve " << region.name << ": " << epochs << " epochs in "
            << result.windows.size() << " windows of " << serve_config.window_epochs << "\n"
            << "  ingest: " << result.ingest.accepted << " events accepted, "
            << result.ingest.dropped_overflow << " overflow-dropped, "
            << result.ingest.dropped_stale << " stale-dropped, "
            << result.ingest.dropped_horizon << " horizon-dropped, "
            << result.ingest.clamped_stale << " clamped\n";
  if (csv_source != nullptr && csv_source->rejected_lines() > 0) {
    std::cout << "  rejected lines: " << csv_source->rejected_lines() << " (last: "
              << csv_source->last_error() << ")\n";
  }
  std::cout << "  placed/rejected/expired: " << sim_result.apps_placed << "/"
            << sim_result.apps_rejected << "/" << sim_result.apps_expired_deferred << "\n"
            << "  migrations: " << sim_result.migrations << " ("
            << sim_result.migrations_skipped << " skipped), reopt fires: "
            << result.reopt_fires << "\n"
            << "  failures: " << sim_result.server_failures << ", downtime epochs: "
            << sim_result.app_downtime_epochs << "\n"
            << "  carbon: " << util::format_fixed(sim_result.telemetry.total_carbon_g(), 1)
            << " g, energy: " << util::format_fixed(sim_result.telemetry.total_energy_wh(), 1)
            << " Wh, mean RTT: " << util::format_fixed(sim_result.telemetry.mean_rtt_ms(), 2)
            << " ms\n";
  if (exporter != nullptr) {
    std::cout << "  export: " << result.exports.lines_written << " lines written, "
              << result.exports.lines_dropped << " dropped\n";
  }
  return 0;
}

int cmd_export(const std::string& region_name, const std::string& path) {
  const geo::Region region = region_by_name(region_name);
  const auto& catalog = carbon::ZoneCatalog::builtin();
  const carbon::TraceSynthesizer synthesizer;
  std::vector<carbon::CarbonTrace> traces;
  for (const carbon::ZoneSpec& zone : catalog.specs_for(region.resolve())) {
    traces.push_back(synthesizer.synthesize(zone));
  }
  carbon::save_traces(path, traces);
  std::cout << "wrote " << traces.size() << " zone traces ("
            << traces.front().hours() << " hours each) to " << path << "\n";
  return 0;
}

// ----------------------------------------------------------------- store --

int cmd_store_warm(const std::shared_ptr<store::ArtifactStore>& artifacts,
                   std::vector<std::string> region_names) {
  if (region_names.empty()) {
    region_names = {"florida", "west_us", "italy", "central_eu", "cdn_us", "cdn_eu"};
  }
  carbon::TraceCache& cache = carbon::TraceCache::global();
  cache.set_store(store::make_trace_tier(artifacts));
  const std::uint64_t syntheses_before = cache.syntheses();
  const std::uint64_t disk_before = cache.disk_hits();
  util::Table table({"Region", "Zones"});
  for (const std::string& name : region_names) {
    const geo::Region region = region_by_name(name);
    carbon::CarbonIntensityService service;
    service.add_region(region);
    table.add_row({region.name, std::to_string(region.cities.size())});
  }
  table.print(std::cout);
  std::cout << "store " << artifacts->root().string() << ": "
            << (cache.syntheses() - syntheses_before) << " traces synthesized, "
            << (cache.disk_hits() - disk_before) << " already on disk\n";
  return 0;
}

int cmd_store_ls(const store::ArtifactStore& artifacts) {
  util::Table table({"Kind", "Key", "Bytes"});
  table.set_title("artifact store " + artifacts.root().string());
  std::uintmax_t total = 0;
  const auto entries = artifacts.list();
  for (const auto& entry : entries) {
    table.add_row({store::to_string(entry.kind), entry.key, std::to_string(entry.file_bytes)});
    total += entry.file_bytes;
  }
  table.print(std::cout);
  std::cout << entries.size() << " entries, " << total << " bytes\n";
  return 0;
}

int cmd_store_verify(const store::ArtifactStore& artifacts) {
  std::size_t ok = 0;
  std::size_t corrupt = 0;
  for (const auto& entry : artifacts.list(/*verify=*/true)) {
    if (entry.intact) {
      ++ok;
    } else {
      ++corrupt;
      std::cout << "CORRUPT " << store::to_string(entry.kind) << "/" << entry.key << "\n";
    }
  }
  std::cout << ok << " intact, " << corrupt << " corrupt\n";
  return corrupt == 0 ? 0 : 1;
}

int cmd_store_gc(const store::ArtifactStore& artifacts, const std::vector<std::string>& args) {
  std::uintmax_t max_bytes = 0;
  for (const std::string& arg : args) {
    if (const auto n = util::flag_value(arg, "--max-bytes=")) {
      max_bytes = util::parse_flag_unsigned<std::uintmax_t>(*n, arg);
    } else {
      reject(arg);
    }
  }
  const store::ArtifactStore::GcReport report = artifacts.gc(max_bytes);
  std::cout << "removed " << report.removed_files << " files ("
            << report.reclaimed_bytes << " bytes: temp leftovers + corrupt entries)\n";
  if (max_bytes > 0) {
    std::cout << "evicted " << report.evicted_files << " entries (" << report.evicted_bytes
              << " bytes: least recently used beyond " << max_bytes << " bytes)\n";
  }
  return 0;
}

/// `store|catalog [--dir <path>] <subcommand> [args...]`, split up. Without
/// --dir the directory comes from CARBONEDGE_STORE_DIR.
struct StoreCommand {
  std::string dir;
  std::string sub;
  std::vector<std::string> args;
};

/// Nullopt (after printing usage) when the subcommand is missing; throws
/// when the directory is.
std::optional<StoreCommand> parse_store_command(int argc, char** argv) {
  StoreCommand command{util::env::get_or("CARBONEDGE_STORE_DIR", ""), "",
                       std::vector<std::string>(argv + 2, argv + argc)};
  std::vector<std::string>& args = command.args;
  if (args.size() >= 2 && args[0] == "--dir") {
    command.dir = args[1];
    args.erase(args.begin(), args.begin() + 2);
  }
  if (args.empty()) {
    usage();
    return std::nullopt;
  }
  if (command.dir.empty()) {
    throw std::invalid_argument("no store directory (set CARBONEDGE_STORE_DIR or pass --dir)");
  }
  command.sub = args.front();
  args.erase(args.begin());
  return command;
}

int cmd_store(int argc, char** argv) {
  auto command = parse_store_command(argc, argv);
  if (!command) return 2;
  const auto artifacts = std::make_shared<store::ArtifactStore>(command->dir);
  const std::string& sub = command->sub;
  if (sub == "warm") return cmd_store_warm(artifacts, std::move(command->args));
  if (sub == "ls" || sub == "verify") reject_extra(command->args, 0);
  if (sub == "ls") return cmd_store_ls(*artifacts);
  if (sub == "verify") return cmd_store_verify(*artifacts);
  if (sub == "gc") return cmd_store_gc(*artifacts, command->args);
  return usage();
}

// --------------------------------------------------------------- catalog --

std::string read_text_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

geo::SiteCatalog require_catalog(const store::ArtifactStore& artifacts,
                                 const std::string& key) {
  auto catalog = store::load_site_catalog(artifacts, key);
  if (!catalog) {
    throw std::runtime_error("no compiled catalog under key " + key +
                             " (build one with `catalog build <sites.tsv>`)");
  }
  return std::move(*catalog);
}

int cmd_catalog_build(const store::ArtifactStore& artifacts, const std::string& path) {
  const std::string key = store::build_site_catalog(artifacts, read_text_file(path));
  // Round-trip through the store before reporting success: the count below
  // comes from the decoded blob, not the parse, so a publish that cannot be
  // read back fails here instead of at first use.
  const geo::SiteCatalog catalog = require_catalog(artifacts, key);
  std::cout << "compiled " << catalog.size() << " sites from " << path << "\n"
            << "key " << key << "\n";
  return 0;
}

int cmd_catalog_info(const store::ArtifactStore& artifacts, const std::string& key) {
  const geo::SiteCatalog catalog = require_catalog(artifacts, key);
  std::size_t na = 0;
  std::size_t eu = 0;
  double population_k = 0.0;
  std::vector<geo::GeoPoint> points;
  points.reserve(catalog.size());
  for (const geo::City& city : catalog.all()) {
    (city.continent == geo::Continent::kNorthAmerica ? na : eu) += 1;
    population_k += city.population_k;
    points.push_back(city.location);
  }
  const geo::BoundingBox box = geo::bounding_box(points);
  std::cout << "catalog " << key << ": " << catalog.size() << " sites (" << na << " NA, " << eu
            << " EU)\n"
            << "  population: " << util::format_fixed(population_k / 1000.0, 1) << " M\n"
            << "  extent: " << util::format_fixed(box.width_km(), 0) << " km x "
            << util::format_fixed(box.height_km(), 0) << " km\n";
  return 0;
}

int cmd_catalog_nearest(const store::ArtifactStore& artifacts, const std::string& key,
                        double lat, double lon) {
  const geo::SiteCatalog catalog = require_catalog(artifacts, key);
  const geo::GeoPoint query{lat, lon};
  const auto id = catalog.nearest(query);
  if (!id) {
    std::cout << "catalog is empty\n";
    return 1;
  }
  const geo::City& city = catalog.by_id(*id);
  std::cout << "nearest to (" << util::format_fixed(lat, 4) << ", "
            << util::format_fixed(lon, 4) << "): " << city.name << ", " << city.country << " ("
            << util::format_fixed(geo::haversine_km(query, city.location), 1) << " km)\n";
  return 0;
}

int cmd_catalog_radius(const store::ArtifactStore& artifacts, const std::string& key,
                       double lat, double lon, double km) {
  const geo::SiteCatalog catalog = require_catalog(artifacts, key);
  const geo::SpatialIndex index(catalog);
  const geo::GeoPoint query{lat, lon};
  // Ascending SiteId with exact haversine distances: byte-identical to a
  // brute-force scan (the determinism gate diffs this output).
  util::Table table({"Site", "Country", "km"});
  table.set_title(util::format_fixed(km, 0) + " km around (" + util::format_fixed(lat, 4) +
                  ", " + util::format_fixed(lon, 4) + ")");
  for (const geo::SiteId id : index.within_radius(query, km)) {
    const geo::City& city = catalog.by_id(id);
    table.add_row({city.name, city.country,
                   util::format_fixed(geo::haversine_km(query, city.location), 1)});
  }
  table.print(std::cout);
  return 0;
}

int cmd_catalog_sweep(const store::ArtifactStore& artifacts, std::vector<std::string> args) {
  const std::string key = args[0];
  const auto epochs = util::parse_flag_unsigned<std::uint32_t>(args[1]);
  std::size_t max_sites = 0;
  double band = 0.0;
  for (std::size_t i = 2; i < args.size(); ++i) {
    if (const auto n = util::flag_value(args[i], "--max-sites=")) {
      max_sites = util::parse_flag_unsigned(*n, args[i]);
    } else if (const auto ms = util::flag_value(args[i], "--band=")) {
      band = util::parse_flag_double(*ms, args[i]);
    } else {
      reject(args[i]);
    }
  }

  const geo::SiteCatalog catalog = require_catalog(artifacts, key);
  const geo::Region region =
      geo::catalog_region(catalog, "catalog " + key.substr(0, 8), max_sites);

  // The same engine knobs as `sweep --single`, collapsed to one CarbonEdge
  // cell; --band keeps only in-band latency neighbors in the cell's
  // geography. No sweep store is attached even though a --dir is
  // in hand: the determinism gate reruns this at several thread counts and
  // must diff recomputations, not a warm resume.
  core::SimulationConfig config;
  config.epochs = epochs;
  config.workload.arrivals_per_site = 1.0;
  config.workload.mean_lifetime_epochs = 12.0;
  config.workload.max_defer_epochs = 6;
  config.workload.model_weights = {1.0, 1.0, 1.0, 0.0};
  config.workload.seed = 1234;
  config.reoptimize_every = 16;
  config.migration.cost_aware = true;
  config.failures.mtbf_epochs = 300.0;
  runner::ScenarioGrid grid(config);
  grid.with_regions({region}).with_policies({core::PolicyConfig::carbon_edge()});
  if (band > 0.0) grid.with_latency_bands({band});
  const auto outcomes = runner::ScenarioRunner().run(grid);
  runner::ScenarioRunner::summarize(outcomes).print(std::cout);
  return 0;
}

int cmd_catalog(int argc, char** argv) {
  auto command = parse_store_command(argc, argv);
  if (!command) return 2;
  const store::ArtifactStore artifacts(command->dir);
  const std::string& sub = command->sub;
  std::vector<std::string>& args = command->args;
  if (sub == "build" && args.size() == 1) return cmd_catalog_build(artifacts, args[0]);
  if (sub == "info" && args.size() == 1) return cmd_catalog_info(artifacts, args[0]);
  if (sub == "nearest" && args.size() == 3) {
    const double lat = parse_latitude(args[1]);
    const double lon = parse_longitude(args[2]);
    return cmd_catalog_nearest(artifacts, args[0], lat, lon);
  }
  if (sub == "radius" && args.size() == 4) {
    const double lat = parse_latitude(args[1]);
    const double lon = parse_longitude(args[2]);
    const double km = parse_radius_km(args[3]);
    return cmd_catalog_radius(artifacts, args[0], lat, lon, km);
  }
  if (sub == "sweep" && args.size() >= 2) return cmd_catalog_sweep(artifacts, std::move(args));
  return usage();
}

int cmd_metrics() {
  // Enumerate the registry after collecting the sampled process gauges. A
  // fresh process registers most metrics lazily at first use, so right
  // after startup this lists only the process gauges — run it with
  // --metrics=- on a real command to see the full catalog populated.
  obs::collect_process_gauges();
  util::Table table({"Metric", "Kind", "View", "Value", "Help"});
  obs::Registry::global().visit([&](const obs::MetricRef& metric) {
    std::string kind;
    std::string value;
    switch (metric.kind) {
      case obs::MetricKind::kCounter:
        kind = "counter";
        value = std::to_string(metric.counter->value());
        break;
      case obs::MetricKind::kGauge:
        kind = "gauge";
        value = util::format_fixed(metric.gauge->value(), 0);
        break;
      case obs::MetricKind::kHistogram:
        kind = "histogram";
        value = "n=" + std::to_string(metric.histogram->count());
        break;
    }
    table.add_row({std::string(metric.name), kind,
                   metric.view == obs::View::kDeterministic ? "det" : "timing", value,
                   std::string(metric.help)});
  });
  table.print(std::cout);
  return 0;
}

int dispatch(int argc, char** argv) {
  const std::string command = argv[1];
  const std::vector<std::string> args(argv + 2, argv + argc);
  try {
    if (command == "zones") {
      reject_extra(args, 0);
      return cmd_zones();
    }
    if (command == "analyze" && argc >= 3) {
      reject_extra(args, 1);
      return cmd_analyze(argv[2]);
    }
    if (command == "radius" && argc >= 3) {
      reject_extra(args, 1);
      return cmd_radius(parse_radius_km(argv[2]));
    }
    if (command == "simulate" && argc >= 5) {
      reject_extra(args, 3);
      return cmd_simulate(argv[2], argv[3], util::parse_flag_unsigned<std::uint32_t>(argv[4]));
    }
    if (command == "sweep" && argc >= 4) {
      // A misspelled flag must fail loudly: the determinism gate relies on
      // --single actually selecting the single-cell probe.
      const bool single = args.size() >= 3 && args[2] == "--single";
      reject_extra(args, single ? 3 : 2);
      return cmd_sweep(argv[2], util::parse_flag_unsigned<std::uint32_t>(argv[3]), single);
    }
    if (command == "serve" && argc >= 3) {
      return cmd_serve(args);
    }
    if (command == "export-traces" && argc >= 4) {
      reject_extra(args, 2);
      return cmd_export(argv[2], argv[3]);
    }
    if (command == "store" && argc >= 3) return cmd_store(argc, argv);
    if (command == "catalog" && argc >= 3) return cmd_catalog(argc, argv);
    if (command == "metrics") {
      reject_extra(args, 0);
      return cmd_metrics();
    }
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  // Observability flags work on every command. They are stripped from argv
  // before dispatch (the per-command parsers stay strict — `sweep` still
  // rejects unknown flags loudly) and written only after a successful run,
  // so a usage error never emits a half-populated snapshot.
  const std::string metrics_json_path =
      util::take_flag(argc, argv, "--metrics=").value_or("");
  const std::string metrics_prom_path =
      util::take_flag(argc, argv, "--metrics-prom=").value_or("");
  if (argc < 2) return usage();

  const int rc = dispatch(argc, argv);
  if (rc == 0) {
    if (!metrics_json_path.empty() &&
        !obs::write_snapshot(metrics_json_path, obs::snapshot_json())) {
      return 1;
    }
    if (!metrics_prom_path.empty() &&
        !obs::write_snapshot(metrics_prom_path, obs::snapshot_prometheus())) {
      return 1;
    }
  }
  return rc;
}
