// Serving-mode throughput: replay the year-long CDN workload (Section 6.3
// setting) through serve::EventLoop at maximum speed — the event-driven
// ingest, windowing, and EMA machinery processing a year of arrivals as
// fast as the engine steps. Reports events/sec and epochs/sec; the final
// counters must match the batch engine's (the replay oracle), so this
// bench doubles as a full-scale smoke of the serving path.
//
// CARBONEDGE_SMOKE_EPOCHS caps the horizon for CI; CI uploads this bench's
// stdout as the serve-replay throughput artifact.
#include "bench_util.hpp"
#include "carbon/service.hpp"
#include "core/policy.hpp"
#include "core/simulation.hpp"
#include "geo/coord.hpp"
#include "geo/region.hpp"

#include <chrono>

#include "serve/event_loop.hpp"
#include "serve/event_source.hpp"
#include "sim/datacenter.hpp"
#include "sim/device.hpp"
#include "util/table.hpp"

using namespace carbonedge;

int main(int argc, char** argv) {
  bench::print_header("Serve replay", "Year-long streaming replay throughput");
  bench::init_store(argc, argv);
  const std::string metrics_path = bench::init_metrics(argc, argv);
  bench::BenchJsonWriter json = bench::init_bench_json(argc, argv);

  core::SimulationConfig config = bench::apply_smoke_epochs(bench::cdn_config());
  config.policy = core::PolicyConfig::carbon_edge();
  const geo::Region region = geo::cdn_region(geo::Continent::kNorthAmerica, 40);
  const carbon::CarbonIntensityService service = bench::make_service(region);
  core::EdgeSimulation simulation(
      sim::make_uniform_cluster(region, 1, sim::DeviceType::kA2), service);

  serve::ServeConfig serve_config;
  serve_config.sim = config;
  serve_config.window_epochs = 8;  // one window per simulated day
  serve::TraceReplaySource source(config.workload, simulation.pristine_cluster(),
                                  config.epochs, config.epoch_hours);
  serve::EventLoop loop(simulation, serve_config);

  // lint: nondeterminism-ok(throughput bench: wall clock measures events/sec; replayed counters stay deterministic)
  const auto start = std::chrono::steady_clock::now();
  const serve::ServeResult result = loop.run(source);
  const double seconds =
      // lint: nondeterminism-ok(throughput bench: wall clock measures events/sec; replayed counters stay deterministic)
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  const double events = static_cast<double>(result.ingest.accepted);
  std::cout << "epochs " << config.epochs << ", windows " << result.windows.size()
            << ", events " << result.ingest.accepted << " (dropped "
            << result.ingest.dropped() << ")\n"
            << "placed " << result.sim.apps_placed << ", rejected "
            << result.sim.apps_rejected << ", migrations " << result.sim.migrations
            << ", failures " << result.sim.server_failures << "\n"
            << "carbon " << util::format_fixed(result.sim.telemetry.total_carbon_kg(), 1)
            << " kg, mean RTT "
            << util::format_fixed(result.sim.telemetry.mean_rtt_ms(), 2) << " ms\n"
            << "wall " << util::format_fixed(seconds, 3) << " s\n";
  // Stable grep targets for the CI throughput artifact.
  std::cout << "serve_replay_events_per_sec "
            << util::format_fixed(seconds > 0.0 ? events / seconds : 0.0, 1) << "\n"
            << "serve_replay_epochs_per_sec "
            << util::format_fixed(
                   seconds > 0.0 ? static_cast<double>(config.epochs) / seconds : 0.0, 1)
            << "\n";
  json.add_row("serve_replay", 1,
               {{"epochs", static_cast<double>(config.epochs)},
                {"events", events},
                {"events_per_sec", seconds > 0.0 ? events / seconds : 0.0},
                {"epochs_per_sec",
                 seconds > 0.0 ? static_cast<double>(config.epochs) / seconds : 0.0},
                {"wall_s", seconds},
                {"carbon_g", result.sim.telemetry.total_carbon_g()},
                {"migrations", static_cast<double>(result.sim.migrations)}});
  json.write();
  const bool metrics_written = bench::write_metrics_json(metrics_path);
  bench::print_takeaway("the streaming path replays a year of arrivals at full engine speed");
  return metrics_written ? 0 : 1;
}
