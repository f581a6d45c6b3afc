// Figure 17: scalability of the incremental placement algorithm — runtime
// and memory vs the number of servers (100-400, apps fixed at 50) and vs
// the number of applications (20-140, servers fixed at 400). Paper bound:
// <=3 s and <=200 MB at the largest setting. Uses google-benchmark for the
// timing harness plus a summary table with peak-RSS readings.
#include <benchmark/benchmark.h>
#include <sys/resource.h>

#include "bench_util.hpp"
#include "carbon/service.hpp"
#include "core/placement_service.hpp"
#include "core/policy.hpp"
#include "core/problem.hpp"
#include "core/simulation.hpp"
#include "geo/coord.hpp"
#include "geo/latency.hpp"
#include "geo/region.hpp"
#include "sim/datacenter.hpp"
#include "sim/device.hpp"
#include "sim/workload.hpp"
#include "util/table.hpp"

using namespace carbonedge;

namespace {

struct Instance {
  sim::EdgeCluster cluster;
  carbon::CarbonIntensityService service;
  geo::LatencyProvider latency;
  std::vector<sim::Application> apps;
};

Instance make_instance(std::size_t servers, std::size_t apps) {
  const geo::Region region = geo::cdn_region(geo::Continent::kNorthAmerica, 40);
  Instance inst{
      sim::make_uniform_cluster(region,
                                (servers + region.cities.size() - 1) / region.cities.size(),
                                sim::DeviceType::kA2),
      carbon::CarbonIntensityService{}, geo::LatencyProvider{}, {}};
  inst.service.add_region(region);
  inst.latency = geo::LatencyProvider(geo::LatencyModel{}, inst.cluster.cities());
  sim::WorkloadParams params;
  params.model_weights = {1.0, 1.0, 1.0, 0.0};
  params.latency_limit_rtt_ms = 30.0;
  sim::WorkloadGenerator generator(params, inst.cluster);
  inst.apps = generator.batch(apps);
  return inst;
}

double run_once(Instance& inst, double* out_ms) {
  core::PlacementService service(core::PolicyConfig::carbon_edge());
  sim::EdgeCluster working = inst.cluster;  // fresh copy: placement mutates
  const std::vector<double> intensity =
      core::site_mean_intensity(working, inst.service, /*now=*/12, /*horizon=*/1);
  core::PlacementInput input;
  input.cluster = &working;
  input.latency = &inst.latency;
  input.site_mean_intensity = &intensity;
  const core::PlacementResult result = service.place(input, inst.apps);
  if (out_ms != nullptr) *out_ms = result.solve_time_ms;
  return result.objective;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void BM_PlacementServers(benchmark::State& state) {
  Instance inst = make_instance(static_cast<std::size_t>(state.range(0)), 50);
  const std::size_t actual_servers = inst.cluster.all_servers().size();
  double ms = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_once(inst, &ms));
  }
  state.counters["servers"] = static_cast<double>(actual_servers);
  state.counters["solve_ms"] = ms;
  state.counters["peak_rss_mb"] = peak_rss_mb();
}
BENCHMARK(BM_PlacementServers)->Arg(100)->Arg(200)->Arg(300)->Arg(400)->Unit(benchmark::kMillisecond);

void BM_PlacementApps(benchmark::State& state) {
  Instance inst = make_instance(400, static_cast<std::size_t>(state.range(0)));
  double ms = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_once(inst, &ms));
  }
  state.counters["apps"] = static_cast<double>(state.range(0));
  state.counters["solve_ms"] = ms;
  state.counters["peak_rss_mb"] = peak_rss_mb();
}
BENCHMARK(BM_PlacementApps)->Arg(20)->Arg(60)->Arg(100)->Arg(140)->Unit(benchmark::kMillisecond);

// One big CDN cell (40 sites, heavy arrivals, deferral + cost-aware
// re-optimization + failures), stepped serially: the wall time of a
// year-long cell. The "carbon_g" counter is its deterministic total.
void BM_YearlongCell(benchmark::State& state) {
  const geo::Region region = geo::cdn_region(geo::Continent::kNorthAmerica, 40);
  carbon::CarbonIntensityService service;
  service.add_region(region);
  core::EdgeSimulation simulation(
      sim::make_uniform_cluster(region, 2, sim::DeviceType::kA2), service);
  core::SimulationConfig config = bench::apply_smoke_epochs(bench::cdn_config());
  config.workload.arrivals_per_site = 1.0;
  config.workload.mean_lifetime_epochs = 24.0;
  config.workload.max_defer_epochs = 8;
  config.reoptimize_every = 64;
  config.migration.cost_aware = true;
  config.failures.mtbf_epochs = 2000.0;
  double carbon_g = 0.0;
  for (auto _ : state) {
    const core::SimulationResult result = simulation.run(config);
    carbon_g = result.telemetry.total_carbon_g();
    benchmark::DoNotOptimize(carbon_g);
  }
  state.counters["carbon_g"] = carbon_g;
}
BENCHMARK(BM_YearlongCell)->Unit(benchmark::kMillisecond);

/// Tees every google-benchmark run into the --bench-json writer (name,
/// iterations, adjusted real time, user counters) while still printing the
/// normal console report.
class JsonTeeReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonTeeReporter(bench::BenchJsonWriter* json) : json_(json) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      std::vector<std::pair<std::string, double>> counters;
      counters.emplace_back("real_time_ms", run.GetAdjustedRealTime());
      for (const auto& [name, counter] : run.counters) {
        counters.emplace_back(name, counter.value);
      }
      json_->add_row(run.benchmark_name(), static_cast<std::uint64_t>(run.iterations),
                     std::move(counters));
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  bench::BenchJsonWriter* json_;
};

}  // namespace

int main(int argc, char** argv) {
  bench::print_header("Figure 17", "Scalability of incremental placement");
  // --store (stripped from argv before google-benchmark sees it): every
  // make_instance's add_region pulls its traces from the persistent store's
  // L2 tier instead of re-synthesizing them — a warmed run of this bench
  // performs zero syntheses.
  const auto sweep_store = bench::init_store(argc, argv);
  const std::string metrics_path = bench::init_metrics(argc, argv);
  bench::BenchJsonWriter json = bench::init_bench_json(argc, argv);
  benchmark::Initialize(&argc, argv);
  JsonTeeReporter reporter(&json);
  benchmark::RunSpecifiedBenchmarks(&reporter);

  // Summary table with the paper's headline checks.
  util::Table table({"Setting", "solve time (ms)", "peak RSS (MB)", "within paper bound"});
  table.set_title("Figure 17 summary (paper bound: <=3000 ms, <=200 MB)");
  for (const auto& [servers, apps] : std::vector<std::pair<std::size_t, std::size_t>>{
           {100, 50}, {400, 50}, {400, 140}}) {
    Instance inst = make_instance(servers, apps);
    double ms = 0.0;
    run_once(inst, &ms);
    const double rss = peak_rss_mb();
    table.add_row({std::to_string(inst.cluster.all_servers().size()) + " servers x " +
                       std::to_string(apps) + " apps",
                   util::format_fixed(ms, 1), util::format_fixed(rss, 0),
                   ms <= 3000.0 && rss <= 200.0 ? "yes" : "NO"});
    json.add_row("summary/" + std::to_string(servers) + "x" + std::to_string(apps), 1,
                 {{"solve_ms", ms}, {"peak_rss_mb", rss}});
  }
  table.print(std::cout);
  const bool json_written = json.write();
  bench::print_takeaway(
      "Incremental placement completes well within the paper's 3 s / 200 MB envelope at "
      "400 servers x 140 applications.");
  bench::print_store_stats(sweep_store);
  const bool metrics_written = bench::write_metrics_json(metrics_path);
  return json_written && metrics_written ? 0 : 1;
}
