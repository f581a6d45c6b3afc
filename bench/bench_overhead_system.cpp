// Section 6.5 system overhead: per-workload decision latency (~3.3 ms at
// testbed scale) and deployment initiation latency (~1.01 s), measured on
// the mesoscale regional deployment.
#include <benchmark/benchmark.h>

#include "bench_util.hpp"
#include "carbon/service.hpp"
#include "core/orchestrator.hpp"
#include "core/placement_service.hpp"
#include "core/policy.hpp"
#include "core/problem.hpp"
#include "geo/latency.hpp"
#include "geo/region.hpp"
#include "sim/app_model.hpp"
#include "sim/datacenter.hpp"
#include "sim/device.hpp"
#include "sim/workload.hpp"
#include "util/table.hpp"

using namespace carbonedge;

namespace {

struct Testbed {
  sim::EdgeCluster cluster;
  carbon::CarbonIntensityService service;
  geo::LatencyProvider latency;

  Testbed()
      : cluster(sim::make_uniform_cluster(geo::florida_region(), 1, sim::DeviceType::kA2)) {
    service.add_region(geo::florida_region());
    latency = geo::LatencyProvider(geo::LatencyModel{}, cluster.cities());
  }
};

std::vector<sim::Application> one_batch(std::size_t n) {
  std::vector<sim::Application> apps;
  for (std::size_t i = 0; i < n; ++i) {
    sim::Application app;
    app.id = i;
    app.model = sim::ModelType::kResNet50;
    app.origin_site = i % 5;
    app.rps = 5.0;
    app.latency_limit_rtt_ms = 25.0;
    apps.push_back(app);
  }
  return apps;
}

void BM_DecisionLatency(benchmark::State& state) {
  Testbed testbed;
  const auto apps = one_batch(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    sim::EdgeCluster working = testbed.cluster;
    core::PlacementService service(core::PolicyConfig::carbon_edge());
    const std::vector<double> intensity =
        core::site_mean_intensity(working, testbed.service, /*now=*/12, /*horizon=*/1);
    core::PlacementLayout layout(working, testbed.latency);
    core::PlacementInput input;
    input.layout = &layout;
    input.site_mean_intensity = &intensity;
    benchmark::DoNotOptimize(service.place(input, apps));
  }
}
BENCHMARK(BM_DecisionLatency)->Arg(1)->Arg(5)->Arg(10)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  bench::print_header("Section 6.5", "System overhead: decision + deployment latency");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();

  // Deploy latency via the orchestrator pipeline.
  Testbed testbed;
  sim::EdgeCluster working = testbed.cluster;
  core::PlacementService service(core::PolicyConfig::carbon_edge());
  const std::vector<double> intensity =
      core::site_mean_intensity(working, testbed.service, /*now=*/12, /*horizon=*/1);
  core::PlacementLayout layout(working, testbed.latency);
  core::PlacementInput input;
  input.layout = &layout;
  input.site_mean_intensity = &intensity;
  const core::PlacementResult placement = service.place(input, one_batch(5));
  core::Orchestrator orchestrator;
  orchestrator.deploy(placement);

  util::Table table({"Stage", "Latency", "Paper"});
  table.set_title("Section 6.5: overheads");
  table.add_row({"Placement decision (5 apps x 5 DCs)",
                 util::format_fixed(placement.solve_time_ms, 2) + " ms", "~3.3 ms"});
  table.add_row({"Deploy initiation (per app)",
                 util::format_fixed(orchestrator.mean_deploy_ms() / 1000.0, 2) + " s",
                 "~1.01 s"});
  table.print(std::cout);
  bench::print_takeaway("Decision latency is milliseconds; deployment dominates (~1 s), as in "
                        "the paper's prototype measurements.");
  return 0;
}
