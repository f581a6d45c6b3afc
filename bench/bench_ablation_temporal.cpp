// Ablation: temporal vs spatial workload shifting (paper Section 2.2, which
// cites prior findings that spatial shifting "has much more potential...
// there tend to be much larger differences in carbon between locations than
// within any one location over time"). Same batch workload, four modes:
//   * none            — Latency-aware, immediate start
//   * temporal only   — Latency-aware placement, arrivals may defer up to
//                       24 h waiting for a low-intensity hour at the origin
//   * spatial only    — CarbonEdge, immediate start
//   * both            — CarbonEdge + 24 h deferral
//
// Expressed as a ScenarioGrid over region x policy x defer-budget (8 two-
// week cells) dispatched in parallel by the ScenarioRunner.
#include "bench_util.hpp"
#include "core/policy.hpp"
#include "core/simulation.hpp"
#include "geo/region.hpp"
#include "runner/scenario_grid.hpp"

#include "runner/scenario_runner.hpp"
#include "util/table.hpp"

using namespace carbonedge;

int main() {
  bench::print_header("Ablation", "Temporal vs spatial shifting (Section 2.2)");

  const std::vector<geo::Region> regions = {geo::west_us_region(), geo::central_eu_region()};
  const std::vector<core::PolicyConfig> policies = {core::PolicyConfig::latency_aware(),
                                                    core::PolicyConfig::carbon_edge()};
  const std::vector<std::uint32_t> defers = {0, 24};

  core::SimulationConfig config;
  config.epochs = 14 * 24;  // two weeks, hourly
  config.workload.arrivals_per_site = 0.5;
  config.workload.mean_lifetime_epochs = 8.0;
  config.workload.model_weights = {0.0, 1.0, 0.0, 0.0};
  config.workload.latency_limit_rtt_ms = 25.0;
  config.forecast_horizon_hours = 6;

  runner::ScenarioGrid grid(bench::apply_smoke_epochs(config));
  grid.with_regions(regions).with_policies(policies).with_defer_epochs(defers);
  const auto outcomes = runner::ScenarioRunner().run(grid);

  // Row-major order: region (outermost), policy, defer budget (innermost).
  for (std::size_t r = 0; r < regions.size(); ++r) {
    const auto cell = [&](std::size_t policy, std::size_t defer) -> const core::SimulationResult& {
      return outcomes[(r * policies.size() + policy) * defers.size() + defer].result;
    };
    const core::SimulationResult& none = cell(0, 0);

    util::Table table({"Mode", "Carbon (g)", "Saving", "dRTT (ms)", "Deferrable"});
    table.set_title(regions[r].name + ": two weeks, ResNet50 workload");
    const auto add = [&](const char* name, const core::SimulationResult& result) {
      table.add_row({name, util::format_fixed(result.telemetry.total_carbon_g(), 1),
                     util::format_percent(core::carbon_saving(none, result)),
                     util::format_fixed(core::latency_increase_ms(none, result), 2),
                     std::to_string(result.apps_deferred)});
    };
    add("none (Latency-aware, immediate)", none);
    add("temporal only (defer <= 24h)", cell(0, 1));
    add("spatial only (CarbonEdge)", cell(1, 0));
    add("temporal + spatial", cell(1, 1));
    table.print(std::cout);
  }
  bench::print_takeaway(
      "Spatial shifting dominates temporal shifting at the edge (the paper's Section 2.2 "
      "premise): inter-zone differences dwarf intra-zone diurnal swings, and deferral "
      "adds little once placement is already carbon-aware.");
  return 0;
}
