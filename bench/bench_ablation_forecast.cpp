// Ablation: forecast quality for the mean forecast Ī_j. Compares oracle /
// persistence / moving-average / diurnal forecasters: (a) MAPE against the
// true trace and (b) end-to-end carbon savings when CarbonEdge places with
// each forecaster.
//
// (b) is a ScenarioGrid over the forecaster axis (forecaster x policy, 8
// month-long cells) dispatched in parallel by the ScenarioRunner; (a) is
// pure trace arithmetic and stays inline.
#include "bench_util.hpp"
#include "carbon/caltime.hpp"

#include "carbon/forecast.hpp"
#include "carbon/service.hpp"
#include "carbon/trace.hpp"
#include "core/policy.hpp"
#include "core/simulation.hpp"
#include "geo/region.hpp"
#include "geo/site.hpp"
#include "runner/scenario_grid.hpp"
#include "runner/scenario_runner.hpp"
#include "util/table.hpp"

using namespace carbonedge;

int main() {
  bench::print_header("Ablation", "Carbon-intensity forecasters");

  const geo::Region region = geo::central_eu_region();

  // (a) Forecast accuracy per zone.
  {
    carbon::CarbonIntensityService reference;
    reference.add_region(region);
    util::Table table({"Zone", "persistence", "moving_average(24h)", "diurnal(7d)"});
    table.set_title("Forecast MAPE over Feb-Nov, 24h horizon");
    for (const geo::City& city : region.resolve()) {
      const carbon::CarbonTrace& trace = reference.trace(city.name);
      const carbon::PersistenceForecaster persistence;
      const carbon::MovingAverageForecaster moving(24);
      const carbon::DiurnalForecaster diurnal(7);
      const carbon::HourIndex start = 24 * 31;
      const carbon::HourIndex end = carbon::kHoursPerYear - 24 * 31;
      table.add_row(city.name,
                    {100.0 * carbon::forecast_mape(persistence, trace, start, end, 24),
                     100.0 * carbon::forecast_mape(moving, trace, start, end, 24),
                     100.0 * carbon::forecast_mape(diurnal, trace, start, end, 24)},
                    1);
    }
    table.print(std::cout);
  }

  // (b) End-to-end: savings when placing with each forecaster.
  const std::vector<std::string> forecasters = {"oracle", "persistence", "moving_average",
                                                "diurnal"};
  const std::vector<core::PolicyConfig> policies = {core::PolicyConfig::latency_aware(),
                                                    core::PolicyConfig::carbon_edge()};
  core::SimulationConfig config;
  config.epochs = 31 * 24;
  config.workload.arrivals_per_site = 0.3;
  config.workload.model_weights = {1.0, 1.0, 1.0, 0.0};
  config.workload.mean_lifetime_epochs = 24.0;
  config.workload.latency_limit_rtt_ms = 25.0;
  config.forecast_horizon_hours = 24;

  runner::ScenarioGrid grid(bench::apply_smoke_epochs(config));
  grid.with_regions({region}).with_policies(policies).with_forecasters(forecasters);
  const auto outcomes = runner::ScenarioRunner().run(grid);

  util::Table table({"Forecaster", "Saving vs Latency-aware", "dRTT (ms)"});
  table.set_title("CarbonEdge placement quality per forecaster (1 month, Central EU)");
  // Row-major order: policy (outer), forecaster (inner).
  for (std::size_t f = 0; f < forecasters.size(); ++f) {
    const core::SimulationResult& base = outcomes[f].result;
    const core::SimulationResult& ce = outcomes[forecasters.size() + f].result;
    table.add_row({forecasters[f], util::format_percent(core::carbon_saving(base, ce)),
                   util::format_fixed(core::latency_increase_ms(base, ce), 1)});
  }
  table.print(std::cout);
  bench::print_takeaway(
      "Spatial rank between zones is stable, so even simple forecasters retain nearly all "
      "of the oracle's savings; diurnal climatology is the best causal choice.");
  return 0;
}
