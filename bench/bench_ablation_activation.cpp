// Ablation: the server-activation term of Eq. 6.
// Starts a mesoscale cluster with most servers powered off and compares
// CarbonEdge with the activation term enabled vs zeroed out, with full
// (base + dynamic) energy accounting. Without the term, placement powers on
// green-but-idle servers eagerly and pays their base power.
//
// Expressed as three single-cell ScenarioGrids (the variants differ in the
// DeviceMix's initially_off_per_site and the power-manager config) merged
// into one ScenarioRunner dispatch.
#include "bench_util.hpp"
#include "core/policy.hpp"
#include "core/simulation.hpp"
#include "geo/region.hpp"
#include "runner/scenario_grid.hpp"

#include "runner/scenario_runner.hpp"
#include "sim/device.hpp"
#include "util/table.hpp"

using namespace carbonedge;

namespace {

// The central-EU day with a given activation handling. "all_on" zeroes the
// activation costs by pre-powering everything (so activation never enters
// the objective); otherwise the second server of each site starts cold and
// placement decides.
runner::Scenario make_variant(bool model_activation, bool manage_power) {
  core::SimulationConfig config;
  config.policy = core::PolicyConfig::carbon_edge();
  config.epochs = 24;
  // Bursty load: a large epoch-0 burst that departs after 6 epochs, then a
  // light trickle — so activated spare servers later sit idle and only the
  // power manager can reclaim their base power.
  config.workload.arrivals_per_site = 0.2;
  config.workload.initial_per_site = 6;
  config.workload.initial_lifetime_epochs = 6;
  config.workload.model_weights = {1.0, 1.0, 1.0, 0.0};
  config.workload.mean_lifetime_epochs = 8.0;
  config.workload.latency_limit_rtt_ms = 25.0;
  config.account_base_power = true;
  config.power.enabled = manage_power;
  config.power.min_on_per_site = 1;

  // Small Orin Nano servers (a handful of apps each) so the burst genuinely
  // needs the spare server and activation decisions have teeth.
  runner::DeviceMix mix;
  mix.name = "Orin Nano";
  mix.devices = {sim::DeviceType::kOrinNano};
  mix.servers_per_site = 2;
  mix.initially_off_per_site = model_activation ? 1 : 0;

  runner::ScenarioGrid grid(bench::apply_smoke_epochs(config));
  grid.with_regions({geo::central_eu_region()}).with_device_mixes({mix});
  return grid.expand().front();
}

}  // namespace

int main() {
  bench::print_header("Ablation", "Server-activation term (Eq. 6) and power management");

  std::vector<runner::Scenario> scenarios = {
      make_variant(/*model_activation=*/false, /*manage_power=*/false),
      make_variant(/*model_activation=*/true, /*manage_power=*/false),
      make_variant(/*model_activation=*/true, /*manage_power=*/true),
  };
  for (std::size_t i = 0; i < scenarios.size(); ++i) scenarios[i].index = i;
  const auto outcomes = runner::ScenarioRunner().run(std::move(scenarios));

  util::Table table({"Variant", "Carbon (g)", "Energy (Wh)", "Placed", "Rejected"});
  table.set_title("Eq. 6 activation-term ablation (24h, base power accounted)");
  const auto add = [&](const char* name, const core::SimulationResult& result) {
    table.add_row({name, util::format_fixed(result.telemetry.total_carbon_g(), 1),
                   util::format_fixed(result.telemetry.total_energy_wh(), 1),
                   std::to_string(result.apps_placed), std::to_string(result.apps_rejected)});
  };
  add("all servers pre-powered (no activation modeling)", outcomes[0].result);
  add("activation term active (half fleet starts off)", outcomes[1].result);
  add("activation term + idle power management", outcomes[2].result);
  table.print(std::cout);

  bench::print_takeaway(
      "Modeling activation keeps spare servers off unless load justifies them; adding the "
      "idle sweep reclaims base power after departures - both cut total emissions vs an "
      "always-on fleet.");
  return 0;
}
