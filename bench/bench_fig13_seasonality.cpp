// Figure 13: effect of seasonality — monthly carbon savings and latency
// increases for the US/EU CDNs (a, b), monthly zone intensities for Paris /
// Oslo / Vienna / Zagreb (c), and monthly application placements at those
// sites under CarbonEdge with monthly re-optimization (d). Paper: savings
// vary by up to ~10% across months in Europe; per-site placement counts
// swing by up to ~3x.
//
// Expressed as one ScenarioRunner dispatch: the four continent x policy
// year-long cells of (a)/(b) plus the monthly-migration cell of (c)/(d) all
// run concurrently. Re-optimization for (d) is aligned with calendar months
// (reoptimize_monthly) — the former fixed 31*8-epoch cadence drifted off the
// month_start_hour reporting windows from February onward.
#include <algorithm>

#include "bench_util.hpp"
#include "carbon/caltime.hpp"
#include "core/policy.hpp"
#include "core/simulation.hpp"
#include "geo/catalog.hpp"
#include "geo/coord.hpp"
#include "geo/region.hpp"
#include "geo/site.hpp"
#include "runner/scenario_grid.hpp"

#include "runner/scenario_runner.hpp"
#include "util/table.hpp"

using namespace carbonedge;

int main(int argc, char** argv) {
  bench::print_header("Figure 13", "Effect of seasonality");
  // --store: the five year-long cells resume from the persistent store.
  const auto sweep_store = bench::init_store(argc, argv);
  const std::string metrics_path = bench::init_metrics(argc, argv);

  const std::vector<core::PolicyConfig> policies = {core::PolicyConfig::latency_aware(),
                                                    core::PolicyConfig::carbon_edge()};

  // (c)/(d) deployment: the EU CDN plus the paper's spotlight zones.
  geo::Region eu = geo::cdn_region(geo::Continent::kEurope, 30);
  const auto& db = geo::builtin_sites();
  for (const char* name : {"Paris", "Oslo", "Vienna", "Zagreb"}) {
    const geo::SiteId id = db.require(name).id;
    if (std::find(eu.cities.begin(), eu.cities.end(), id) == eu.cities.end()) {
      eu.cities.push_back(id);
    }
  }

  // One scenario list: continent x policy for (a)/(b), then the CarbonEdge
  // monthly-migration cell for (d).
  runner::ScenarioGrid monthly_grid(bench::apply_smoke_epochs(bench::cdn_config()));
  monthly_grid
      .with_regions({geo::cdn_region(geo::Continent::kNorthAmerica, 30),
                     geo::cdn_region(geo::Continent::kEurope, 30)})
      .with_policies(policies);
  std::vector<runner::Scenario> scenarios = monthly_grid.expand();

  core::SimulationConfig migration_config = bench::apply_smoke_epochs(bench::cdn_config());
  migration_config.policy = core::PolicyConfig::carbon_edge();
  migration_config.reoptimize_monthly = true;  // calendar-aligned migration
  runner::ScenarioGrid migration_grid(migration_config);
  migration_grid.with_regions({eu});
  const std::size_t migration_cell = scenarios.size();
  for (runner::Scenario& scenario : migration_grid.expand()) {
    scenario.index = scenarios.size();
    scenarios.push_back(std::move(scenario));
  }
  const auto outcomes =
      runner::ScenarioRunner(runner::ScenarioRunnerOptions{.threads = 0,
                                                           .sweep_store = sweep_store})
          .run(std::move(scenarios));

  // (a)/(b): monthly savings and latency increases, both continents.
  util::Table monthly({"Month", "US saving", "US dRTT", "EU saving", "EU dRTT"});
  monthly.set_title("Figure 13a/b: monthly carbon savings and latency increases");

  std::vector<std::vector<std::string>> cells(carbon::kMonthsPerYear);
  for (std::uint32_t m = 0; m < carbon::kMonthsPerYear; ++m) {
    cells[m].push_back(std::string(carbon::month_name(m)));
  }

  for (std::size_t c = 0; c < 2; ++c) {
    const core::SimulationResult& base = outcomes[c * policies.size()].result;
    const core::SimulationResult& ce = outcomes[c * policies.size() + 1].result;
    for (std::uint32_t m = 0; m < carbon::kMonthsPerYear; ++m) {
      // Epoch window of month m (3h epochs).
      const std::size_t first = carbon::month_start_hour(m) / 3;
      const std::size_t last = first + carbon::days_in_month(m) * 8;
      double base_g = 0.0;
      double ce_g = 0.0;
      double base_rtt = 0.0;
      double base_rps = 0.0;
      double ce_rtt = 0.0;
      double ce_rps = 0.0;
      for (std::size_t e = first; e < last && e < base.telemetry.size(); ++e) {
        base_g += base.telemetry.epochs()[e].carbon_g();
        ce_g += ce.telemetry.epochs()[e].carbon_g();
        base_rtt += base.telemetry.epochs()[e].rtt_weighted_sum_ms;
        base_rps += base.telemetry.epochs()[e].rps_total;
        ce_rtt += ce.telemetry.epochs()[e].rtt_weighted_sum_ms;
        ce_rps += ce.telemetry.epochs()[e].rps_total;
      }
      const double saving = base_g > 0.0 ? (base_g - ce_g) / base_g : 0.0;
      const double drtt =
          (ce_rps > 0.0 ? ce_rtt / ce_rps : 0.0) - (base_rps > 0.0 ? base_rtt / base_rps : 0.0);
      cells[m].push_back(util::format_percent(saving));
      cells[m].push_back(util::format_fixed(drtt, 1));
    }
  }
  for (auto& row : cells) monthly.add_row(std::move(row));
  monthly.print(std::cout);

  // (c)/(d): four named EU zones — monthly intensity and CarbonEdge
  // placements with calendar-aligned monthly re-optimization. The service is
  // rebuilt here for the intensity column; the TraceCache hands back the
  // very traces the sweep ran against, so no re-synthesis happens.
  const core::SimulationResult& result = outcomes[migration_cell].result;
  const auto service = bench::make_service(eu);

  const std::vector<std::string> spotlight = {"Paris", "Oslo", "Vienna", "Zagreb"};
  const auto cities = eu.resolve();
  util::Table zone_ci({"Month", "Paris", "Oslo", "Vienna", "Zagreb"});
  zone_ci.set_title("Figure 13c: monthly carbon intensity (g CO2eq/kWh)");
  util::Table zone_apps({"Month", "Paris", "Oslo", "Vienna", "Zagreb"});
  zone_apps.set_title("Figure 13d: mean applications hosted (CarbonEdge, monthly migration)");
  for (std::uint32_t m = 0; m < carbon::kMonthsPerYear; ++m) {
    std::vector<double> ci_row;
    std::vector<double> app_row;
    const std::size_t first = carbon::month_start_hour(m) / 3;
    const std::size_t last = first + carbon::days_in_month(m) * 8;
    const auto apps = result.telemetry.apps_by_site(first, last);
    for (const std::string& name : spotlight) {
      ci_row.push_back(service.trace(name).monthly_mean(m));
      double hosted = 0.0;
      for (std::size_t s = 0; s < cities.size(); ++s) {
        if (cities[s].name == name && s < apps.size()) hosted = apps[s];
      }
      app_row.push_back(hosted);
    }
    zone_ci.add_row(std::string(carbon::month_name(m)), ci_row, 0);
    zone_apps.add_row(std::string(carbon::month_name(m)), app_row, 1);
  }
  zone_ci.print(std::cout);
  zone_apps.print(std::cout);
  bench::print_takeaway(
      "Monthly intensity shifts re-rank zones and re-route applications across seasons "
      "(paper: up to 3x swings in per-site assignments; ~10% savings variation in Europe).");
  bench::print_store_stats(sweep_store);
  return bench::write_metrics_json(metrics_path) ? 0 : 1;
}
