// Figure 1: energy mix (a) and four-day carbon-intensity series (b) for
// Ontario (Toronto), California (Los Angeles), New York, and Poland
// (Warsaw). Expected shape: Ontario nuclear/hydro-dominated and very clean;
// Poland coal-dominated and ~an order of magnitude dirtier.
#include "bench_util.hpp"
#include "carbon/caltime.hpp"
#include "carbon/mix.hpp"
#include "carbon/source.hpp"

#include "carbon/synthesizer.hpp"
#include "carbon/trace.hpp"
#include "carbon/zone.hpp"
#include "geo/region.hpp"
#include "geo/site.hpp"
#include "util/table.hpp"

using namespace carbonedge;

int main() {
  bench::print_header("Figure 1", "Energy mix and carbon intensity of four regions");

  const geo::Region region = geo::macro_region();
  const auto& catalog = carbon::ZoneCatalog::builtin();
  const carbon::TraceSynthesizer synthesizer;

  // (a) Realized generation shares over the year.
  util::Table mix_table({"Zone", "hydro", "solar", "wind", "nuclear", "fossil", "other"});
  mix_table.set_title("Figure 1a: energy source ratio (realized, year average)");
  std::vector<carbon::CarbonTrace> traces;
  for (const geo::City& city : region.resolve()) {
    traces.push_back(synthesizer.synthesize(catalog.spec_for(city)));
    const carbon::GenerationMix avg = traces.back().average_mix();
    const double fossil = avg.at(carbon::EnergySource::kGas) +
                          avg.at(carbon::EnergySource::kOil) +
                          avg.at(carbon::EnergySource::kCoal);
    const double other = avg.at(carbon::EnergySource::kBiomass);
    mix_table.add_row(city.name + " (" + city.country + ")",
                      {avg.at(carbon::EnergySource::kHydro), avg.at(carbon::EnergySource::kSolar),
                       avg.at(carbon::EnergySource::kWind),
                       avg.at(carbon::EnergySource::kNuclear), fossil, other},
                      3);
  }
  mix_table.print(std::cout);

  // (b) Hourly carbon intensity July 15-18 (paper's window), 6h sampling.
  const carbon::HourIndex start = carbon::month_start_hour(6) + 14 * 24;  // July 15
  util::Table series({"Hour (July 15-18)", "Toronto", "Los Angeles", "New York", "Warsaw"});
  series.set_title("Figure 1b: carbon intensity (g CO2eq/kWh)");
  for (std::uint32_t h = 0; h < 4 * 24; h += 6) {
    std::vector<double> row;
    for (const carbon::CarbonTrace& trace : traces) row.push_back(trace.at(start + h));
    series.add_row("t+" + std::to_string(h) + "h", row, 1);
  }
  series.print(std::cout);

  const double ontario = traces[0].yearly_mean();
  const double poland = traces[3].yearly_mean();
  bench::print_takeaway("Yearly mean: Ontario " + util::format_fixed(ontario, 0) +
                        " vs Poland " + util::format_fixed(poland, 0) + " g/kWh (" +
                        util::format_fixed(poland / ontario, 1) +
                        "x) - large spatial differences exist at macro scales (paper Fig 1).");
  return 0;
}
