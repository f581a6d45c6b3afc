#include "carbon/synthesizer.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <numbers>
#include <vector>

#include "util/random.hpp"

namespace carbonedge::carbon {
namespace {

constexpr double kPi = std::numbers::pi;

double clamp01(double x) noexcept { return std::clamp(x, 0.0, 1.0); }

/// Solar declination (degrees) for a day of year — standard approximation.
double declination_deg(std::uint32_t day_of_year) noexcept {
  return 23.44 * std::sin(2.0 * kPi * (284.0 + static_cast<double>(day_of_year) + 1.0) / 365.0);
}

/// Day length in hours at a latitude for a day of year.
double day_length_hours(double latitude_deg, std::uint32_t day) noexcept {
  const double lat = latitude_deg * kPi / 180.0;
  const double dec = declination_deg(day) * kPi / 180.0;
  const double cos_ha = -std::tan(lat) * std::tan(dec);
  if (cos_ha <= -1.0) return 24.0;  // midnight sun
  if (cos_ha >= 1.0) return 0.0;    // polar night
  return 2.0 * std::acos(cos_ha) * 12.0 / kPi;
}

/// Seasonal wind factor: windier winters in both hemispheres we model.
double wind_season(std::uint32_t day) noexcept {
  return 1.0 + 0.18 * std::cos(2.0 * kPi * (static_cast<double>(day) - 15.0) / 365.0);
}

/// Seasonal hydro factor: spring-melt bump.
double hydro_season(std::uint32_t day) noexcept {
  return 1.0 + 0.12 * std::sin(2.0 * kPi * (static_cast<double>(day) - 60.0) / 365.0);
}

/// The daylight window of one day at one latitude: the per-day part of
/// clear_sky.
struct SolarDay {
  double length = 0.0;  // hours of daylight
  double sunrise = 0.0;
  double sunset = 0.0;
  double amplitude = 0.0;  // clear-sky factor at solar noon
};

SolarDay solar_day(double latitude_deg, std::uint32_t day) noexcept {
  SolarDay sun;
  sun.length = day_length_hours(latitude_deg, day);
  sun.sunrise = 12.0 - sun.length / 2.0;
  sun.sunset = 12.0 + sun.length / 2.0;
  // Peak amplitude scales with the noon solar elevation (shorter winter days
  // also have a lower sun). The super-linear exponent reflects that winter
  // sun is both shorter and lower, compounding into a strongly seasonal
  // yield.
  sun.amplitude = std::pow(std::clamp(sun.length / 14.0, 0.0, 1.0), 1.8);
  return sun;
}

/// Clear-sky factor of one hour of a day: a half-sine across the daylight
/// window.
double clear_sky_hour(const SolarDay& sun, std::uint32_t hour) noexcept {
  if (sun.length <= 0.0) return 0.0;
  const double h = static_cast<double>(hour) + 0.5;  // mid-hour
  if (h <= sun.sunrise || h >= sun.sunset) return 0.0;
  return sun.amplitude * std::sin(kPi * (h - sun.sunrise) / sun.length);
}

/// Zone demand (fraction of capacity) at one hour of day, before the
/// seasonal factor and noise. Diurnal: trough ~04:00, morning ramp, evening
/// peak ~19:00.
double zone_demand(const ZoneSpec& zone, std::uint32_t hour) noexcept {
  const double h = static_cast<double>(hour);
  const double diurnal =
      0.5 - 0.5 * std::cos(2.0 * kPi * (h - 4.0) / 24.0) +
      0.22 * std::exp(-0.5 * std::pow((h - 19.0) / 2.5, 2.0));
  const double diurnal_norm = clamp01(diurnal / 1.2);

  const double base = zone.demand_base;
  const double peak = zone.demand_peak;
  return base + (peak - base) * diurnal_norm;
}

/// Seasonal demand factor: heating (winter peak) at high latitude, cooling
/// (summer peak) at low latitude; blend across the 33-45 degree band.
double demand_season(double latitude_deg, std::uint32_t day) noexcept {
  const double d = static_cast<double>(day);
  const double winter = std::cos(2.0 * kPi * (d - 15.0) / 365.0);
  const double summer = std::cos(2.0 * kPi * (d - 197.0) / 365.0);
  const double abs_lat = std::abs(latitude_deg);
  const double blend = clamp01((abs_lat - 33.0) / 12.0);  // 0 = hot, 1 = cold climate
  return 1.0 + 0.10 * (blend * winter + (1.0 - blend) * summer);
}

}  // namespace

double TraceSynthesizer::clear_sky(double latitude_deg, std::uint32_t hour,
                                   std::uint32_t day) noexcept {
  return clear_sky_hour(solar_day(latitude_deg, day), hour);
}

double TraceSynthesizer::demand_shape(const ZoneSpec& zone, std::uint32_t hour,
                                      std::uint32_t day) noexcept {
  return zone_demand(zone, hour) * demand_season(zone.latitude_deg, day);
}

CarbonTrace TraceSynthesizer::synthesize(const ZoneSpec& zone) const {
  util::Rng rng(util::mix64(params_.seed ^ util::fnv1a(zone.name)));

  const GenerationMix& cap = zone.capacity;
  const double nuclear = cap.at(EnergySource::kNuclear) * params_.nuclear_capacity_factor;
  const double import_fraction = std::clamp(params_.grid_import_fraction, 0.0, 1.0);

  // Every term that depends only on the day or only on the hour of day is
  // tabulated once, leaving the AR(1) updates, the noise draws and the
  // dispatch in the hourly loop. Only the days the horizon touches get a
  // row: a two-week trace builds 14.
  struct DayTerms {
    SolarDay sun;
    double wind_mean = 0.0;      // AR(1) target capacity factor
    double hydro = 0.0;          // run-of-river availability
    double demand_season = 0.0;  // seasonal demand factor
  };
  const std::uint32_t days =
      std::min(kDaysPerYear, params_.hours / kHoursPerDay +
                                 (params_.hours % kHoursPerDay != 0 ? 1 : 0));
  std::vector<DayTerms> by_day(days);
  for (std::uint32_t day = 0; day < days; ++day) {
    DayTerms& terms = by_day[day];
    terms.sun = solar_day(zone.latitude_deg, day);
    terms.wind_mean = 0.38 * wind_season(day);
    terms.hydro =
        cap.at(EnergySource::kHydro) * params_.hydro_capacity_factor * hydro_season(day);
    terms.demand_season = demand_season(zone.latitude_deg, day);
  }
  std::array<double, kHoursPerDay> demand_by_hour{};
  for (std::uint32_t hour = 0; hour < kHoursPerDay; ++hour) {
    demand_by_hour[hour] = zone_demand(zone, hour);
  }

  std::vector<double> intensity;
  intensity.reserve(params_.hours);
  // Running sum of the normalized hourly mixes, in hour order; only its
  // normalized total is kept.
  GenerationMix mix_sum;

  // AR(1) states, started at their stationary means.
  double cloud = 0.75;  // transmission factor in [0.35, 1]
  double wind = 0.38;   // capacity factor in [0.05, 0.95]

  for (std::uint32_t t = 0; t < params_.hours; ++t) {
    const std::uint32_t hour = hour_of_day(t);
    const DayTerms& today = by_day[day_of_year(t)];

    cloud = params_.cloud_persistence * cloud +
            (1.0 - params_.cloud_persistence) * 0.75 + params_.cloud_noise * rng.normal();
    cloud = std::clamp(cloud, 0.35, 1.0);
    wind = params_.wind_persistence * wind +
           (1.0 - params_.wind_persistence) * today.wind_mean + params_.wind_noise * rng.normal();
    wind = std::clamp(wind, 0.05, 0.95);

    double demand = demand_by_hour[hour] * today.demand_season *
                    (1.0 + params_.demand_noise * rng.normal());
    demand = std::max(demand, 0.05);

    // Must-run availability.
    const double solar = cap.at(EnergySource::kSolar) * clear_sky_hour(today.sun, hour) * cloud;
    const double wind_gen = cap.at(EnergySource::kWind) * wind;

    GenerationMix gen;
    double remaining = demand;
    // Must-run in curtailment-priority order: nuclear and hydro are the
    // least flexible, variable renewables are curtailed last-in.
    for (const auto& [source, avail] :
         {std::pair{EnergySource::kNuclear, nuclear}, {EnergySource::kHydro, today.hydro},
          {EnergySource::kWind, wind_gen}, {EnergySource::kSolar, solar}}) {
      const double used = std::min(avail, remaining);
      gen.set(source, used);
      remaining -= used;
      if (remaining <= 0.0) {
        remaining = 0.0;
      }
    }
    // Dispatchable thermal, merit order coal -> gas -> biomass -> oil.
    for (const EnergySource source :
         {EnergySource::kCoal, EnergySource::kGas, EnergySource::kBiomass,
          EnergySource::kOil}) {
      if (remaining <= 0.0) break;
      const double used = std::min(cap.at(source), remaining);
      gen.set(source, used);
      remaining -= used;
    }

    double served = gen.total();
    double weighted = 0.0;
    for (const EnergySource s : kAllSources) {
      weighted += gen.at(s) * carbon_intensity_g_per_kwh(s);
    }
    if (remaining > 1e-12) {  // shortfall met by imports
      weighted += remaining * kImportIntensity;
      served += remaining;
    }
    double ci = served > 0.0 ? weighted / served : 0.0;
    // Interconnection blending: a slice of consumption is imported.
    ci = (1.0 - import_fraction) * ci + import_fraction * kImportIntensity;
    intensity.push_back(ci);
    gen.normalize();
    for (const EnergySource s : kAllSources) mix_sum.add(s, gen.at(s));
  }

  mix_sum.normalize();
  return CarbonTrace(zone.name, std::move(intensity), mix_sum);
}

}  // namespace carbonedge::carbon
