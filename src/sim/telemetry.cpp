#include "sim/telemetry.hpp"

#include <algorithm>

#include "sim/datacenter.hpp"
#include "sim/server.hpp"

namespace carbonedge::sim {

SiteEpochRecord make_site_epoch_record(const EdgeDataCenter& site, double intensity_g_kwh,
                                       double epoch_hours, bool account_base_power) {
  SiteEpochRecord record;
  const double watts = account_base_power ? site.power_draw_w() : site.dynamic_power_w();
  record.energy_wh = watts * epoch_hours;
  record.intensity_g_kwh = intensity_g_kwh;
  record.carbon_g = record.energy_wh / 1000.0 * record.intensity_g_kwh;
  record.apps_hosted = static_cast<std::uint32_t>(site.app_count());
  for (const EdgeServer& server : site.servers()) {
    for (const AppInstance& instance : server.apps()) record.rps_hosted += instance.rps;
  }
  return record;
}

double EpochRecord::energy_wh() const noexcept {
  double total = migration_energy_wh;
  for (const SiteEpochRecord& s : sites) total += s.energy_wh;
  return total;
}

double EpochRecord::carbon_g() const noexcept {
  double total = migration_carbon_g;
  for (const SiteEpochRecord& s : sites) total += s.carbon_g;
  return total;
}

double EpochRecord::mean_rtt_ms() const noexcept {
  return rps_total > 0.0 ? rtt_weighted_sum_ms / rps_total : 0.0;
}

double EpochRecord::mean_response_ms() const noexcept {
  return rps_total > 0.0 ? response_weighted_sum_ms / rps_total : 0.0;
}

void Telemetry::record(EpochRecord record) { epochs_.push_back(std::move(record)); }

double Telemetry::total_energy_wh() const noexcept {
  double total = 0.0;
  for (const EpochRecord& e : epochs_) total += e.energy_wh();
  return total;
}

double Telemetry::total_carbon_g() const noexcept {
  double total = 0.0;
  for (const EpochRecord& e : epochs_) total += e.carbon_g();
  return total;
}

double Telemetry::mean_rtt_ms() const noexcept {
  double weighted = 0.0;
  double rps = 0.0;
  for (const EpochRecord& e : epochs_) {
    weighted += e.rtt_weighted_sum_ms;
    rps += e.rps_total;
  }
  return rps > 0.0 ? weighted / rps : 0.0;
}

double Telemetry::mean_response_ms() const noexcept {
  double weighted = 0.0;
  double rps = 0.0;
  for (const EpochRecord& e : epochs_) {
    weighted += e.response_weighted_sum_ms;
    rps += e.rps_total;
  }
  return rps > 0.0 ? weighted / rps : 0.0;
}

std::uint64_t Telemetry::total_placed() const noexcept {
  std::uint64_t total = 0;
  for (const EpochRecord& e : epochs_) total += e.apps_placed;
  return total;
}

std::uint64_t Telemetry::total_rejected() const noexcept {
  std::uint64_t total = 0;
  for (const EpochRecord& e : epochs_) total += e.apps_rejected;
  return total;
}

std::vector<double> Telemetry::carbon_by_site(std::size_t first, std::size_t last) const {
  std::vector<double> totals;
  last = std::min(last, epochs_.size());
  for (std::size_t e = first; e < last; ++e) {
    const EpochRecord& record = epochs_[e];
    if (totals.size() < record.sites.size()) totals.resize(record.sites.size(), 0.0);
    for (std::size_t s = 0; s < record.sites.size(); ++s) totals[s] += record.sites[s].carbon_g;
  }
  return totals;
}

std::vector<double> Telemetry::carbon_by_site() const {
  return carbon_by_site(0, epochs_.size());
}

std::vector<double> Telemetry::apps_by_site(std::size_t first, std::size_t last) const {
  std::vector<double> totals;
  last = std::min(last, epochs_.size());
  const std::size_t window = last > first ? last - first : 1;
  for (std::size_t e = first; e < last; ++e) {
    const EpochRecord& record = epochs_[e];
    if (totals.size() < record.sites.size()) totals.resize(record.sites.size(), 0.0);
    for (std::size_t s = 0; s < record.sites.size(); ++s) {
      totals[s] += static_cast<double>(record.sites[s].apps_hosted);
    }
  }
  for (double& t : totals) t /= static_cast<double>(window);
  return totals;
}

std::vector<double> Telemetry::load_intensity_sample() const {
  std::vector<double> sample;
  for (const EpochRecord& e : epochs_) {
    for (const SiteEpochRecord& s : e.sites) {
      if (s.rps_hosted > 0.0) {
        // One sample per site-epoch, weighted by whole units of rps so the
        // CDF reflects where load actually ran.
        const auto units = static_cast<std::size_t>(s.rps_hosted + 0.5);
        for (std::size_t u = 0; u < std::max<std::size_t>(1, units); ++u) {
          sample.push_back(s.intensity_g_kwh);
        }
      }
    }
  }
  return sample;
}

}  // namespace carbonedge::sim
