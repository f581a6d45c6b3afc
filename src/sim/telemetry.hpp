// Telemetry service (Section 5.1 component 1/3/4): per-epoch energy,
// carbon, latency, and placement accounting, aggregated per site and in
// total. Every evaluation metric in Section 6 (carbon savings %, latency
// increase ms, energy) is computed from these records.
#pragma once

#include <cstdint>
#include <vector>

#include "util/histogram.hpp"

namespace carbonedge::sim {

class EdgeDataCenter;

/// One site's accounting for one epoch.
struct SiteEpochRecord {
  double energy_wh = 0.0;       // total site energy (base + dynamic)
  double carbon_g = 0.0;        // energy x zone carbon intensity
  double intensity_g_kwh = 0.0; // zone carbon intensity this epoch
  std::uint32_t apps_hosted = 0;
  double rps_hosted = 0.0;
};

/// One site's full epoch accounting from its current server states — a pure
/// function of (site, intensity); the simulation engine fills
/// EpochRecord::sites with one per site, in site order.
[[nodiscard]] SiteEpochRecord make_site_epoch_record(const EdgeDataCenter& site,
                                                     double intensity_g_kwh,
                                                     double epoch_hours,
                                                     bool account_base_power);

/// Cluster-wide accounting for one epoch.
struct EpochRecord {
  std::uint32_t epoch = 0;
  std::vector<SiteEpochRecord> sites;
  double rtt_weighted_sum_ms = 0.0;  // sum over apps of rtt * rps
  double response_weighted_sum_ms = 0.0;  // network rtt + service time
  double rps_total = 0.0;
  std::uint32_t apps_placed = 0;    // new placements this epoch
  std::uint32_t apps_rejected = 0;  // arrivals with no feasible server
  // Data-movement overhead of migrations performed this epoch (charged on
  // top of the per-site operational energy/carbon).
  double migration_energy_wh = 0.0;
  double migration_carbon_g = 0.0;
  std::uint32_t migrations = 0;
  std::uint32_t failures = 0;       // servers crashed this epoch

  [[nodiscard]] double energy_wh() const noexcept;   // sites + migration
  [[nodiscard]] double carbon_g() const noexcept;    // sites + migration
  [[nodiscard]] double mean_rtt_ms() const noexcept;
  [[nodiscard]] double mean_response_ms() const noexcept;
};

/// Collected series over a simulation run.
class Telemetry {
 public:
  void record(EpochRecord record);

  [[nodiscard]] const std::vector<EpochRecord>& epochs() const noexcept { return epochs_; }
  [[nodiscard]] std::size_t size() const noexcept { return epochs_.size(); }

  // Run-level aggregates.
  [[nodiscard]] double total_energy_wh() const noexcept;
  [[nodiscard]] double total_carbon_g() const noexcept;
  [[nodiscard]] double total_carbon_kg() const noexcept { return total_carbon_g() / 1e3; }
  [[nodiscard]] double mean_rtt_ms() const noexcept;          // request-weighted
  [[nodiscard]] double mean_response_ms() const noexcept;     // request-weighted
  [[nodiscard]] std::uint64_t total_placed() const noexcept;
  [[nodiscard]] std::uint64_t total_rejected() const noexcept;

  /// Carbon per site summed over a [first, last) epoch window.
  [[nodiscard]] std::vector<double> carbon_by_site(std::size_t first, std::size_t last) const;
  [[nodiscard]] std::vector<double> carbon_by_site() const;
  /// Hosted-app count per site averaged over a window (Fig. 13d).
  [[nodiscard]] std::vector<double> apps_by_site(std::size_t first, std::size_t last) const;

  /// Sample of per-epoch, per-site carbon intensity weighted by hosted rps —
  /// the "load distribution" CDF of Figure 11c (each unit of served load
  /// contributes its zone's intensity).
  [[nodiscard]] std::vector<double> load_intensity_sample() const;

  /// Request-weighted end-to-end response-time distribution across the run
  /// (network RTT + service time). Fed by the simulation engine.
  [[nodiscard]] const util::Histogram& response_histogram() const noexcept {
    return response_hist_;
  }
  void add_response_sample(double response_ms, double rps_weight) noexcept {
    response_hist_.add(response_ms, rps_weight);
    if (window_sink_ != nullptr) window_sink_->add(response_ms, rps_weight);
  }
  /// Secondary histogram fed the same response samples as the run-level one
  /// (the serving mode's per-window p50/p99 view; the owner resets it at
  /// window boundaries). Never read by this class and never affects the
  /// run-level accounting; nullptr detaches. The sink must outlive its
  /// attachment.
  void set_window_sink(util::Histogram* sink) noexcept { window_sink_ = sink; }
  /// Replace the response histogram wholesale (the store's deserialization
  /// path, store/codecs.hpp; not used by the simulation engine).
  void set_response_histogram(util::Histogram histogram) noexcept {
    response_hist_ = std::move(histogram);
  }
  [[nodiscard]] double response_percentile(double p) const noexcept {
    return response_hist_.quantile(p / 100.0);
  }

 private:
  std::vector<EpochRecord> epochs_;
  util::Histogram response_hist_{0.0, 500.0, 1000};
  util::Histogram* window_sink_ = nullptr;  // not owned
};

}  // namespace carbonedge::sim
