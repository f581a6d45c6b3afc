// Fixed-bin histogram with quantile queries. Telemetry uses it to track the
// response-time distribution across the whole run (Figure 9-style tail
// analysis) in O(1) memory instead of storing every sample.
#pragma once

#include <cstdint>
#include <vector>

namespace carbonedge::util {

class Histogram {
 public:
  /// Uniform bins over [lo, hi); out-of-range samples clamp into the edge
  /// bins. Defaults suit millisecond latencies.
  explicit Histogram(double lo = 0.0, double hi = 1000.0, std::size_t bins = 500);

  void add(double value, double weight = 1.0) noexcept;

  [[nodiscard]] double total_weight() const noexcept { return total_weight_; }
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  [[nodiscard]] double min() const noexcept { return count_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return count_ ? max_ : 0.0; }
  [[nodiscard]] double mean() const noexcept;

  /// Weighted quantile, q in [0, 1]; linear interpolation inside the bin.
  [[nodiscard]] double quantile(double q) const noexcept;

  [[nodiscard]] const std::vector<double>& bins() const noexcept { return bins_; }
  [[nodiscard]] double bin_lo() const noexcept { return lo_; }
  [[nodiscard]] double bin_hi() const noexcept { return hi_; }
  /// Sum of value*weight over all samples (mean() numerator). Exposed so a
  /// histogram's full state can be serialized (store/codecs.hpp).
  [[nodiscard]] double weighted_sum() const noexcept { return weighted_sum_; }

  /// Rebuild a histogram from previously-captured state (the store's
  /// deserialization path). `bins` must be non-empty; min/max are ignored
  /// when count is zero. The result is bit-identical to the instance the
  /// state was read from.
  [[nodiscard]] static Histogram restore(double lo, double hi, std::vector<double> bins,
                                         double total_weight, double weighted_sum,
                                         std::uint64_t count, double min, double max);

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<double> bins_;
  double total_weight_ = 0.0;
  double weighted_sum_ = 0.0;
  std::uint64_t count_ = 0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace carbonedge::util
