// Descriptive statistics and empirical distributions used throughout the
// evaluation harness (CDFs of carbon savings, latency percentiles, min-max
// normalization for the multi-objective policy, ...).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace carbonedge::util {

/// Arithmetic mean; 0 for an empty span.
[[nodiscard]] double mean(std::span<const double> values) noexcept;

/// Population variance; 0 for spans shorter than 2.
[[nodiscard]] double variance(std::span<const double> values) noexcept;

/// Population standard deviation.
[[nodiscard]] double stddev(std::span<const double> values) noexcept;

/// Minimum / maximum; 0 for empty spans.
[[nodiscard]] double min_value(std::span<const double> values) noexcept;
[[nodiscard]] double max_value(std::span<const double> values) noexcept;

/// Sum of all values.
[[nodiscard]] double sum(std::span<const double> values) noexcept;

/// Linear-interpolated percentile, p in [0, 100]. 0 for empty spans.
[[nodiscard]] double percentile(std::span<const double> values, double p);

/// Median (50th percentile).
[[nodiscard]] double median(std::span<const double> values);

/// Min-max normalization of `value` into [0,1] given observed bounds.
/// Degenerate ranges (hi <= lo) normalize to 0.
[[nodiscard]] double minmax_normalize(double value, double lo, double hi) noexcept;

/// Summary of a sample, convenient for bench output rows.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double p25 = 0.0;
  double median = 0.0;
  double p75 = 0.0;
  double p95 = 0.0;
  double max = 0.0;
};

[[nodiscard]] Summary summarize(std::span<const double> values);

/// Empirical cumulative distribution function over a sample.
///
/// Built once from a sample; queries are O(log n). Used for the Figure 5
/// radius-saving CDFs and the Figure 11 load-distribution CDFs.
class EmpiricalCdf {
 public:
  EmpiricalCdf() = default;
  explicit EmpiricalCdf(std::vector<double> sample);

  /// Fraction of sample values <= x, in [0, 1].
  [[nodiscard]] double at(double x) const noexcept;

  /// Inverse CDF: smallest sample value v with CDF(v) >= q, q in (0, 1].
  [[nodiscard]] double quantile(double q) const noexcept;

  [[nodiscard]] std::size_t size() const noexcept { return sorted_.size(); }
  [[nodiscard]] bool empty() const noexcept { return sorted_.empty(); }
  [[nodiscard]] const std::vector<double>& sorted_sample() const noexcept { return sorted_; }

  /// Evaluate the CDF at `points` evenly spaced x positions spanning the
  /// sample range; returns (x, F(x)) pairs — handy for printing curves.
  [[nodiscard]] std::vector<std::pair<double, double>> curve(std::size_t points) const;

 private:
  std::vector<double> sorted_;
};

}  // namespace carbonedge::util
