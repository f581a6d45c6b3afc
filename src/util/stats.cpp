#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

namespace carbonedge::util {

double mean(std::span<const double> values) noexcept {
  if (values.empty()) return 0.0;
  double total = 0.0;
  for (const double v : values) total += v;
  return total / static_cast<double>(values.size());
}

double variance(std::span<const double> values) noexcept {
  if (values.size() < 2) return 0.0;
  const double mu = mean(values);
  double acc = 0.0;
  for (const double v : values) acc += (v - mu) * (v - mu);
  return acc / static_cast<double>(values.size());
}

double stddev(std::span<const double> values) noexcept { return std::sqrt(variance(values)); }

double min_value(std::span<const double> values) noexcept {
  return values.empty() ? 0.0 : *std::min_element(values.begin(), values.end());
}

double max_value(std::span<const double> values) noexcept {
  return values.empty() ? 0.0 : *std::max_element(values.begin(), values.end());
}

double sum(std::span<const double> values) noexcept {
  double total = 0.0;
  for (const double v : values) total += v;
  return total;
}

double percentile(std::span<const double> values, double p) {
  if (values.empty()) return 0.0;
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  p = std::clamp(p, 0.0, 100.0);
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double median(std::span<const double> values) { return percentile(values, 50.0); }

double minmax_normalize(double value, double lo, double hi) noexcept {
  if (hi <= lo) return 0.0;
  return std::clamp((value - lo) / (hi - lo), 0.0, 1.0);
}

Summary summarize(std::span<const double> values) {
  Summary s;
  s.count = values.size();
  if (values.empty()) return s;
  s.mean = mean(values);
  s.stddev = stddev(values);
  s.min = min_value(values);
  s.max = max_value(values);
  s.p25 = percentile(values, 25.0);
  s.median = percentile(values, 50.0);
  s.p75 = percentile(values, 75.0);
  s.p95 = percentile(values, 95.0);
  return s;
}

EmpiricalCdf::EmpiricalCdf(std::vector<double> sample) : sorted_(std::move(sample)) {
  std::sort(sorted_.begin(), sorted_.end());
}

double EmpiricalCdf::at(double x) const noexcept {
  if (sorted_.empty()) return 0.0;
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) / static_cast<double>(sorted_.size());
}

double EmpiricalCdf::quantile(double q) const noexcept {
  if (sorted_.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(sorted_.size());
  std::size_t index = rank <= 1.0 ? 0 : static_cast<std::size_t>(std::ceil(rank)) - 1;
  index = std::min(index, sorted_.size() - 1);
  return sorted_[index];
}

std::vector<std::pair<double, double>> EmpiricalCdf::curve(std::size_t points) const {
  std::vector<std::pair<double, double>> out;
  if (sorted_.empty() || points == 0) return out;
  const double lo = sorted_.front();
  const double hi = sorted_.back();
  out.reserve(points);
  for (std::size_t i = 0; i < points; ++i) {
    const double x =
        points == 1 ? hi : lo + (hi - lo) * static_cast<double>(i) / static_cast<double>(points - 1);
    out.emplace_back(x, at(x));
  }
  return out;
}

}  // namespace carbonedge::util
