#include "util/histogram.hpp"

#include <algorithm>
#include <stdexcept>

namespace carbonedge::util {

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(bins == 0 ? 1 : bins)),
      bins_(bins == 0 ? 1 : bins, 0.0) {
  if (hi <= lo) throw std::invalid_argument("histogram: hi must exceed lo");
}

void Histogram::add(double value, double weight) noexcept {
  if (weight <= 0.0) return;
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  total_weight_ += weight;
  weighted_sum_ += value * weight;
  const double offset = (value - lo_) / width_;
  std::size_t index = 0;
  if (offset > 0.0) {
    index = std::min(bins_.size() - 1, static_cast<std::size_t>(offset));
  }
  bins_[index] += weight;
}

Histogram Histogram::restore(double lo, double hi, std::vector<double> bins,
                             double total_weight, double weighted_sum, std::uint64_t count,
                             double min, double max) {
  Histogram h(lo, hi, bins.size());
  if (bins.size() != h.bins_.size()) {
    throw std::invalid_argument("histogram: restore requires at least one bin");
  }
  h.bins_ = std::move(bins);
  h.total_weight_ = total_weight;
  h.weighted_sum_ = weighted_sum;
  h.count_ = count;
  if (count > 0) {
    h.min_ = min;
    h.max_ = max;
  }
  return h;
}

double Histogram::mean() const noexcept {
  return total_weight_ > 0.0 ? weighted_sum_ / total_weight_ : 0.0;
}

double Histogram::quantile(double q) const noexcept {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  if (q == 0.0) return min_;
  if (q == 1.0) return max_;
  const double target = q * total_weight_;
  double cumulative = 0.0;
  for (std::size_t i = 0; i < bins_.size(); ++i) {
    if (cumulative + bins_[i] >= target) {
      const double within = bins_[i] > 0.0 ? (target - cumulative) / bins_[i] : 0.0;
      const double value = lo_ + (static_cast<double>(i) + within) * width_;
      return std::clamp(value, min_, max_);
    }
    cumulative += bins_[i];
  }
  return max_;
}

}  // namespace carbonedge::util
