#include "obs/metrics.hpp"

#include <algorithm>
#include <stdexcept>

namespace carbonedge::obs {

void Gauge::add(double d) noexcept {
  std::uint64_t expected = bits_.load(std::memory_order_relaxed);
  while (!bits_.compare_exchange_weak(
      expected, std::bit_cast<std::uint64_t>(std::bit_cast<double>(expected) + d),
      std::memory_order_relaxed)) {
  }
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {}

void Histogram::observe(double v) noexcept {
  // First bound with v <= bound; past the last bound lands in the overflow
  // bucket (index bounds_.size()).
  const std::size_t index = static_cast<std::size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin());
  buckets_[index].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t expected = sum_bits_.load(std::memory_order_relaxed);
  while (!sum_bits_.compare_exchange_weak(
      expected, std::bit_cast<std::uint64_t>(std::bit_cast<double>(expected) + v),
      std::memory_order_relaxed)) {
  }
}

Registry& Registry::global() {
  static Registry instance;
  return instance;
}

Counter& Registry::counter(std::string_view name, std::string_view help, View view) {
  const std::scoped_lock lock(mutex_);
  const auto it = metrics_.find(name);
  if (it != metrics_.end()) {
    if (it->second.kind != MetricKind::kCounter) {
      throw std::logic_error("obs: metric '" + std::string(name) +
                             "' already registered with a different kind");
    }
    return *it->second.counter;
  }
  Counter& handle = counters_.emplace_back();
  Entry entry;
  entry.kind = MetricKind::kCounter;
  entry.view = view;
  entry.help = std::string(help);
  entry.counter = &handle;
  metrics_.emplace(std::string(name), std::move(entry));
  return handle;
}

Gauge& Registry::gauge(std::string_view name, std::string_view help, View view) {
  const std::scoped_lock lock(mutex_);
  const auto it = metrics_.find(name);
  if (it != metrics_.end()) {
    if (it->second.kind != MetricKind::kGauge) {
      throw std::logic_error("obs: metric '" + std::string(name) +
                             "' already registered with a different kind");
    }
    return *it->second.gauge;
  }
  Gauge& handle = gauges_.emplace_back();
  Entry entry;
  entry.kind = MetricKind::kGauge;
  entry.view = view;
  entry.help = std::string(help);
  entry.gauge = &handle;
  metrics_.emplace(std::string(name), std::move(entry));
  return handle;
}

Histogram& Registry::histogram(std::string_view name, std::string_view help, View view,
                               std::vector<double> bounds) {
  if (bounds.empty() || !std::is_sorted(bounds.begin(), bounds.end()) ||
      std::adjacent_find(bounds.begin(), bounds.end()) != bounds.end()) {
    throw std::logic_error("obs: histogram '" + std::string(name) +
                           "' needs non-empty strictly increasing bounds");
  }
  const std::scoped_lock lock(mutex_);
  const auto it = metrics_.find(name);
  if (it != metrics_.end()) {
    if (it->second.kind != MetricKind::kHistogram ||
        it->second.histogram->bounds() != bounds) {
      throw std::logic_error("obs: metric '" + std::string(name) +
                             "' already registered with a different kind or bounds");
    }
    return *it->second.histogram;
  }
  Histogram& handle =
      *histograms_.emplace_back(std::unique_ptr<Histogram>(new Histogram(std::move(bounds))));
  Entry entry;
  entry.kind = MetricKind::kHistogram;
  entry.view = view;
  entry.help = std::string(help);
  entry.histogram = &handle;
  metrics_.emplace(std::string(name), std::move(entry));
  return handle;
}

void Registry::visit(const std::function<void(const MetricRef&)>& fn) const {
  const std::scoped_lock lock(mutex_);
  for (const auto& [name, entry] : metrics_) {
    MetricRef ref;
    ref.name = name;
    ref.help = entry.help;
    ref.view = entry.view;
    ref.kind = entry.kind;
    ref.counter = entry.counter;
    ref.gauge = entry.gauge;
    ref.histogram = entry.histogram;
    fn(ref);
  }
}

std::size_t Registry::size() const {
  const std::scoped_lock lock(mutex_);
  return metrics_.size();
}

}  // namespace carbonedge::obs
