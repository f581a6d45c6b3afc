// Process-wide metrics registry: named counters, gauges, and fixed-bucket
// histograms, registered once and updated through cached handles.
//
// Hot paths never touch the registry map — they hold a `Counter&` (one
// relaxed fetch_add per update) obtained at first use and kept in a
// function-local static or a member. Registration and enumeration are
// mutex-serialized; enumeration order is the name order of a std::map, so
// exports are deterministic by construction.
//
// Every metric declares a View:
//
//   kDeterministic  counts, bytes, invocations — pure functions of the
//                   workload, byte-identical across CARBONEDGE_THREADS.
//                   The CI determinism gate diffs this view across thread
//                   counts, so only put values here that are genuinely
//                   execution-shape independent (integer counts, or exact
//                   commutative sums; never wall time, never lane counts).
//   kTiming         durations, rates, execution-shape values (lane
//                   high-water marks) — explicitly excluded from the
//                   determinism contract.
//
// The hard split exists so observability can never feed back into
// accounting: exporters read the registry, nothing in src/ reads it back.
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace carbonedge::obs {

enum class View : std::uint8_t {
  kDeterministic,  // byte-identical across thread counts; gate-diffed
  kTiming,         // durations/rates; excluded from determinism checks
};

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

/// Monotone integer count. add() is one relaxed fetch_add — safe and cheap
/// from any thread, including parallel-section workers.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(std::uint64_t n = 1) noexcept { value_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written double. add() is a CAS loop over the bit pattern (portable
/// lock-free atomic double). Plain set() from concurrent writers is
/// last-write-wins and belongs in the timing view.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(double v) noexcept {
    bits_.store(std::bit_cast<std::uint64_t>(v), std::memory_order_relaxed);
  }
  void add(double d) noexcept;
  [[nodiscard]] double value() const noexcept {
    return std::bit_cast<double>(bits_.load(std::memory_order_relaxed));
  }

 private:
  std::atomic<std::uint64_t> bits_{std::bit_cast<std::uint64_t>(0.0)};
};

/// Fixed upper-bound histogram (Prometheus `le` semantics: bucket i counts
/// observations <= bounds[i]; one extra overflow bucket past the last
/// bound). Observation is a binary search plus two relaxed increments and a
/// CAS sum update. A deterministic-view histogram must only observe values
/// whose multiset is thread-count independent, and its sum is only exact/
/// commutative for integer-valued observations — durations go in kTiming.
class Histogram {
 public:
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void observe(double v) noexcept;

  [[nodiscard]] const std::vector<double>& bounds() const noexcept { return bounds_; }
  /// Non-cumulative count of bucket `i`; `i == bounds().size()` is the
  /// overflow bucket.
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const noexcept {
    return std::bit_cast<double>(sum_bits_.load(std::memory_order_relaxed));
  }

 private:
  friend class Registry;
  /// Bounds must be strictly increasing and non-empty (Registry validates).
  explicit Histogram(std::vector<double> bounds);

  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> buckets_;  // bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_bits_{std::bit_cast<std::uint64_t>(0.0)};
};

/// One registered metric as seen by an exporter: exactly one of the three
/// pointers is non-null, matching `kind`.
struct MetricRef {
  std::string_view name;
  std::string_view help;
  View view = View::kDeterministic;
  MetricKind kind = MetricKind::kCounter;
  const Counter* counter = nullptr;
  const Gauge* gauge = nullptr;
  const Histogram* histogram = nullptr;
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The process-wide instance every src/ call site registers into.
  [[nodiscard]] static Registry& global();

  /// Register-or-fetch: the first call under `name` creates the metric
  /// (help/view recorded then); later calls return the same handle so call
  /// sites can cache `Counter&` in a local static. Registering an existing
  /// name as a different kind (or a histogram with different bounds)
  /// throws std::logic_error — silent aliasing would corrupt both series.
  [[nodiscard]] Counter& counter(std::string_view name, std::string_view help, View view);
  [[nodiscard]] Gauge& gauge(std::string_view name, std::string_view help, View view);
  [[nodiscard]] Histogram& histogram(std::string_view name, std::string_view help, View view,
                                     std::vector<double> bounds);

  /// Enumerate every metric in name order (std::map order — deterministic).
  /// The registry lock is held for the duration; values read during the
  /// visit are individually atomic but not a consistent cross-metric cut.
  void visit(const std::function<void(const MetricRef&)>& fn) const;

  [[nodiscard]] std::size_t size() const;

 private:
  struct Entry {
    MetricKind kind = MetricKind::kCounter;
    View view = View::kDeterministic;
    std::string help;
    Counter* counter = nullptr;
    Gauge* gauge = nullptr;
    Histogram* histogram = nullptr;
  };

  mutable std::mutex mutex_;
  std::map<std::string, Entry, std::less<>> metrics_;
  // Deques give out stable addresses for the lifetime of the registry, so
  // cached handles survive any number of later registrations (histograms
  // are heap-held because their constructor is Registry-private).
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<std::unique_ptr<Histogram>> histograms_;
};

}  // namespace carbonedge::obs
