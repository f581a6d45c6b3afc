// Process-wide worker-budget arbiter.
//
// CarbonEdge parallelizes at one layer: ScenarioRunner fans out across grid
// cells, and each cell's simulation (epoch body and placement solver alike)
// runs serially on its lane. Every parallel loop is a parallel_for that
// leases its lanes from a ParallelismBudget sized by CARBONEDGE_THREADS, so
// concurrent loops in one process share the lanes (first come, first
// served) instead of oversubscribing the machine.
//
// The budget arbitrates *throughput only*. Every parallel loop in the
// project computes per-item values into disjoint slots and reduces them in
// a fixed order, so results are byte-identical no matter how many lanes a
// lease happens to grant — CARBONEDGE_THREADS=1 and =64 produce the same
// tables (asserted by tests/test_parallelism.cpp and the determinism-gate
// CI job).
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>

namespace carbonedge::util {

/// Largest lane count CARBONEDGE_THREADS may ask for.
inline constexpr std::size_t kMaxThreadCount = 1024;

/// Parses a CARBONEDGE_THREADS-style value: a positive decimal count up to
/// kMaxThreadCount (digits only, as util::parse_count reads it) wins;
/// anything else (null, empty, zero, a sign, spaces, garbage, trailing junk,
/// above the ceiling) falls back to hardware concurrency (at least 1).
[[nodiscard]] std::size_t parse_thread_count(const char* value) noexcept;

/// Total worker lanes the process should use: parse_thread_count applied to
/// the CARBONEDGE_THREADS environment variable, read once per process via
/// the util::env shim.
[[nodiscard]] std::size_t configured_thread_count();

class ParallelismBudget {
 public:
  /// A budget of `total_lanes` concurrent execution lanes (>= 1). One lane
  /// is implicitly owned by whichever thread enters a parallel layer first,
  /// so `total_lanes - 1` extra lanes are grantable.
  explicit ParallelismBudget(std::size_t total_lanes);

  ParallelismBudget(const ParallelismBudget&) = delete;
  ParallelismBudget& operator=(const ParallelismBudget&) = delete;

  [[nodiscard]] std::size_t total() const noexcept { return total_; }
  /// Extra lanes a call to acquire() could be granted right now.
  [[nodiscard]] std::size_t available() const noexcept {
    return extra_available_.load(std::memory_order_relaxed);
  }
  /// High-water mark of concurrent lanes: the root caller's own lane plus
  /// every extra lane out on lease at the same moment. A nested lease's
  /// lanes() == 1 adds nothing — it runs on a lane its parent already
  /// holds. Never exceeds total() (the invariant the nested-load test
  /// asserts), assuming one top-level entry thread.
  [[nodiscard]] std::size_t peak_lanes() const noexcept {
    return peak_lanes_.load(std::memory_order_relaxed);
  }

  /// RAII grant of execution lanes. lanes() >= 1 always: the caller's own
  /// thread is a lane no budget can refuse, so a depleted budget degrades a
  /// layer to serial inline execution rather than blocking it.
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& other) noexcept : budget_(other.budget_), extra_(other.extra_) {
      other.budget_ = nullptr;
      other.extra_ = 0;
    }
    Lease& operator=(Lease&& other) noexcept;
    ~Lease() { release(); }

    /// Concurrent lanes this lease permits (1 = run serial inline).
    [[nodiscard]] std::size_t lanes() const noexcept { return 1 + extra_; }

   private:
    friend class ParallelismBudget;
    Lease(ParallelismBudget* budget, std::size_t extra) : budget_(budget), extra_(extra) {}
    void release() noexcept;

    ParallelismBudget* budget_ = nullptr;
    std::size_t extra_ = 0;
  };

  /// Lease up to `want_lanes` concurrent lanes: the caller's own lane plus
  /// as many of the remaining `want_lanes - 1` as are available. Never
  /// blocks and never grants zero — exhaustion means lanes() == 1.
  [[nodiscard]] Lease acquire(std::size_t want_lanes) noexcept;

 private:
  void release_extra(std::size_t extra) noexcept;

  std::size_t total_ = 1;
  std::atomic<std::size_t> extra_available_{0};
  std::atomic<std::size_t> peak_lanes_{0};
};

/// The process-wide budget every layer leases from by default; sized by
/// configured_thread_count() on first use.
[[nodiscard]] ParallelismBudget& global_budget();

/// Run body(i) for every i in [0, count), blocking until all are done. Leases
/// up to `count` lanes from `budget`; the calling thread is one of them, and
/// each lane claims the next index from a shared counter. With one lane (or
/// count <= 1) the loop runs inline. After the first exception no lane
/// claims another index; every thread is joined, the lease returned, and
/// that exception rethrown. A nested call cannot deadlock: there is no
/// queue to wait on, it just runs on whatever lanes are left (usually 1).
void parallel_for(ParallelismBudget& budget, std::size_t count,
                  const std::function<void(std::size_t)>& body);

}  // namespace carbonedge::util
