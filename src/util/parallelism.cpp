#include "util/parallelism.hpp"

#include <algorithm>
#include <cstdint>
#include <exception>
#include <mutex>
#include <optional>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "util/env.hpp"
#include "util/flags.hpp"

namespace carbonedge::util {

std::size_t parse_thread_count(const char* value) noexcept {
  if (value != nullptr) {
    try {
      // Digits only: strtoul would read "-2" as 2^64 - 2 lanes. The ceiling
      // keeps a typo from letting parallel_for start that many threads.
      const std::uint64_t parsed = parse_count(value, "CARBONEDGE_THREADS", kMaxThreadCount);
      if (parsed > 0) return static_cast<std::size_t>(parsed);
    } catch (...) {
      // a malformed or out-of-range count falls back below
    }
  }
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

std::size_t configured_thread_count() {
  const std::optional<std::string> value = env::get("CARBONEDGE_THREADS");
  return parse_thread_count(value.has_value() ? value->c_str() : nullptr);
}

ParallelismBudget::ParallelismBudget(std::size_t total_lanes)
    : total_(total_lanes == 0 ? 1 : total_lanes) {
  extra_available_.store(total_ - 1, std::memory_order_relaxed);
}

ParallelismBudget::Lease& ParallelismBudget::Lease::operator=(Lease&& other) noexcept {
  if (this != &other) {
    release();
    budget_ = other.budget_;
    extra_ = other.extra_;
    other.budget_ = nullptr;
    other.extra_ = 0;
  }
  return *this;
}

void ParallelismBudget::Lease::release() noexcept {
  if (budget_ != nullptr && extra_ > 0) budget_->release_extra(extra_);
  budget_ = nullptr;
  extra_ = 0;
}

ParallelismBudget::Lease ParallelismBudget::acquire(std::size_t want_lanes) noexcept {
  const std::size_t want_extra = want_lanes > 1 ? want_lanes - 1 : 0;
  std::size_t granted = 0;
  std::size_t available = extra_available_.load(std::memory_order_relaxed);
  while (granted < want_extra && available > 0) {
    const std::size_t take = std::min(want_extra, available);
    if (extra_available_.compare_exchange_weak(available, available - take,
                                               std::memory_order_acq_rel,
                                               std::memory_order_relaxed)) {
      granted = take;
      break;
    }
  }
  // High-water mark of the root lane plus every extra lane out on lease.
  const std::size_t in_use = 1 + (total_ - 1 - extra_available_.load(std::memory_order_relaxed));
  std::size_t peak = peak_lanes_.load(std::memory_order_relaxed);
  while (in_use > peak &&
         !peak_lanes_.compare_exchange_weak(peak, in_use, std::memory_order_relaxed)) {
  }
  return Lease(this, granted);
}

void ParallelismBudget::release_extra(std::size_t extra) noexcept {
  extra_available_.fetch_add(extra, std::memory_order_acq_rel);
}

ParallelismBudget& global_budget() {
  static ParallelismBudget budget(configured_thread_count());
  return budget;
}

void parallel_for(ParallelismBudget& budget, std::size_t count,
                  const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  const ParallelismBudget::Lease lease = budget.acquire(count);
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  const auto lane = [&] {
    while (!failed) {
      const std::size_t i = next++;
      if (i >= count) return;
      try {
        body(i);
      } catch (...) {
        const std::scoped_lock lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        failed = true;
      }
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(lease.lanes() - 1);
  for (std::size_t t = 1; t < lease.lanes(); ++t) {
    try {
      threads.emplace_back(lane);
    } catch (const std::system_error&) {
      break;  // the OS refused a thread: finish on the lanes already running
    }
  }
  lane();
  for (std::thread& thread : threads) thread.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace carbonedge::util
