#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>

#include "util/parallelism.hpp"

namespace carbonedge::util {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::scoped_lock lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

bool ThreadPool::on_worker_thread() const noexcept {
  // lint: nondeterminism-ok(membership test for nested-submit deadlock avoidance; ids are compared, never ordered or emitted)
  const std::thread::id self = std::this_thread::get_id();
  for (const std::thread& worker : workers_) {
    if (worker.get_id() == self) return true;
  }
  return false;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (stopping_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body, std::size_t chunk) {
  if (begin >= end) return;
  if (pool.on_worker_thread()) {
    // Nested use from inside the same pool: blocking on futures here would
    // deadlock once all workers are occupied by outer tasks. Degrade to
    // inline execution — same results, no added parallelism.
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }
  const std::size_t total = end - begin;
  if (chunk == 0) {
    chunk = std::max<std::size_t>(1, total / (pool.size() * 4));
  }
  std::vector<std::future<void>> futures;
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;

  for (std::size_t start = begin; start < end; start += chunk) {
    const std::size_t stop = std::min(end, start + chunk);
    futures.push_back(pool.submit([&, start, stop] {
      if (failed.load(std::memory_order_relaxed)) return;
      try {
        for (std::size_t i = start; i < stop; ++i) body(i);
      } catch (...) {
        const std::scoped_lock lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
      }
    }));
  }
  for (auto& future : futures) future.wait();
  if (first_error) std::rethrow_exception(first_error);
}

ThreadPool& global_pool() {
  // Sized by the process worker budget (CARBONEDGE_THREADS), not raw
  // hardware concurrency, so a serial run really is serial end to end.
  static ThreadPool pool(configured_thread_count());
  return pool;
}

}  // namespace carbonedge::util
