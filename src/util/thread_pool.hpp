// Fixed-size work-queue thread pool with a parallel_for convenience.
//
// The year-long CDN simulations and the radius-CDF sweeps are embarrassingly
// parallel across epochs/sites; this pool lets the benches exploit however
// many cores are available while staying deterministic (tasks own disjoint
// output slots, merged at join — no locks on hot paths).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace carbonedge::util {

class ThreadPool {
 public:
  /// Spawns `threads` workers (default: hardware concurrency, at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// True when called from one of this pool's worker threads. parallel_for
  /// uses this to run nested submissions inline instead of deadlocking
  /// (every worker blocked waiting on tasks no free worker can run).
  [[nodiscard]] bool on_worker_thread() const noexcept;

  /// Enqueue a task; returns a future for its completion.
  template <typename F>
  auto submit(F&& task) -> std::future<std::invoke_result_t<F>> {
    using Result = std::invoke_result_t<F>;
    auto packaged = std::make_shared<std::packaged_task<Result()>>(std::forward<F>(task));
    std::future<Result> future = packaged->get_future();
    {
      const std::scoped_lock lock(mutex_);
      queue_.emplace_back([packaged] { (*packaged)(); });
    }
    cv_.notify_one();
    return future;
  }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

/// Run body(i) for i in [begin, end) across the pool, blocking until done.
/// Work is chunked to amortize dispatch overhead. Exceptions from tasks are
/// rethrown (first one wins).
void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body, std::size_t chunk = 0);

/// Process-wide default pool (lazily constructed).
[[nodiscard]] ThreadPool& global_pool();

}  // namespace carbonedge::util
