// Minimal fixed-size thread pool. NCSw uses one worker per NCS device
// (the paper used OpenMP threads for the same purpose); the pool is also
// used to parallelise dataset generation and functional inference.
//
// Fan-out (parallel_for) is work claiming: the caller and up to size()
// pool helpers take indices from one shared atomic counter, and the
// caller waits only for indices a helper has already taken. A helper
// that starts after every index is taken returns without running
// anything, so a nested call from a worker, or a call into a saturated
// pool, runs serially on the caller instead of queueing behind it.
//
// A pool built with pin_workers = true pins worker i to the i-th CPU the
// process is allowed to run on (the fast host tier, docs/performance.md),
// so its workers do not migrate between cores.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace ncsw::util {

/// Number of CPUs the process may run on: the sched_getaffinity mask,
/// which respects container cpusets and taskset masks (unlike
/// std::thread::hardware_concurrency), falling back to
/// hardware_concurrency where there is no affinity API. At least 1.
std::size_t allowed_cpu_count() noexcept;

/// Fixed-size pool of worker threads executing enqueued tasks FIFO.
/// Destruction drains the queue (all submitted tasks complete).
class ThreadPool {
 public:
  /// Create `threads` workers (>= 1; 0 is clamped to 1). With
  /// `pin_workers`, worker i is pinned to the i-th allowed CPU (round
  /// robin when there are more workers than CPUs); pinning failures
  /// degrade to an unpinned pool, observable through pinned().
  explicit ThreadPool(std::size_t threads, bool pin_workers = false);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task (any worker may run it); returns a future for its
  /// result.
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> fut = task->get_future();
    enqueue([task] { (*task)(); }, 1);
    return fut;
  }

  /// Number of worker threads.
  std::size_t size() const noexcept { return workers_.size(); }

  /// True when every worker was successfully pinned to a CPU.
  bool pinned() const noexcept { return pinned_; }

  /// Human-readable worker->CPU map: "0,1,2,3" when pinned, "none" when
  /// the pool is unpinned (pinning off, unsupported, or it failed).
  std::string affinity_layout() const;

  /// True when the calling thread is one of this pool's workers.
  bool on_worker_thread() const noexcept;

  /// Run `fn(i)` once for every i in [0, n) and return when all have
  /// run. The calling thread claims indices itself, alongside up to
  /// min(n - 1, size()) pool helpers; it then waits only for indices a
  /// helper already claimed. Safe from the pool's own workers and under
  /// saturation: unstarted helpers find nothing left and never touch
  /// `fn`. The first exception thrown by `fn` is rethrown on the caller
  /// after every claimed index has finished.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  /// Push `copies` copies of `task` onto the queue under one lock.
  void enqueue(const std::function<void()>& task, std::size_t copies);
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::vector<int> worker_cpus_;  // empty when unpinned
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
  bool pinned_ = false;
};

}  // namespace ncsw::util
