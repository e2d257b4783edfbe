#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

namespace ncsw::util {

namespace {
// Which pool (if any) owns the current thread. Set once per worker; read
// by on_worker_thread().
thread_local const ThreadPool* t_current_pool = nullptr;

// CPUs the process is allowed to run on (respects container cpusets and
// taskset masks, unlike hardware_concurrency). Empty when the platform
// has no affinity API.
std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
#endif
  return cpus;
}

// Shared state of one parallel_for. Helpers hold it by shared_ptr, so a
// helper that starts, or finishes its last index, after the caller has
// returned still touches live memory. `fn` is only called for an index
// claimed while indices were left, and the caller does not return before
// every claimed index is done, so `fn` outlives each call of it.
struct Claim {
  Claim(std::size_t count, const std::function<void(std::size_t)>& f)
      : n(count), fn(&f) {}

  // Claim and run indices until none are left.
  void run() {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      std::exception_ptr err;
      try {
        (*fn)(i);
      } catch (...) {
        err = std::current_exception();
      }
      std::lock_guard lock(mutex);
      if (err && !error) error = err;
      if (++done == n) all_done.notify_all();
    }
  }

  const std::size_t n;
  const std::function<void(std::size_t)>* const fn;
  std::atomic<std::size_t> next{0};
  std::mutex mutex;  // guards done and error
  std::condition_variable all_done;
  std::size_t done = 0;
  std::exception_ptr error;
};

bool pin_to_cpu(std::thread& t, int cpu) {
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<unsigned>(cpu), &set);
  return pthread_setaffinity_np(t.native_handle(), sizeof(set), &set) == 0;
#else
  (void)t;
  (void)cpu;
  return false;
#endif
}
}  // namespace

std::size_t allowed_cpu_count() noexcept {
  std::size_t n = 0;
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    n = static_cast<std::size_t>(CPU_COUNT(&set));
  }
#endif
  if (n == 0) n = std::thread::hardware_concurrency();
  return std::max<std::size_t>(n, 1);
}

ThreadPool::ThreadPool(std::size_t threads, bool pin_workers) {
  threads = std::max<std::size_t>(1, threads);
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  if (pin_workers) {
    const std::vector<int> cpus = allowed_cpus();
    if (!cpus.empty()) {
      bool all_ok = true;
      std::vector<int> assigned;
      assigned.reserve(threads);
      for (std::size_t i = 0; i < threads; ++i) {
        const int cpu = cpus[i % cpus.size()];
        all_ok = pin_to_cpu(workers_[i], cpu) && all_ok;
        assigned.push_back(cpu);
      }
      if (all_ok) {
        pinned_ = true;
        worker_cpus_ = std::move(assigned);
      }
    }
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

std::string ThreadPool::affinity_layout() const {
  if (!pinned_) return "none";
  std::string out;
  for (std::size_t i = 0; i < worker_cpus_.size(); ++i) {
    if (i) out += ",";
    out += std::to_string(worker_cpus_[i]);
  }
  return out;
}

bool ThreadPool::on_worker_thread() const noexcept {
  return t_current_pool == this;
}

void ThreadPool::enqueue(const std::function<void()>& task,
                         std::size_t copies) {
  {
    std::lock_guard lock(mutex_);
    if (stopping_) {
      throw std::runtime_error("ThreadPool: enqueue after shutdown");
    }
    for (std::size_t i = 0; i < copies; ++i) queue_.push(task);
  }
  for (std::size_t i = 0; i < copies; ++i) cv_.notify_one();
}

void ThreadPool::worker_loop() {
  t_current_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping, and the queue is drained
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  const std::size_t helpers = n == 0 ? 0 : std::min(n - 1, size());
  if (helpers == 0) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  auto claim = std::make_shared<Claim>(n, fn);
  enqueue([claim] { claim->run(); }, helpers);
  claim->run();
  std::unique_lock lock(claim->mutex);
  claim->all_done.wait(lock, [&] { return claim->done == claim->n; });
  if (claim->error) std::rethrow_exception(claim->error);
}

}  // namespace ncsw::util
