#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace {

using ncsw::util::ThreadPool;

TEST(ThreadPool, ZeroThreadsClampedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(ThreadPool, SubmitReturnsResult) {
  ThreadPool pool(2);
  auto fut = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(fut.get(), 42);
}

TEST(ThreadPool, ManyTasksAllComplete) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 200; ++i) {
    futs.push_back(pool.submit([&counter] { counter.fetch_add(1); }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPool, ExceptionsPropagateThroughFuture) {
  ThreadPool pool(1);
  auto fut = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST(ThreadPool, DestructorDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&counter] { counter.fetch_add(1); });
    }
  }  // destructor joins
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, ParallelForVisitsEveryIndexOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(500);
  pool.parallel_for(500, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForZeroIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ParallelForFewerItemsThanThreads) {
  ThreadPool pool(8);
  std::atomic<int> counter{0};
  pool.parallel_for(3, [&](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 3);
}

TEST(ThreadPool, OnWorkerThreadIdentifiesOwnWorkersOnly) {
  ThreadPool pool(2);
  ThreadPool other(1);
  EXPECT_FALSE(pool.on_worker_thread());
  EXPECT_TRUE(pool.submit([&] { return pool.on_worker_thread(); }).get());
  EXPECT_FALSE(other.submit([&] { return pool.on_worker_thread(); }).get());
}

// Regression: parallel_for called from a pool worker used to queue its
// shards behind the (blocked) caller and deadlock a saturated pool.
TEST(ThreadPool, ParallelForFromWorkerRunsInline) {
  ThreadPool pool(1);  // the submitting task saturates the pool by itself
  std::atomic<int> counter{0};
  auto fut = pool.submit(
      [&] { pool.parallel_for(8, [&](std::size_t) { counter.fetch_add(1); }); });
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(10)),
            std::future_status::ready)
      << "nested parallel_for deadlocked";
  fut.get();
  EXPECT_EQ(counter.load(), 8);
}

TEST(ThreadPool, ParallelForNestedInParallelForCompletes) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  std::promise<void> done;
  auto fut = done.get_future();
  std::thread driver([&] {
    pool.parallel_for(4, [&](std::size_t) {
      pool.parallel_for(4, [&](std::size_t) { counter.fetch_add(1); });
    });
    done.set_value();
  });
  if (fut.wait_for(std::chrono::seconds(10)) != std::future_status::ready) {
    driver.detach();
    FAIL() << "nested parallel_for deadlocked";
  }
  driver.join();
  EXPECT_EQ(counter.load(), 16);
}

TEST(ThreadPool, TasksRunConcurrentlyAcrossWorkers) {
  ThreadPool pool(2);
  std::atomic<int> in_flight{0};
  std::atomic<int> max_in_flight{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 20; ++i) {
    futs.push_back(pool.submit([&] {
      const int now = in_flight.fetch_add(1) + 1;
      int prev = max_in_flight.load();
      while (now > prev && !max_in_flight.compare_exchange_weak(prev, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      in_flight.fetch_sub(1);
    }));
  }
  for (auto& f : futs) f.get();
  EXPECT_GE(max_in_flight.load(), 1);
  EXPECT_LE(max_in_flight.load(), 2);
}

// --- work claiming -----------------------------------------------------------

TEST(ThreadPool, ParallelForCallerClaimsIndicesToo) {
  ThreadPool pool(2);
  const auto caller = std::this_thread::get_id();
  std::atomic<int> on_caller{0};
  pool.parallel_for(16, [&](std::size_t) {
    if (std::this_thread::get_id() == caller) on_caller.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  });
  EXPECT_GT(on_caller.load(), 0);
}

// A saturated pool degrades to serial on the caller: parallel_for must
// not wait for a helper that has not started. The helper it queued runs
// after the call has returned and the callable is gone, and must find
// nothing left to claim (ASan would flag a touch of the dead callable).
TEST(ThreadPool, ParallelForIntoSaturatedPoolRunsOnCaller) {
  ThreadPool pool(1);
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  auto blocker = pool.submit([gate] { gate.wait(); });
  const auto caller = std::this_thread::get_id();
  std::vector<int> ran(8, 0);
  {
    std::vector<std::thread::id> who(8);
    pool.parallel_for(8, [&, big = std::vector<int>(64, 1)](std::size_t i) {
      ran[i] += big[i];
      who[i] = std::this_thread::get_id();
    });
    for (const auto& id : who) EXPECT_EQ(id, caller);
  }
  release.set_value();
  blocker.get();
  pool.submit([] {}).get();  // FIFO: the stale helper has run by now
  for (int r : ran) EXPECT_EQ(r, 1);
}

TEST(ThreadPool, ParallelForRethrowsAfterEveryIndexRan) {
  ThreadPool pool(3);
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.parallel_for(12,
                                 [&](std::size_t i) {
                                   if (i == 5) throw std::runtime_error("boom");
                                   ran.fetch_add(1);
                                 }),
               std::runtime_error);
  EXPECT_EQ(ran.load(), 11);
}

// --- pinned workers (the fast host tier) -------------------------------------

TEST(ThreadPool, UnpinnedPoolReportsNoLayout) {
  ThreadPool pool(2);
  EXPECT_FALSE(pool.pinned());
  EXPECT_EQ(pool.affinity_layout(), "none");
}

TEST(ThreadPool, PinnedPoolReportsOneCpuPerWorker) {
  ThreadPool pool(2, /*pin_workers=*/true);
  if (!pool.pinned()) {
    // Pinning can legitimately fail (unsupported platform, restricted
    // affinity mask); the contract is the graceful degrade.
    EXPECT_EQ(pool.affinity_layout(), "none");
    return;
  }
  const std::string layout = pool.affinity_layout();
  EXPECT_EQ(std::count(layout.begin(), layout.end(), ','), 1)
      << "layout: " << layout;
  // Workers still execute tasks when pinned.
  EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
}

}  // namespace
