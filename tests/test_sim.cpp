#include "sim/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.h"

namespace {

using ncsw::sim::Engine;
using ncsw::sim::IntervalResource;
using ncsw::sim::Resource;

TEST(Engine, RunsEventsInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule(3.0, [&] { order.push_back(3); });
  e.schedule(1.0, [&] { order.push_back(1); });
  e.schedule(2.0, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(e.now(), 3.0);
  EXPECT_EQ(e.events_executed(), 3u);
}

TEST(Engine, SameTimeEventsFifo) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    e.schedule(1.0, [&order, i] { order.push_back(i); });
  }
  e.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Engine, CallbacksCanScheduleMore) {
  Engine e;
  int fired = 0;
  e.schedule(1.0, [&] {
    ++fired;
    e.schedule(1.0, [&] { ++fired; });
  });
  e.run();
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(e.now(), 2.0);
}

TEST(Engine, RunUntilStopsAtDeadline) {
  Engine e;
  int fired = 0;
  e.schedule(1.0, [&] { ++fired; });
  e.schedule(5.0, [&] { ++fired; });
  e.run_until(2.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(e.now(), 2.0);
  e.run();
  EXPECT_EQ(fired, 2);
}

TEST(Engine, RunUntilIncludesEventsAtDeadline) {
  Engine e;
  int fired = 0;
  e.schedule(2.0, [&] { ++fired; });
  e.run_until(2.0);
  EXPECT_EQ(fired, 1);
}

TEST(Engine, NegativeDelayThrows) {
  Engine e;
  EXPECT_THROW(e.schedule(-1.0, [] {}), std::invalid_argument);
}

TEST(Engine, PastAbsoluteTimeThrows) {
  Engine e;
  e.schedule(5.0, [] {});
  e.run();
  EXPECT_THROW(e.schedule_at(1.0, [] {}), std::invalid_argument);
}

TEST(Engine, ResetClearsState) {
  Engine e;
  e.schedule(1.0, [] {});
  e.run();
  e.reset();
  EXPECT_DOUBLE_EQ(e.now(), 0.0);
  EXPECT_TRUE(e.idle());
  EXPECT_EQ(e.events_executed(), 0u);
}

TEST(Resource, SingleServerSerialises) {
  Resource r("bus");
  EXPECT_DOUBLE_EQ(r.reserve(0.0, 2.0), 0.0);
  EXPECT_DOUBLE_EQ(r.reserve(0.0, 3.0), 2.0);  // queued behind the first
  EXPECT_DOUBLE_EQ(r.reserve(10.0, 1.0), 10.0);
  EXPECT_DOUBLE_EQ(r.busy_time(), 6.0);
  EXPECT_EQ(r.reservations(), 3u);
}

TEST(Resource, MultiServerParallelism) {
  Resource r("shaves", 3);
  EXPECT_DOUBLE_EQ(r.reserve(0.0, 5.0), 0.0);
  EXPECT_DOUBLE_EQ(r.reserve(0.0, 5.0), 0.0);
  EXPECT_DOUBLE_EQ(r.reserve(0.0, 5.0), 0.0);
  EXPECT_DOUBLE_EQ(r.reserve(0.0, 5.0), 5.0);  // fourth waits
}

TEST(Resource, NextFreeReflectsLoad) {
  Resource r("x");
  r.reserve(0.0, 4.0);
  EXPECT_DOUBLE_EQ(r.next_free(0.0), 4.0);
  EXPECT_DOUBLE_EQ(r.next_free(10.0), 10.0);
}

TEST(Resource, RejectsBadArguments) {
  EXPECT_THROW(Resource("x", 0), std::invalid_argument);
  Resource r("x");
  EXPECT_THROW(r.reserve(0.0, -1.0), std::invalid_argument);
}

TEST(Resource, ResetClears) {
  Resource r("x");
  r.reserve(0.0, 7.0);
  r.reset();
  EXPECT_DOUBLE_EQ(r.reserve(0.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(r.busy_time(), 1.0);
}

TEST(IntervalResource, BackToBackPlacement) {
  IntervalResource r("usb");
  EXPECT_DOUBLE_EQ(r.reserve(0.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(r.reserve(0.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(r.reserve(0.0, 1.0), 2.0);
}

TEST(IntervalResource, FirstFitFillsEarlierGaps) {
  IntervalResource r("usb");
  r.reserve(5.0, 2.0);  // [5, 7)
  // A later request with an earlier earliest lands in the gap before 5.
  EXPECT_DOUBLE_EQ(r.reserve(0.0, 3.0), 0.0);
  // A request that does not fit the remaining [3,5) gap goes after 7.
  EXPECT_DOUBLE_EQ(r.reserve(0.0, 4.0), 7.0);
  // A small one still fits [3, 5).
  EXPECT_DOUBLE_EQ(r.reserve(0.0, 2.0), 3.0);
}

TEST(IntervalResource, MakespanOrderInvariantForEqualEarliest) {
  // When all requests share the same earliest time (the common case for
  // the multi-VPU runner: every stick starts its transfer stream at t0),
  // the makespan equals the sum of durations regardless of issue order.
  const std::vector<double> durs{1.0, 2.0, 0.5, 3.0, 1.5};
  auto span_of = [&](std::vector<int> order) {
    IntervalResource r("x");
    double span = 0;
    for (int i : order) {
      span = std::max(span, r.reserve(0.0, durs[i]) + durs[i]);
    }
    return span;
  };
  const double expected = 8.0;  // sum of durations
  EXPECT_NEAR(span_of({0, 1, 2, 3, 4}), expected, 1e-12);
  EXPECT_NEAR(span_of({4, 3, 2, 1, 0}), expected, 1e-12);
  EXPECT_NEAR(span_of({2, 0, 4, 1, 3}), expected, 1e-12);
}

TEST(IntervalResource, EarliestInsideBusyIntervalPushesAfter) {
  IntervalResource r("x");
  r.reserve(0.0, 10.0);  // [0, 10)
  EXPECT_DOUBLE_EQ(r.reserve(4.0, 1.0), 10.0);
}

TEST(IntervalResource, NegativeEarliestClampsToZero) {
  IntervalResource r("x");
  EXPECT_DOUBLE_EQ(r.reserve(-5.0, 1.0), 0.0);
}

TEST(IntervalResource, BusyTimeAccumulates) {
  IntervalResource r("x");
  r.reserve(0.0, 2.0);
  r.reserve(10.0, 3.0);
  EXPECT_DOUBLE_EQ(r.busy_time(), 5.0);
  EXPECT_EQ(r.reservations(), 2u);
  r.reset();
  EXPECT_DOUBLE_EQ(r.busy_time(), 0.0);
}

TEST(IntervalResource, ManyRandomReservationsNeverOverlap) {
  ncsw::util::Xoshiro256 rng(77);
  IntervalResource r("x");
  std::vector<std::pair<double, double>> placed;
  for (int i = 0; i < 300; ++i) {
    const double earliest = rng.uniform(0.0, 50.0);
    const double dur = rng.uniform(0.1, 2.0);
    const double start = r.reserve(earliest, dur);
    EXPECT_GE(start, earliest);
    placed.emplace_back(start, start + dur);
  }
  std::sort(placed.begin(), placed.end());
  for (std::size_t i = 1; i < placed.size(); ++i) {
    EXPECT_GE(placed[i].first, placed[i - 1].second - 1e-12);
  }
}

TEST(IntervalResource, PrunesAncientGapsButStaysConsistent) {
  IntervalResource r("x");
  r.reserve(0.0, 1.0);  // [0, 1)
  // Jump far ahead: the early gap ages out of the prune window.
  r.reserve(100.0, 1.0);
  r.reserve(100.0, 1.0);
  // A request from before the pruned history is clamped to the end of the
  // forgotten region (it can never overlap a pruned reservation), but the
  // still-remembered gap after it stays usable.
  const double start = r.reserve(0.0, 0.5);
  EXPECT_GE(start, 1.0 - 1e-12);
  EXPECT_LT(start, 100.0);
  // Reservations still never overlap.
  const double again = r.reserve(start, 0.5);
  EXPECT_GE(again, start + 0.5 - 1e-12);
}

TEST(IntervalResource, ManyReservationsStayFast) {
  // Regression guard for the benchmark-scale runs: 100k reservations on
  // one channel must not blow up quadratically (pruning keeps the
  // interval list bounded).
  IntervalResource r("x");
  double t = 0.0;
  for (int i = 0; i < 100'000; ++i) {
    t = r.reserve(t, 1e-4) + 1e-4;
  }
  EXPECT_EQ(r.reservations(), 100'000u);
  EXPECT_NEAR(r.busy_time(), 10.0, 1e-6);
}

/// The straightforward first-fit the resource must reproduce exactly:
/// scan every remembered interval from the front on each reservation and
/// erase the pruned prefix as soon as it falls out of the window.
class NaiveFirstFit {
 public:
  double reserve(double earliest, double duration) {
    if (earliest < floor_) earliest = floor_;
    double cursor = earliest;
    std::size_t pos = 0;
    for (; pos < ivs_.size(); ++pos) {
      if (ivs_[pos].second <= cursor) continue;
      if (cursor + duration <= ivs_[pos].first) break;
      cursor = std::max(cursor, ivs_[pos].second);
    }
    ivs_.insert(ivs_.begin() + static_cast<std::ptrdiff_t>(pos),
                {cursor, cursor + duration});
    busy_ += duration;
    ++count_;
    max_start_ = std::max(max_start_, cursor);
    const double cutoff = max_start_ - IntervalResource::kPruneWindow;
    if (cutoff > floor_) {
      std::size_t keep = 0;
      while (keep < ivs_.size() && ivs_[keep].second < cutoff) ++keep;
      if (keep > 0) {
        floor_ = std::max(floor_, ivs_[keep - 1].second);
        ivs_.erase(ivs_.begin(),
                   ivs_.begin() + static_cast<std::ptrdiff_t>(keep));
      }
    }
    return cursor;
  }
  void reset() { *this = NaiveFirstFit{}; }
  double busy_time() const { return busy_; }
  std::uint64_t reservations() const { return count_; }

 private:
  std::vector<std::pair<double, double>> ivs_;
  double busy_ = 0.0;
  std::uint64_t count_ = 0;
  double floor_ = 0.0;
  double max_start_ = 0.0;
};

class IntervalResourceDifferential : public ::testing::TestWithParam<int> {};

TEST_P(IntervalResourceDifferential, MatchesNaiveFirstFitExactly) {
  ncsw::util::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()));
  IntervalResource fast("diff");
  NaiveFirstFit naive;
  double clock = 0.0;  // drifting "now" of the issuing clients
  double last_earliest = 0.0;
  constexpr int kSteps = 12'000;
  for (int step = 0; step < kSteps; ++step) {
    SCOPED_TRACE("seed " + std::to_string(GetParam()) + " step " +
                 std::to_string(step));
    if (rng.uniform_u64(3000) == 0) {  // reset() mid-sequence
      fast.reset();
      naive.reset();
      clock = 0.0;
    }
    const std::uint64_t move = rng.uniform_u64(100);
    if (move < 1) {
      clock += rng.uniform(3.0, 8.0);  // gap straddling kPruneWindow
    } else {
      clock += rng.uniform(0.0, 2e-3);
    }
    double earliest;
    if (move < 15) {
      earliest = last_earliest;  // equal earliests
    } else if (move < 45) {
      earliest = clock - rng.uniform(0.0, 0.5);  // back-fill below max start
    } else if (move < 48) {
      earliest = clock - rng.uniform(4.0, 12.0);  // behind the pruned floor
    } else {
      earliest = clock + rng.uniform(0.0, 5e-3);
    }
    // A coarse grid makes exact touches (end == start) common.
    if (rng.uniform_u64(2) == 0) {
      earliest = std::floor(earliest * 4096.0) / 4096.0;
    }
    const double duration =
        rng.uniform_u64(5) == 0
            ? 0.0
            : static_cast<double>(rng.uniform_int(1, 16)) / 4096.0;
    last_earliest = earliest;
    const double got = fast.reserve(earliest, duration);
    const double want = naive.reserve(earliest, duration);
    EXPECT_EQ(got, want);
    EXPECT_EQ(fast.busy_time(), naive.busy_time());
    EXPECT_EQ(fast.reservations(), naive.reservations());
    if (HasFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntervalResourceDifferential,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(Time, UnitHelpers) {
  EXPECT_DOUBLE_EQ(ncsw::sim::from_ms(2.5), 0.0025);
  EXPECT_DOUBLE_EQ(ncsw::sim::from_us(10.0), 1e-5);
  EXPECT_DOUBLE_EQ(ncsw::sim::to_ms(0.1), 100.0);
}

}  // namespace
