#include "util/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "serve/server.h"
#include "util/rng.h"

namespace {

using ncsw::util::percentile;
using ncsw::util::percentile_in_place;
using ncsw::util::RunningStats;
using ncsw::util::summarize;

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(3.5);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 3.5);
  EXPECT_DOUBLE_EQ(s.max(), 3.5);
}

TEST(RunningStats, MatchesClosedForm) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance of this classic dataset is 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.sum(), 40.0, 1e-12);
}

TEST(RunningStats, MergeEqualsSequential) {
  ncsw::util::Xoshiro256 rng(8);
  RunningStats whole, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(3.0, 2.0);
    whole.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-10);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-8);
  EXPECT_DOUBLE_EQ(a.min(), whole.min());
  EXPECT_DOUBLE_EQ(a.max(), whole.max());
}

TEST(RunningStats, MergeWithEmptyIsIdentity) {
  RunningStats a, empty;
  a.add(1.0);
  a.add(2.0);
  const double mean = a.mean();
  a.merge(empty);
  EXPECT_DOUBLE_EQ(a.mean(), mean);
  EXPECT_EQ(a.count(), 2u);

  RunningStats c;
  c.merge(a);
  EXPECT_DOUBLE_EQ(c.mean(), mean);
}

TEST(RunningStats, StdErrShrinksWithN) {
  RunningStats s;
  ncsw::util::Xoshiro256 rng(3);
  for (int i = 0; i < 100; ++i) s.add(rng.normal());
  const double se100 = s.stderr_mean();
  for (int i = 0; i < 9900; ++i) s.add(rng.normal());
  EXPECT_LT(s.stderr_mean(), se100);
}

TEST(RunningStats, NumericallyStableOnLargeOffset) {
  RunningStats s;
  for (int i = 0; i < 1000; ++i) s.add(1e9 + (i % 2));
  EXPECT_NEAR(s.mean(), 1e9 + 0.5, 1e-3);
  EXPECT_NEAR(s.variance(), 0.2502502502, 1e-4);
}

TEST(RunningStats, ClearResets) {
  RunningStats s;
  s.add(5);
  s.clear();
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
}

TEST(Summarize, MatchesRunningStats) {
  const std::vector<double> xs{1, 2, 3, 4, 5};
  const auto sum = summarize(xs);
  EXPECT_EQ(sum.n, 5u);
  EXPECT_DOUBLE_EQ(sum.mean, 3.0);
  EXPECT_NEAR(sum.stddev, std::sqrt(2.5), 1e-12);
  EXPECT_DOUBLE_EQ(sum.min, 1.0);
  EXPECT_DOUBLE_EQ(sum.max, 5.0);
}

TEST(Percentile, EdgesAndMedian) {
  std::vector<double> xs{5, 1, 3, 2, 4};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 3.0);
}

TEST(Percentile, InterpolatesBetweenOrderStats) {
  std::vector<double> xs{0, 10};
  EXPECT_DOUBLE_EQ(percentile(xs, 25), 2.5);
  EXPECT_DOUBLE_EQ(percentile(xs, 75), 7.5);
}

TEST(Percentile, EmptyReturnsZero) {
  EXPECT_EQ(percentile({}, 50), 0.0);
}

TEST(Percentile, ClampsOutOfRangeP) {
  std::vector<double> xs{1, 2, 3};
  EXPECT_DOUBLE_EQ(percentile(xs, -10), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 300), 3.0);
}

TEST(Format, MeanStddevString) {
  RunningStats s;
  s.add(1.0);
  s.add(3.0);
  EXPECT_EQ(ncsw::util::format_mean_stddev(s, 2), "2.00 ± 1.41");
}

class PercentileMonotoneParam : public ::testing::TestWithParam<int> {};

TEST_P(PercentileMonotoneParam, MonotoneInP) {
  ncsw::util::Xoshiro256 rng(GetParam());
  std::vector<double> xs;
  for (int i = 0; i < 200; ++i) xs.push_back(rng.normal());
  double prev = percentile(xs, 0);
  for (int p = 5; p <= 100; p += 5) {
    const double v = percentile(xs, p);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PercentileMonotoneParam,
                         ::testing::Values(1, 2, 3, 4, 5));

/// The definition percentile() must reproduce: interpolate between the
/// order statistics of a fully sorted copy.
double sorted_percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  p = std::clamp(p, 0.0, 100.0);
  const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

constexpr std::array<double, 9> kProbeP = {-10, 0,   0.1, 50, 95,
                                           99,  99.9, 100, 300};

/// n samples drawn from a pool of about n/8 distinct values: most
/// order statistics sit inside runs of duplicates.
std::vector<double> heavy_duplicates(ncsw::util::Xoshiro256& rng,
                                     std::size_t n) {
  const auto distinct = static_cast<std::int64_t>(n / 8 + 1);
  std::vector<double> xs(n);
  for (double& x : xs) {
    x = static_cast<double>(rng.uniform_int(0, distinct - 1)) * 0.37 + 1.0;
  }
  return xs;
}

TEST(Percentile, SelectionMatchesSortedReferenceExactly) {
  ncsw::util::Xoshiro256 rng(2024);
  for (std::size_t n = 1; n <= 2000; ++n) {
    const auto xs = heavy_duplicates(rng, n);
    for (double p : kProbeP) {
      ASSERT_EQ(percentile(xs, p), sorted_percentile(xs, p))
          << "n=" << n << " p=" << p;
    }
  }
}

TEST(Percentile, InPlaceOnOneBufferMatchesFreshCopies) {
  // Successive selections on one permuted buffer see the same multiset.
  ncsw::util::Xoshiro256 rng(7);
  for (std::size_t n : {1u, 2u, 3u, 17u, 256u, 1999u}) {
    auto buf = heavy_duplicates(rng, n);
    const auto orig = buf;
    for (double p : kProbeP) {
      EXPECT_EQ(percentile_in_place(buf, p), sorted_percentile(orig, p))
          << "n=" << n << " p=" << p;
    }
    std::sort(buf.begin(), buf.end());
    auto sorted = orig;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(buf, sorted);
  }
  std::vector<double> empty;
  EXPECT_EQ(percentile_in_place(empty, 50.0), 0.0);
}

/// The fields LatencyRollup::seal writes, without a full ServeReport.
struct SealedReport {
  double p50_ms = -1.0, p95_ms = -1.0, p99_ms = -1.0;
  std::array<ncsw::serve::ClassStats, ncsw::serve::kSloClassCount> classes{};
};

TEST(LatencyRollup, SealMatchesSortedReferenceExactly) {
  using ncsw::serve::Outcome;
  using ncsw::serve::SloClass;
  constexpr int kClasses = ncsw::serve::kSloClassCount;
  ncsw::util::Xoshiro256 rng(99);
  for (std::size_t n : {1u, 2u, 5u, 64u, 333u, 2000u}) {
    ncsw::serve::LatencyRollup rollup(n / 2);
    std::vector<double> all;
    std::array<std::vector<double>, kClasses> by_class;
    std::array<std::int64_t, kClasses> offered{}, rejected{}, dropped{};
    const auto lat = heavy_duplicates(rng, n);
    for (std::size_t i = 0; i < n; ++i) {
      const auto c = static_cast<int>(rng.uniform_u64(kClasses));
      const auto o = static_cast<Outcome>(rng.uniform_u64(4) % 3);
      rollup.add(static_cast<SloClass>(c), o, lat[i]);
      ++offered[c];
      if (o == Outcome::kCompleted) {
        all.push_back(lat[i]);
        by_class[c].push_back(lat[i]);
      } else if (o == Outcome::kRejected) {
        ++rejected[c];
      } else {
        ++dropped[c];
      }
    }
    SealedReport r;
    rollup.seal(r);
    SCOPED_TRACE("n=" + std::to_string(n));
    EXPECT_EQ(r.p50_ms, sorted_percentile(all, 50.0));
    EXPECT_EQ(r.p95_ms, sorted_percentile(all, 95.0));
    EXPECT_EQ(r.p99_ms, sorted_percentile(all, 99.0));
    for (int c = 0; c < kClasses; ++c) {
      const auto& cs = r.classes[c];
      EXPECT_EQ(cs.p99_ms, sorted_percentile(by_class[c], 99.0));
      EXPECT_EQ(cs.offered, offered[c]);
      EXPECT_EQ(cs.completed,
                static_cast<std::int64_t>(by_class[c].size()));
      EXPECT_EQ(cs.rejected, rejected[c]);
      EXPECT_EQ(cs.dropped, dropped[c]);
    }
  }
}

TEST(LatencyRollup, SealWithZeroCompletionsReadsZero) {
  using ncsw::serve::Outcome;
  using ncsw::serve::SloClass;
  ncsw::serve::LatencyRollup rollup;
  rollup.add(SloClass::kBatch, Outcome::kRejected, 123.0);
  rollup.add(SloClass::kInteractive, Outcome::kDropped, 456.0);
  SealedReport r;
  rollup.seal(r);
  EXPECT_EQ(r.p50_ms, 0.0);
  EXPECT_EQ(r.p95_ms, 0.0);
  EXPECT_EQ(r.p99_ms, 0.0);
  const auto& batch = r.classes[static_cast<int>(SloClass::kBatch)];
  EXPECT_EQ(batch.offered, 1);
  EXPECT_EQ(batch.rejected, 1);
  EXPECT_EQ(batch.completed, 0);
  EXPECT_EQ(batch.p99_ms, 0.0);
  const auto& inter = r.classes[static_cast<int>(SloClass::kInteractive)];
  EXPECT_EQ(inter.dropped, 1);
  EXPECT_EQ(inter.p99_ms, 0.0);

  ncsw::serve::LatencyRollup none;
  SealedReport empty;
  none.seal(empty);
  EXPECT_EQ(empty.p50_ms, 0.0);
  EXPECT_EQ(empty.p99_ms, 0.0);
  for (const auto& cs : empty.classes) EXPECT_EQ(cs.offered, 0);
}

}  // namespace
