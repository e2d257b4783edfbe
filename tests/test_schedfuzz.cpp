// Schedule-perturbation determinism checker (check/schedfuzz.h): the
// fuzzer must leave commuting schedules invariant, catch a genuinely
// order-dependent tie, and minimise a divergence to the single tie
// decision that flips the result.
#include "check/schedfuzz.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/target.h"
#include "serve/server.h"

namespace {

using namespace ncsw;
using check::Fingerprint;
using check::SchedFuzzConfig;
using check::SchedFuzzReport;
using check::Scenario;

/// Deterministic analytic target (same shape as test_serve's).
class FakeTarget : public core::Target {
 public:
  FakeTarget(std::string label, double per_image_s, int max_batch)
      : label_(std::move(label)),
        per_image_s_(per_image_s),
        max_batch_(max_batch) {}

  std::string name() const override { return "fake " + label_; }
  std::string short_name() const override { return label_; }
  double tdp_w(int) const override { return 1.0; }
  int max_batch() const override { return max_batch_; }

  std::vector<core::Prediction> classify(
      const std::vector<tensor::TensorF>&) override {
    throw std::logic_error("timing-only fake");
  }

 protected:
  BatchExec execute_batch(std::int64_t images, int, double submit_s,
                          bool) override {
    BatchExec exec;
    exec.run.images = images;
    exec.run.seconds = per_image_s_ * static_cast<double>(images);
    exec.start_s = std::max(submit_s, free_s_);
    exec.complete_s = exec.start_s + exec.run.seconds;
    free_s_ = exec.complete_s;
    return exec;
  }

 private:
  std::string label_;
  double per_image_s_;
  int max_batch_;
  double free_s_ = 0.0;
};

/// Requests every `gap_s`, ids 0..n-1.
std::vector<serve::Request> paced(std::int64_t n, double gap_s) {
  std::vector<serve::Request> reqs(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    reqs[static_cast<std::size_t>(i)].id = i;
    reqs[static_cast<std::size_t>(i)].arrival_s =
        gap_s * static_cast<double>(i + 1);
  }
  return reqs;
}

TEST(Fingerprint, IsSensitiveToReportDifferences) {
  serve::ServeReport a;
  a.offered = 10;
  a.completed = 8;
  serve::ServeReport b = a;
  EXPECT_EQ(check::fingerprint(a), check::fingerprint(b));
  b.completed = 7;
  EXPECT_NE(check::fingerprint(a), check::fingerprint(b));
  // Per-record changes show up even when every total agrees.
  serve::RequestRecord rec;
  rec.request.id = 1;
  a.records.push_back(rec);
  b = a;
  b.records[0].complete_s = 0.5;
  b.completed = 8;
  EXPECT_NE(check::fingerprint(a), check::fingerprint(b));
}

TEST(SchedFuzz, SyntheticCommutingScenarioIsInvariant) {
  // The scenario presents tie groups but its result ignores the picks.
  Scenario scenario = [](const serve::TieBreak& tb) {
    if (tb) {
      std::vector<serve::LoopEvent> tied{
          {serve::LoopEventKind::kComplete, 0, 1.0},
          {serve::LoopEventKind::kArrive, 0, 1.0}};
      for (int i = 0; i < 5; ++i) (void)tb(1.0, tied);
    }
    return Fingerprint{{"result", "constant"}};
  };
  SchedFuzzConfig cfg;
  cfg.seeds = 8;
  const SchedFuzzReport report = check::fuzz_schedule(scenario, cfg);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.seeds_run, 8);
  EXPECT_EQ(report.ties_seen, 40);
  EXPECT_GT(report.perturbed, 0);
}

TEST(SchedFuzz, SyntheticOrderDependenceIsCaughtAndMinimized) {
  // The third of four tie groups is the only one whose pick leaks into
  // the result: minimisation must land exactly there.
  Scenario scenario = [](const serve::TieBreak& tb) {
    std::size_t leak = 0;
    if (tb) {
      std::vector<serve::LoopEvent> tied{
          {serve::LoopEventKind::kDrop, 0, 2.0},
          {serve::LoopEventKind::kFlush, 0, 2.0}};
      for (int i = 0; i < 4; ++i) {
        const std::size_t pick = tb(2.0, tied) % tied.size();
        if (i == 2) leak = pick;
      }
    }
    return Fingerprint{{"leak", std::to_string(leak)}};
  };
  SchedFuzzConfig cfg;
  cfg.seeds = 32;  // plenty of chances to flip decision #2
  const SchedFuzzReport report = check::fuzz_schedule(scenario, cfg);
  ASSERT_FALSE(report.ok());
  const auto& div = report.divergences.front();
  EXPECT_EQ(div.minimized_index, 2);
  EXPECT_NE(div.minimized_choice.find("drop"), std::string::npos);
  ASSERT_FALSE(div.diffs.empty());
  EXPECT_NE(div.diffs[0].find("leak"), std::string::npos);
}

TEST(SchedFuzz, RealServeTieDivergenceIsDetected) {
  // A genuinely order-ambiguous schedule: service takes 0.10s, arrivals
  // land every 0.05s, the queue holds one waiter. At t = 0.15 a batch
  // completion (freeing the queue) and an arrival (finding it full)
  // tie; complete-first admits the arrival, arrive-first rejects it.
  Scenario scenario = [](const serve::TieBreak& tb) {
    FakeTarget t("T", 0.10, 1);
    serve::ServerConfig cfg;
    cfg.queue_capacity = 1;
    cfg.max_batch = 1;
    cfg.trace_requests = false;
    serve::Server server({&t}, cfg);
    return check::fingerprint(server.run(paced(12, 0.05), tb));
  };
  SchedFuzzConfig cfg;
  cfg.seeds = 16;
  const SchedFuzzReport report = check::fuzz_schedule(scenario, cfg);
  EXPECT_GT(report.ties_seen, 0);
  ASSERT_FALSE(report.ok());
  const auto& div = report.divergences.front();
  EXPECT_GE(div.minimized_index, 0);
  ASSERT_FALSE(div.diffs.empty());
  // The admission decision is what flipped.
  bool mentions_admission = false;
  for (const auto& d : div.diffs) {
    if (d.find("rejected") != std::string::npos ||
        d.find("completed") != std::string::npos ||
        d.find("records") != std::string::npos) {
      mentions_admission = true;
    }
  }
  EXPECT_TRUE(mentions_admission);
}

TEST(SchedFuzz, RealServeCommutingTiesStayInvariant) {
  // Same tie times, but the queue never fills: completion-vs-arrival
  // order cannot change admission, so every permutation agrees.
  Scenario scenario = [](const serve::TieBreak& tb) {
    FakeTarget t("T", 0.10, 1);
    serve::ServerConfig cfg;
    cfg.queue_capacity = 64;
    cfg.max_batch = 1;
    cfg.trace_requests = false;
    serve::Server server({&t}, cfg);
    return check::fingerprint(server.run(paced(12, 0.05), tb));
  };
  SchedFuzzConfig cfg;
  cfg.seeds = 16;
  const SchedFuzzReport report = check::fuzz_schedule(scenario, cfg);
  EXPECT_GT(report.ties_seen, 0);
  EXPECT_TRUE(report.ok()) << report.divergences.front().to_string();
}

TEST(SchedFuzz, ZooLoopTakesTheHook) {
  // ZooServer::run passes the hook to the shared kernel: on a 50 ms grid
  // the zoo's same-timestamp groups reach the permuter, and at raw
  // Poisson times the scenario stays invariant.
  check::ScenarioKnobs k;
  k.requests = 200;
  SchedFuzzConfig cfg;
  cfg.seeds = 4;
  cfg.minimize = false;
  const SchedFuzzReport raw = check::fuzz_schedule(check::zoo_scenario(k), cfg);
  EXPECT_TRUE(raw.ok()) << raw.divergences.front().to_string();
  k.quantize_s = 0.05;
  const SchedFuzzReport grid =
      check::fuzz_schedule(check::zoo_scenario(k), cfg);
  EXPECT_GT(grid.ties_seen, 0);
  EXPECT_GT(grid.perturbed, 0);
}

}  // namespace
