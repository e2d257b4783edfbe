// The shared discrete-event kernel (serve/event_loop.h) and the three
// loops built on it. The pinned digests fold the check::fingerprint of
// the ncsw_schedfuzz serve, cluster (node kill) and zoo scenarios run at
// the fixed tie order; they were recorded from the hand-written loops
// the kernel replaced, so any change to event order shows up here.
#include "serve/event_loop.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "check/schedfuzz.h"

namespace {

using namespace ncsw;
using serve::event_source;
using serve::LoopEventKind;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// A source whose instance i fires once at times[i], logging "<tag><i>".
struct OneShots {
  std::vector<double> times;
  std::string tag;
  std::vector<std::string>* log;

  auto source(LoopEventKind kind) {
    return event_source(
        kind, static_cast<int>(times.size()),
        [this](int i) { return times[static_cast<std::size_t>(i)]; },
        [this](int i, double now) {
          times[static_cast<std::size_t>(i)] = kInf;
          log->push_back(tag + std::to_string(i) + "@" +
                         std::to_string(now));
        });
  }
};

TEST(EventLoop, ListOrderWinsTies) {
  std::vector<std::string> log;
  OneShots a{{1.0}, "a", &log}, b{{1.0}, "b", &log};
  serve::run_event_loop(0.0, {}, b.source(LoopEventKind::kComplete),
                        a.source(LoopEventKind::kArrive));
  EXPECT_EQ(log, (std::vector<std::string>{"b0@1.000000", "a0@1.000000"}));
}

TEST(EventLoop, EarliestTimeBeatsListOrder) {
  std::vector<std::string> log;
  OneShots a{{2.0}, "a", &log}, b{{1.0}, "b", &log};
  serve::run_event_loop(0.0, {}, a.source(LoopEventKind::kComplete),
                        b.source(LoopEventKind::kArrive));
  EXPECT_EQ(log, (std::vector<std::string>{"b0@1.000000", "a0@2.000000"}));
}

TEST(EventLoop, LowestIndexWinsSameKindTies) {
  std::vector<std::string> log;
  OneShots a{{3.0, 2.0, 2.0, 2.0}, "n", &log};
  serve::run_event_loop(0.0, {}, a.source(LoopEventKind::kComplete));
  EXPECT_EQ(log, (std::vector<std::string>{"n1@2.000000", "n2@2.000000",
                                           "n3@2.000000", "n0@3.000000"}));
}

TEST(EventLoop, HookIndexZeroReproducesFixedOrder) {
  const auto run = [](const serve::TieBreak& tb,
                      std::vector<std::vector<serve::LoopEvent>>* groups) {
    std::vector<std::string> log;
    OneShots a{{1.0, 1.0, 2.0}, "a", &log}, b{{1.0, 2.0}, "b", &log};
    serve::TieBreak hook;
    if (tb) {
      hook = [&](double t, const std::vector<serve::LoopEvent>& tied) {
        groups->push_back(tied);
        return tb(t, tied);
      };
    }
    serve::run_event_loop(0.0, hook, a.source(LoopEventKind::kComplete),
                          b.source(LoopEventKind::kDrop));
    return log;
  };
  std::vector<std::vector<serve::LoopEvent>> groups;
  const auto fixed = run({}, nullptr);
  const auto zero = run([](double, const std::vector<serve::LoopEvent>&) {
    return std::size_t{0};
  }, &groups);
  EXPECT_EQ(zero, fixed);
  // Called once per event; the first group lists every event due at
  // t = 1 in list order, then index order.
  ASSERT_EQ(groups.size(), 5u);
  ASSERT_EQ(groups[0].size(), 3u);
  EXPECT_EQ(groups[0][0].kind, LoopEventKind::kComplete);
  EXPECT_EQ(groups[0][0].index, 0);
  EXPECT_EQ(groups[0][1].kind, LoopEventKind::kComplete);
  EXPECT_EQ(groups[0][1].index, 1);
  EXPECT_EQ(groups[0][2].kind, LoopEventKind::kDrop);
  EXPECT_EQ(groups[0][2].index, 0);
  // A non-default pick fires that candidate first.
  const auto last = run([](double, const std::vector<serve::LoopEvent>& t) {
    return t.size() - 1;
  }, &groups);
  EXPECT_EQ(last.front(), "b0@1.000000");
}

TEST(EventLoop, ReturnsWhenNothingIsPending) {
  std::vector<std::string> log;
  OneShots idle{{kInf, kInf}, "x", &log}, none{{}, "y", &log};
  bool hook_called = false;
  const double end = serve::run_event_loop(
      4.0,
      [&](double, const std::vector<serve::LoopEvent>&) {
        hook_called = true;
        return std::size_t{0};
      },
      idle.source(LoopEventKind::kComplete),
      none.source(LoopEventKind::kArrive));
  EXPECT_EQ(end, 4.0);
  EXPECT_TRUE(log.empty());
  EXPECT_FALSE(hook_called);
}

TEST(EventLoop, ClockNeverMovesBackwards) {
  std::vector<std::string> log;
  OneShots a{{1.0}, "a", &log};
  const double end =
      serve::run_event_loop(5.0, {}, a.source(LoopEventKind::kComplete));
  EXPECT_EQ(log, (std::vector<std::string>{"a0@5.000000"}));
  EXPECT_EQ(end, 5.0);
}

/// FNV-1a over every (key, value) pair of a fingerprint.
std::string digest(const check::Fingerprint& fp) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& [key, value] : fp) {
    for (const char c : key + "=" + value + "\n") {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ULL;
    }
  }
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

std::string dump(const check::Fingerprint& fp) {
  std::string s;
  for (const auto& [key, value] : fp) s += "  " + key + " = " + value + "\n";
  return s;
}

check::ScenarioKnobs pinned_knobs() {
  check::ScenarioKnobs k;
  k.requests = 200;
  k.seed = 42;
  return k;
}

TEST(EventLoopPinned, ServeScenarioFingerprint) {
  const auto fp = check::serve_scenario(pinned_knobs())({});
  EXPECT_EQ(digest(fp), "8ae50dec4f82dafc") << dump(fp);
}

TEST(EventLoopPinned, ClusterKillScenarioFingerprint) {
  const auto fp = check::cluster_scenario(pinned_knobs())({});
  EXPECT_EQ(digest(fp), "9524fae91a7b9bfc") << dump(fp);
}

TEST(EventLoopPinned, ZooCostAwareScenarioFingerprint) {
  const auto fp = check::zoo_scenario(pinned_knobs())({});
  EXPECT_EQ(digest(fp), "8500f88cf6c3a966") << dump(fp);
}

TEST(EventLoopPinned, HookIndexZeroMatchesNoHookInEveryLoop) {
  // On a 50 ms grid every loop sees real tie groups.
  check::ScenarioKnobs k = pinned_knobs();
  k.quantize_s = 0.05;
  std::size_t calls = 0;
  const serve::TieBreak zero = [&](double,
                                   const std::vector<serve::LoopEvent>& t) {
    calls += t.size() > 1 ? 1 : 0;
    return std::size_t{0};
  };
  for (const auto& make :
       {check::serve_scenario, check::cluster_scenario, check::zoo_scenario}) {
    calls = 0;
    const check::Scenario scenario = make(k);
    EXPECT_EQ(scenario(zero), scenario({}));
    EXPECT_GT(calls, 0u);
  }
}

}  // namespace
