#include "serve/zoo_serve.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <stdexcept>

#include "check/serve_check.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace ncsw::serve {

namespace {

struct Rec {
  ZooRequest req;
  bool settled = false;  ///< `outcome` is final (not queued/in flight)
  Outcome outcome = Outcome::kCompleted;
  double dispatch_s = 0.0;
  double complete_s = 0.0;
};

/// Scheduling priority of a queue head: class first (interactive jumps
/// ahead of batch regardless of age), then arrival, then model index as
/// the deterministic tie-break.
struct HeadKey {
  bool has = false;
  int cls = 0;
  double arrival_s = 0.0;
  int model = 0;

  bool before(const HeadKey& o) const noexcept {
    if (has != o.has) return has;
    if (cls != o.cls) return cls < o.cls;
    if (arrival_s != o.arrival_s) return arrival_s < o.arrival_s;
    return model < o.model;
  }
};

/// One outstanding ticket on one stick.
struct Flight {
  bool active = false;
  core::Ticket ticket;
  int model = -1;
  std::vector<std::size_t> recs;
  double dispatch_s = 0.0;
  double complete_s = 0.0;
};

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

ZooServer::ZooServer(core::StickFleet& fleet, ZooConfig config)
    : fleet_(fleet), config_(config) {
  if (config_.queue_capacity < 1) config_.queue_capacity = 1;
  if (config_.max_batch < 1) {
    throw std::invalid_argument("ZooServer: max_batch < 1");
  }
  if (!(config_.queue_deadline_s > 0.0)) {
    throw std::invalid_argument("ZooServer: queue_deadline_s <= 0");
  }
}

ZooReport ZooServer::run(const std::vector<ZooRequest>& requests,
                         const TieBreak& tie_break) {
  const int K = fleet_.devices();
  const int M = fleet_.models();

  // The residency manager mirrors the fleet's current placement and
  // prices evictions with the fleet's calibrated swap-in costs.
  ResidencyManager rm(K, M, config_.residency);
  for (int m = 0; m < M; ++m) rm.set_swap_cost(m, fleet_.swap_in_cost_s(m));
  for (int d = 0; d < K; ++d) {
    if (fleet_.resident_model(d) >= 0) {
      rm.install(d, fleet_.resident_model(d), 0.0);
    }
  }

  std::vector<Rec> recs;
  recs.reserve(requests.size());
  // queues[m][c]: FIFO of record indices for model m, class c. Per-class
  // sub-queues keep the head of each (model, class) pair the earliest
  // deadline of that pair, so deadline drops only ever scan heads.
  std::vector<std::array<std::deque<std::size_t>, kSloClassCount>> queues(
      static_cast<std::size_t>(M));
  std::size_t queued_total = 0;
  std::array<std::size_t, kSloClassCount> queued_by_class{};

  std::vector<Flight> flights(static_cast<std::size_t>(K));
  std::vector<double> busy_until(static_cast<std::size_t>(K), 0.0);
  std::vector<char> swap_pending(static_cast<std::size_t>(K), 0);

  ZooReport report;
  report.models.resize(static_cast<std::size_t>(M));
  for (int m = 0; m < M; ++m) report.models[m].name = fleet_.model_name(m);

  double last_arrival = -kInf;
  for (const auto& r : requests) {
    if (r.arrival_s < last_arrival) {
      throw std::invalid_argument("ZooServer: arrivals not sorted");
    }
    if (r.model < 0 || r.model >= M) {
      throw std::invalid_argument("ZooServer: model index out of range");
    }
    last_arrival = r.arrival_s;
  }
  report.first_arrival_s = requests.empty() ? 0.0 : requests[0].arrival_s;

  const auto head_key = [&](int m) {
    HeadKey key;
    for (int c = 0; c < static_cast<int>(kSloClassCount); ++c) {
      const auto& q = queues[m][c];
      if (q.empty()) continue;
      key.has = true;
      key.cls = c;
      key.arrival_s = recs[q.front()].req.arrival_s;
      key.model = m;
      return key;
    }
    return key;
  };

  const auto stick_free = [&](int d, double now) {
    return !flights[d].active && busy_until[d] <= now;
  };

  // One scheduling pass at `now`: repeatedly take the best-priority
  // action (dispatch resident work, or swap a missing model in) until
  // no free stick can make progress. Every action consumes a free
  // stick, so the pass terminates.
  const auto pass = [&](double now) {
    for (;;) {
      HeadKey best;
      int best_stick = -1;
      bool best_is_swap = false;
      for (int d = 0; d < K; ++d) {
        if (!stick_free(d, now)) continue;
        const int r = fleet_.resident_model(d);
        if (r < 0) continue;
        const HeadKey key = head_key(r);
        if (key.has && key.before(best)) {
          best = key;
          best_stick = d;
          best_is_swap = false;
        }
      }
      for (int m = 0; m < M; ++m) {
        if (rm.is_resident(m)) continue;
        const HeadKey key = head_key(m);
        if (!key.has || !key.before(best)) continue;
        const SwapPlan plan = rm.plan_swap(m, now);
        if (plan.stick < 0 || !stick_free(plan.stick, now)) continue;
        best = key;
        best_stick = plan.stick;
        best_is_swap = true;
      }
      if (!best.has) return;

      if (best_is_swap) {
        // swap_to drains + deallocates + allocates under the verifiers
        // and emits the swap trace span on the stick's lane.
        const double done = fleet_.swap_to(best_stick, best.model, now);
        rm.install(best_stick, best.model, done);
        report.swaps += 1;
        report.swap_stall_s += done - now;
        report.models[best.model].swaps_in += 1;
        busy_until[best_stick] = done;
        swap_pending[best_stick] = 1;
        continue;
      }

      Flight& f = flights[best_stick];
      f.recs.clear();
      for (int c = 0; c < static_cast<int>(kSloClassCount) &&
                      static_cast<int>(f.recs.size()) < config_.max_batch;
           ++c) {
        auto& q = queues[best.model][c];
        while (!q.empty() &&
               static_cast<int>(f.recs.size()) < config_.max_batch) {
          f.recs.push_back(q.front());
          q.pop_front();
          --queued_total;
          --queued_by_class[c];
        }
      }
      check::serve_verifier().on_zoo_dispatch(
          fleet_.stick(best_stick).short_name(),
          fleet_.model_name(fleet_.resident_model(best_stick)),
          fleet_.model_name(best.model), now);
      auto& stick = fleet_.stick(best_stick);
      f.ticket = stick.submit(static_cast<std::int64_t>(f.recs.size()),
                              /*batch=*/1, now);
      const auto info = stick.info(f.ticket);
      f.active = true;
      f.model = best.model;
      f.dispatch_s = now;
      f.complete_s = info.complete_s;
      busy_until[best_stick] = info.complete_s;
      rm.touch(best_stick, now);
      for (const std::size_t i : f.recs) recs[i].dispatch_s = now;
    }
  };

  auto& tr = util::tracer();
  std::size_t next_arrival = 0;
  double end_s = report.first_arrival_s;

  const auto settle = [&](std::size_t i, Outcome outcome, double at_s) {
    recs[i].settled = true;
    recs[i].outcome = outcome;
    recs[i].complete_s = at_s;
  };
  const auto on_complete = [&](int d, double now) {
    Flight& f = flights[d];
    fleet_.stick(d).wait(f.ticket);
    for (const std::size_t i : f.recs) {
      settle(i, Outcome::kCompleted, f.complete_s);
    }
    report.completed += static_cast<std::int64_t>(f.recs.size());
    report.models[f.model].completed +=
        static_cast<std::int64_t>(f.recs.size());
    end_s = std::max(end_s, f.complete_s);
    report.last_complete_s = std::max(report.last_complete_s, f.complete_s);
    if (tr.enabled()) {
      tr.complete("zoo", "batch:" + fleet_.model_name(f.model),
                  tr.lane("zoo " + fleet_.stick(d).short_name()),
                  f.dispatch_s, f.complete_s,
                  {util::TraceArg::num(
                      "images", static_cast<std::int64_t>(f.recs.size()))});
    }
    f.active = false;
    f.recs.clear();
    pass(now);
  };
  const auto on_ready = [&](int d, double now) {
    swap_pending[d] = 0;
    end_s = std::max(end_s, now);
    pass(now);
  };
  // Drop instance i is the (model, class) queue i / kSloClassCount,
  // i % kSloClassCount; only queue heads can be the earliest deadline.
  const auto drop_due = [&](int i) {
    const auto& q = queues[i / kSloClassCount][i % kSloClassCount];
    return q.empty() ? kInf
                     : recs[q.front()].req.arrival_s + config_.queue_deadline_s;
  };
  const auto on_drop = [&](int i, double now) {
    const int cls = i % kSloClassCount;
    auto& q = queues[i / kSloClassCount][cls];
    settle(q.front(), Outcome::kDropped, now);
    q.pop_front();
    --queued_total;
    --queued_by_class[cls];
    report.dropped += 1;
    end_s = std::max(end_s, now);
    pass(now);
  };
  const auto on_arrive = [&](int, double now) {
    const ZooRequest& req = requests[next_arrival++];
    report.offered += 1;
    report.models[req.model].offered += 1;
    const int cls = static_cast<int>(req.slo);
    const bool admit = queued_total < config_.queue_capacity &&
                       queued_by_class[cls] < config_.class_quota[cls];
    recs.push_back(Rec{req, false, Outcome::kCompleted, 0.0, 0.0});
    if (!admit) {
      settle(recs.size() - 1, Outcome::kRejected, req.arrival_s);
      report.rejected += 1;
    } else {
      report.accepted += 1;
      // Admission-time residency is the hit/miss the tenant observes:
      // resident -> the request can run without a swap in front of it.
      if (rm.is_resident(req.model)) {
        report.hits += 1;
      } else {
        report.misses += 1;
      }
      queues[req.model][cls].push_back(recs.size() - 1);
      ++queued_total;
      ++queued_by_class[cls];
    }
    end_s = std::max(end_s, req.arrival_s);
    pass(now);
  };

  double now = -kInf;
  double last_stall = -kInf;
  for (;;) {
    now = run_event_loop(
        now, tie_break,
        event_source(
            LoopEventKind::kComplete, K,
            [&](int d) { return flights[d].active ? flights[d].complete_s
                                                  : kInf; },
            on_complete),
        event_source(
            LoopEventKind::kReady, K,
            [&](int d) { return swap_pending[d] ? busy_until[d] : kInf; },
            on_ready),
        event_source(LoopEventKind::kDrop,
                     std::isfinite(config_.queue_deadline_s)
                         ? M * kSloClassCount
                         : 0,
                     drop_due, on_drop),
        event_source(
            LoopEventKind::kArrive, 1,
            [&](int) {
              return next_arrival < requests.size()
                         ? requests[next_arrival].arrival_s
                         : kInf;
            },
            on_arrive));
    if (queued_total == 0) break;
    // All sticks idle, queued work not resident, every stick inside
    // its hysteresis window: advance to the earliest unlock.
    now = std::max(end_s, rm.earliest_unlock_s());
    if (now == last_stall) {
      throw std::logic_error("ZooServer: scheduler stalled");
    }
    last_stall = now;
    pass(now);
  }

  // ------------------------------------------------------------ finish
  LatencyRollup rollup(static_cast<std::size_t>(report.completed));
  for (const auto& r : recs) {
    if (!r.settled) {
      throw std::logic_error("ZooServer: request left queued at finish");
    }
    const double ms = (r.complete_s - r.req.arrival_s) * 1e3;
    if (r.outcome == Outcome::kCompleted) report.latency_ms.add(ms);
    rollup.add(r.req.slo, r.outcome, ms);
  }
  rollup.seal(report);
  report.installs = fleet_.installs();
  report.evicts = fleet_.evicts();
  report.resident = fleet_.resident_count();

  auto& metrics = util::metrics();
  metrics.counter("serve.zoo.offered").add(report.offered);
  metrics.counter("serve.zoo.completed").add(report.completed);
  metrics.counter("serve.zoo.hits").add(report.hits);
  metrics.counter("serve.zoo.misses").add(report.misses);

  check::serve_verifier().on_zoo_finish(
      "zoo", report.offered, report.completed, report.rejected,
      report.dropped, report.installs, report.evicts, report.resident, end_s);

  if (tr.enabled()) {
    tr.complete(
        "zoo", "zoo run", tr.lane("zoo sched"), report.first_arrival_s, end_s,
        {util::TraceArg::num("offered", report.offered),
         util::TraceArg::num("accepted", report.accepted),
         util::TraceArg::num("completed", report.completed),
         util::TraceArg::num("rejected", report.rejected),
         util::TraceArg::num("dropped", report.dropped),
         util::TraceArg::num("hits", report.hits),
         util::TraceArg::num("misses", report.misses),
         util::TraceArg::num("swaps", report.swaps)});
  }
  return report;
}

}  // namespace ncsw::serve
