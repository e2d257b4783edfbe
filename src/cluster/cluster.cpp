#include "cluster/cluster.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <queue>
#include <set>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "check/serve_check.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace ncsw::cluster {

const char* request_state_name(RequestState s) {
  switch (s) {
    case RequestState::kCompleted: return "completed";
    case RequestState::kRejected: return "rejected";
    case RequestState::kDeadline: return "deadline";
    case RequestState::kLost: return "lost";
  }
  return "?";
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Cluster-side lifetime of one request id across all of its copies
/// (the original, failover replays, and hedge duplicates).
struct Ledger {
  serve::Request req;        ///< payload for replays / hedges
  int live = 0;              ///< copies currently queued or in flight
  int replays = 0;
  int hedges = 0;
  int last_node = -1;        ///< node holding the newest copy
  bool completed = false;    ///< first completion already delivered
  bool terminal = false;     ///< rejected / deadline-dropped, no retry
  RequestState state = RequestState::kLost;
  double finish_s = -1.0;
  int node = -1;             ///< completing node
  double evicted_s = -1.0;   ///< last failover eviction time
};

/// A request termination reported by a node session, queued for
/// processing after the session call returns (observer callbacks must
/// not re-enter the session).
struct FinEvent {
  serve::Request req;
  serve::Outcome outcome = serve::Outcome::kCompleted;
  serve::DropReason reason = serve::DropReason::kNone;
  double at_s = 0.0;
  int node = -1;
};

/// An armed hedge: fires when a dispatched copy's promised completion
/// has slipped by hedge_slack_s. `seq` breaks fire-time ties in
/// arming order, keeping the replay deterministic.
struct HedgeTimer {
  double fire_s = 0.0;
  std::int64_t seq = 0;
  std::int64_t id = 0;
  int node = -1;  ///< node the armed copy was dispatched on

  bool operator>(const HedgeTimer& o) const noexcept {
    if (fire_s != o.fire_s) return fire_s > o.fire_s;
    return seq > o.seq;
  }
};

/// A request awaiting failover replay; `evicted_s` feeds the failover
/// latency rollup when the replayed copy completes.
struct ReplayItem {
  serve::Request req;
  double evicted_s = 0.0;
};

}  // namespace

Cluster::Cluster(std::vector<std::vector<core::Target*>> node_targets,
                 ClusterConfig config)
    : config_(config), node_targets_(std::move(node_targets)) {
  if (node_targets_.empty()) {
    throw std::invalid_argument("Cluster: no nodes");
  }
  if (config_.models < 1) {
    throw std::invalid_argument("Cluster: models must be >= 1");
  }
  if (config_.max_hedges < 0) {
    throw std::invalid_argument("Cluster: max_hedges must be >= 0");
  }
  if (!(config_.residency_load_s >= 0.0)) {
    throw std::invalid_argument("Cluster: bad residency_load_s");
  }
  if (!(config_.node_prior_tput > 0.0)) {
    throw std::invalid_argument("Cluster: node_prior_tput must be > 0");
  }
  if (!(config_.node_gain > 0.0) || config_.node_gain > 1.0) {
    throw std::invalid_argument("Cluster: node_gain must be in (0, 1]");
  }
  config_.replication = std::max(
      1, std::min(config_.replication,
                  static_cast<int>(node_targets_.size())));
  config_.node.trace_requests = config_.trace_requests;
}

ClusterReport Cluster::run(const std::vector<serve::Request>& requests,
                           const serve::TieBreak& tie_break) {
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (!std::isfinite(requests[i].arrival_s) ||
        (i > 0 && requests[i].arrival_s < requests[i - 1].arrival_s)) {
      throw std::invalid_argument(
          "Cluster::run: arrivals must be finite and sorted");
    }
  }

  const int n_nodes = static_cast<int>(node_targets_.size());
  ClusterReport report;
  HashRing ring(n_nodes, config_.vnodes, config_.ring_seed);

  // The serving verifier (check/serve_check.h) shadows the ledger:
  // first-completion-wins delivery, live-copy counts, and end-of-run
  // conservation. Every hook is a no-op in kOff mode.
  auto& sv = check::serve_verifier();
  sv.on_cluster_begin();

  auto& reg = util::metrics();
  util::Counter& m_offered = reg.counter("cluster.offered");
  util::Counter& m_completed = reg.counter("cluster.completed");
  util::Counter& m_rejected = reg.counter("cluster.rejected");
  util::Counter& m_replays = reg.counter("cluster.replays");
  util::Counter& m_hedges = reg.counter("cluster.hedges");
  util::Counter& m_duplicates = reg.counter("cluster.duplicates");
  util::Counter& m_kills = reg.counter("cluster.node_kills");
  util::Counter& m_rejoins = reg.counter("cluster.node_rejoins");
  util::Counter& m_parked = reg.counter("cluster.parked");
  util::Counter& m_spills = reg.counter("cluster.spills");
  util::Gauge& g_up = reg.gauge("cluster.nodes_up");

  auto& tr = util::tracer();
  int sched_lane = -1, event_lane = -1;
  if (tr.enabled()) {
    sched_lane = tr.lane("cluster sched");
    event_lane = tr.lane("cluster events");
  }
  auto instant = [&](const char* name, double t) {
    if (tr.enabled() && event_lane >= 0) {
      tr.instant("cluster", name, event_lane, t);
    }
  };

  // ---- shared event state (filled by observers, drained between
  // session calls; observers never re-enter a session) ----
  std::map<std::int64_t, Ledger> ledger;
  std::deque<FinEvent> fins;
  std::deque<ReplayItem> replays;
  std::deque<ReplayItem> parked;
  std::priority_queue<HedgeTimer, std::vector<HedgeTimer>,
                      std::greater<HedgeTimer>>
      hedges;
  std::int64_t hedge_seq = 0;

  /// Per-node runtime state around its serve::Session.
  struct NodeState {
    std::unique_ptr<serve::Session> session;
    std::unique_ptr<core::StickHealth> health;
    sim::FaultTimeline timeline;
    std::vector<sim::FaultEvent> fault_starts;  ///< node windows, sorted
    std::size_t fault_cursor = 0;
    bool up = true;
    bool rejoin_pending = false;  ///< probe passed; reloading graphs
    double ready_s = kInf;
    double tput_est = 0.0;
    bool observed = false;
    int resident_models = 0;
    NodeReport stats;
  };
  std::vector<NodeState> nodes(static_cast<std::size_t>(n_nodes));

  struct NodeObserver : serve::Session::Observer {
    int node = -1;
    NodeState* ns = nullptr;
    std::deque<FinEvent>* fins = nullptr;
    std::priority_queue<HedgeTimer, std::vector<HedgeTimer>,
                        std::greater<HedgeTimer>>* hedges = nullptr;
    std::map<std::int64_t, Ledger>* ledger = nullptr;
    std::int64_t* hedge_seq = nullptr;
    double hedge_slack_s = 0.0;
    int max_hedges = 0;
    double gain = 0.25;

    void on_dispatched(const serve::Request& req, double /*dispatch_s*/,
                       double promised_complete_s) override {
      Ledger& led = (*ledger)[req.id];
      led.last_node = node;
      // Arm a hedge against the *promised* completion: if the node
      // wedges, the observed completion slips past this timer and the
      // duplicate fires; if the promise holds, the timer is a no-op.
      if (hedge_slack_s > 0.0 && led.hedges < max_hedges) {
        hedges->push({promised_complete_s + hedge_slack_s, (*hedge_seq)++,
                      req.id, node});
      }
    }
    void on_batch_completed(int /*target*/, double dispatch_s,
                            double complete_s,
                            std::int64_t completed) override {
      // Node-granularity feedback: the same clearing-rate EWMA the
      // dispatcher runs per target, lifted to the node. Dispatch-to-
      // observed-completion, so a wedge slip sinks the estimate.
      const double dur = complete_s - dispatch_s;
      if (dur > 0.0) {
        const double obs = static_cast<double>(completed) / dur;
        if (!ns->observed) {
          ns->tput_est = obs;
          ns->observed = true;
        } else {
          ns->tput_est = (1.0 - gain) * ns->tput_est + gain * obs;
        }
      }
      ns->health->on_success();
    }
    void on_finished(const serve::Request& req, serve::Outcome outcome,
                     serve::DropReason reason, double at_s) override {
      fins->push_back({req, outcome, reason, at_s, node});
    }
  };
  std::vector<NodeObserver> observers(static_cast<std::size_t>(n_nodes));

  for (int i = 0; i < n_nodes; ++i) {
    const auto ui = static_cast<std::size_t>(i);
    NodeState& ns = nodes[ui];
    NodeObserver& ob = observers[ui];
    ob.node = i;
    ob.ns = &ns;
    ob.fins = &fins;
    ob.hedges = &hedges;
    ob.ledger = &ledger;
    ob.hedge_seq = &hedge_seq;
    ob.hedge_slack_s = config_.hedge_slack_s;
    ob.max_hedges = config_.max_hedges;
    ob.gain = config_.node_gain;

    ns.timeline = config_.faults.timeline_for(i);
    for (const auto& ev : ns.timeline.events()) {
      if (ev.kind == sim::FaultKind::kNodeCrash ||
          ev.kind == sim::FaultKind::kNodeWedge) {
        ns.fault_starts.push_back(ev);
      }
    }
    ns.health = std::make_unique<core::StickHealth>(i, config_.node_health);
    ns.tput_est = config_.node_prior_tput;
    // Wedge windows slip every completion promised inside them to the
    // window's end — the node accepts work but delivers none meanwhile.
    const sim::FaultTimeline tl = ns.timeline;
    ns.session = std::make_unique<serve::Session>(
        node_targets_[ui], config_.node, "n" + std::to_string(i), &ob,
        [tl](double t) {
          return tl.clear_of(sim::FaultKind::kNodeWedge, t);
        });
  }
  g_up.set(static_cast<double>(n_nodes));

  // ---- model catalogue -> replica preference lists ----
  std::unordered_map<std::string, std::vector<int>> prefs_of;
  auto prefs_for = [&](const std::string& model) -> const std::vector<int>& {
    auto it = prefs_of.find(model);
    if (it == prefs_of.end()) {
      auto prefs =
          ring.preference(HashRing::hash_key(model), config_.replication);
      for (const int n : prefs) {
        ++nodes[static_cast<std::size_t>(n)].resident_models;
      }
      it = prefs_of.emplace(model, std::move(prefs)).first;
    }
    return it->second;
  };
  auto model_of = [&](const serve::Request& req) {
    return req.tag.empty()
               ? "m" + std::to_string(req.id % static_cast<std::int64_t>(
                                                   config_.models))
               : req.tag;
  };
  // Pre-warm the default catalogue so rejoin residency costs are known
  // up front and independent of arrival order.
  for (int m = 0; m < config_.models; ++m) {
    prefs_for("m" + std::to_string(m));
  }

  auto eligible = [&](int n) {
    const NodeState& ns = nodes[static_cast<std::size_t>(n)];
    return ns.up && ns.health->schedulable();
  };
  // Route within the replica set: unobserved nodes first (explore),
  // then the least expected wait (queued + in-flight work over the
  // node's clearing-rate estimate); ties keep ring preference order.
  // Capacity is judged per class: a node whose queue has room but whose
  // class quota for this request is exhausted does not count. `exclude`
  // skips one node (a hedge never duplicates onto the slow node).
  auto pick_node = [&](const std::vector<int>& prefs, bool need_capacity,
                       serve::SloClass slo, int exclude = -1) {
    int best = -1;
    bool best_unobs = false;
    double best_wait = kInf;
    for (const int n : prefs) {
      if (n == exclude || !eligible(n)) continue;
      const NodeState& ns = nodes[static_cast<std::size_t>(n)];
      if (need_capacity && !ns.session->has_capacity_for(slo)) continue;
      const bool unobs = !ns.observed;
      const double backlog = static_cast<double>(ns.session->queue_depth() +
                                                 ns.session->inflight());
      const double wait = backlog / ns.tput_est;
      if (best < 0 || (unobs && !best_unobs) ||
          (unobs == best_unobs && wait < best_wait)) {
        best = n;
        best_unobs = unobs;
        best_wait = wait;
      }
    }
    return best;
  };

  // Overflow routing off the ring: the replica set is capacity-blind,
  // so when all replicas of a model are saturated (or down) a request
  // may run on any healthy node; that node warms the model and counts
  // as resident from then on (it pays the graph re-load on rejoin).
  std::vector<int> all_nodes(static_cast<std::size_t>(n_nodes));
  for (int i = 0; i < n_nodes; ++i) all_nodes[static_cast<std::size_t>(i)] = i;
  std::set<std::pair<int, std::string>> spill_resident;
  auto pick_spill = [&](const std::string& model, bool need_capacity,
                        serve::SloClass slo, double t) {
    if (!config_.spill) return -1;
    const int n = pick_node(all_nodes, need_capacity, slo);
    if (n < 0) return -1;
    if (spill_resident.emplace(n, model).second) {
      ++nodes[static_cast<std::size_t>(n)].resident_models;
    }
    ++report.requests_spilled;
    m_spills.add(1);
    instant("spill", t);
    return n;
  };

  // Failover: every request a dead or quarantined node was holding is
  // re-offered to a live replica (force = the replica must not bounce
  // it) or parked until a replica rejoins. Zero requests lost.
  auto evict_node = [&](int n, double t) {
    NodeState& ns = nodes[static_cast<std::size_t>(n)];
    auto evicted = ns.session->evict_all(t);
    ns.stats.evicted += static_cast<std::int64_t>(evicted.size());
    for (auto& req : evicted) {
      Ledger& led = ledger[req.id];
      --led.live;
      if (sv.enabled()) sv.on_ledger_live(req.id, led.live, t);
      if (!led.completed && !led.terminal) {
        led.evicted_s = t;
        replays.push_back({std::move(req), t});
      }
    }
  };

  // Process queued terminations and failover replays until quiescent.
  // Replaying into a session can surface further terminations (the
  // deadline sweep runs on admission), so loop to a fixed point.
  auto drain = [&](double t) {
    while (!fins.empty() || !replays.empty()) {
      while (!fins.empty()) {
        FinEvent ev = std::move(fins.front());
        fins.pop_front();
        Ledger& led = ledger[ev.req.id];
        --led.live;
        if (sv.enabled()) sv.on_ledger_live(ev.req.id, led.live, t);
        switch (ev.outcome) {
          case serve::Outcome::kCompleted:
            if (!led.completed) {
              if (sv.enabled()) {
                sv.on_ledger_deliver(ev.req.id, ev.node, ev.at_s);
              }
              led.completed = true;
              led.state = RequestState::kCompleted;
              led.finish_s = ev.at_s;
              led.node = ev.node;
              ++report.completed;
              m_completed.add(1);
              const double ms = (ev.at_s - ev.req.arrival_s) * 1e3;
              report.latency_ms.add(ms);
              if (led.evicted_s >= 0.0) {
                report.failover_ms.add((ev.at_s - led.evicted_s) * 1e3);
              }
              report.last_complete_s =
                  std::max(report.last_complete_s, ev.at_s);
            } else {
              ++report.duplicate_completions;
              m_duplicates.add(1);
            }
            break;
          case serve::Outcome::kRejected:
            // Only speculative copies route without force; the
            // original stays live, so nothing terminal happens here.
            break;
          case serve::Outcome::kDropped:
            if (ev.reason == serve::DropReason::kDeadline) {
              // Policy drop, not a fault: the request aged out. It is
              // terminal once no other copy can still complete it.
              if (!led.completed && !led.terminal && led.live <= 0) {
                led.terminal = true;
                led.state = RequestState::kDeadline;
                led.finish_s = ev.at_s;
                ++report.dropped_deadline;
              }
            } else if (!led.completed && !led.terminal) {
              // Lost in flight or abandoned by a failing target:
              // replay it like an eviction.
              led.evicted_s = ev.at_s;
              replays.push_back({ev.req, ev.at_s});
            }
            break;
        }
      }
      while (!replays.empty()) {
        ReplayItem item = std::move(replays.front());
        replays.pop_front();
        Ledger& led = ledger[item.req.id];
        if (led.completed || led.terminal || led.live > 0) continue;
        const std::string model = model_of(item.req);
        int n = pick_node(prefs_for(model), /*need_capacity=*/false,
                          item.req.slo);
        if (n < 0) {
          n = pick_spill(model, /*need_capacity=*/false, item.req.slo, t);
        }
        if (n < 0) {
          parked.push_back(std::move(item));
          m_parked.add(1);
          instant("park", t);
          continue;
        }
        ++led.replays;
        ++led.live;
        ++report.requests_replayed;
        m_replays.add(1);
        instant("replay", t);
        nodes[static_cast<std::size_t>(n)].session->offer(item.req, t,
                                                          /*force=*/true);
      }
    }
  };

  auto unpark_all = [&](double t) {
    while (!parked.empty()) {
      replays.push_back(std::move(parked.front()));
      parked.pop_front();
    }
    drain(t);
  };

  auto nodes_up = [&] {
    int n = 0;
    for (const auto& ns : nodes) n += ns.up ? 1 : 0;
    return n;
  };

  // A node's whole session failed (every target dead): permanent loss
  // of the node; strand nothing.
  auto node_failed = [&](int n, double t) {
    NodeState& ns = nodes[static_cast<std::size_t>(n)];
    ns.up = false;
    ns.rejoin_pending = false;
    ns.ready_s = kInf;
    ns.health->on_gone(t);
    while (ns.health->state() != core::HealthState::kDead) {
      ns.health->on_probe_failure(t);
    }
    ++report.nodes_dead;
    g_up.set(static_cast<double>(nodes_up()));
    evict_node(n, t);
    drain(t);
  };

  std::size_t next_arrival = 0;

  const auto on_complete = [&](int n, double now) {
    try {
      nodes[static_cast<std::size_t>(n)].session->on_complete(now);
    } catch (...) {
      node_failed(n, now);
      return;
    }
    drain(now);
  };
  const auto on_drop = [&](int n, double now) {
    nodes[static_cast<std::size_t>(n)].session->on_drop(now);
    drain(now);
  };
  const auto on_fault = [&](int n, double now) {
    NodeState& ns = nodes[static_cast<std::size_t>(n)];
    const sim::FaultEvent fe = ns.fault_starts[ns.fault_cursor++];
    if (fe.kind == sim::FaultKind::kNodeCrash) {
      ns.up = false;
      ns.rejoin_pending = false;
      ns.ready_s = kInf;
      ns.health->on_gone(now);
      ++ns.stats.crashes;
      ++report.node_kills;
      m_kills.add(1);
      g_up.set(static_cast<double>(nodes_up()));
      instant("kill", now);
      evict_node(n, now);
      drain(now);
    } else {  // kNodeWedge: state change is implicit — promised
              // completions slip via the session's completion map,
              // and hedges below quarantine the node if it lingers.
      ++ns.stats.wedges;
      ++report.node_wedges;
      instant("wedge", now);
    }
  };
  const auto on_probe = [&](int n, double now) {
    NodeState& ns = nodes[static_cast<std::size_t>(n)];
    const bool still_faulted =
        ns.timeline.active(sim::FaultKind::kNodeCrash, now) != nullptr ||
        ns.timeline.active(sim::FaultKind::kNodeWedge, now) != nullptr;
    if (still_faulted) {
      ns.health->on_probe_failure(now);
      if (ns.health->state() == core::HealthState::kDead) {
        ++report.nodes_dead;
        instant("dead", now);
      }
    } else {
      const bool replug = ns.health->needs_replug();
      ns.health->on_probe_success();
      if (replug) {
        // Crash recovery: the node's resident graphs re-load before it
        // takes traffic again.
        ns.rejoin_pending = true;
        ns.ready_s = now + static_cast<double>(ns.resident_models) *
                               config_.residency_load_s;
        instant("probe-ok", now);
      } else {
        // Wedge quarantine lift: graphs never left; back in the
        // schedule immediately.
        instant("requalified", now);
        unpark_all(now);
      }
    }
  };
  const auto on_ready = [&](int n, double now) {
    NodeState& ns = nodes[static_cast<std::size_t>(n)];
    ns.rejoin_pending = false;
    ns.ready_s = kInf;
    ns.up = true;
    ++ns.stats.rejoins;
    ++report.node_rejoins;
    m_rejoins.add(1);
    g_up.set(static_cast<double>(nodes_up()));
    instant("rejoin", now);
    unpark_all(now);
  };
  const auto on_hedge = [&](int, double now) {
    const HedgeTimer h = hedges.top();
    hedges.pop();
    auto it = ledger.find(h.id);
    if (it == ledger.end()) return;
    Ledger& led = it->second;
    // Stale timers: the copy completed, moved nodes, or was evicted —
    // nothing slipped on this node after all.
    if (led.completed || led.terminal || led.live <= 0 ||
        led.last_node != h.node) {
      return;
    }
    NodeState& slow = nodes[static_cast<std::size_t>(h.node)];
    if (!slow.up || !slow.health->schedulable()) return;
    // The node promised and did not deliver: that is a transient
    // failure at node granularity. Enough of them quarantine the node
    // through the same ladder a flaky stick descends.
    const bool was_schedulable = slow.health->schedulable();
    slow.health->on_transient_failure(now);
    const bool quarantined = was_schedulable && !slow.health->schedulable();
    // Deadline-aware duplicate: only hedge when the copy could still
    // beat its queue deadline on another replica, and only for classes
    // up to hedge_max_class — batch work never pays for speculative
    // duplicates.
    const double deadline_s =
        led.req.arrival_s + config_.node.queue_deadline_s;
    if (led.hedges < config_.max_hedges && now < deadline_s &&
        static_cast<int>(led.req.slo) <=
            static_cast<int>(config_.hedge_max_class)) {
      const int best = pick_node(prefs_for(model_of(led.req)),
                                 /*need_capacity=*/true, led.req.slo, h.node);
      if (best >= 0) {
        ++led.hedges;
        ++led.live;
        ++report.requests_hedged;
        m_hedges.add(1);
        instant("hedge", now);
        nodes[static_cast<std::size_t>(best)].session->offer(led.req, now);
      }
    }
    if (quarantined) {
      instant("quarantine", now);
      evict_node(h.node, now);
    }
    drain(now);
  };
  const auto on_arrive = [&](int, double now) {
    const serve::Request& req = requests[next_arrival++];
    ++report.offered;
    m_offered.add(1);
    auto [it, inserted] = ledger.try_emplace(req.id);
    if (!inserted) {
      throw std::invalid_argument("Cluster::run: duplicate request id");
    }
    Ledger& led = it->second;
    led.req = req;
    const std::string model = model_of(req);
    int n = pick_node(prefs_for(model), /*need_capacity=*/true, req.slo);
    if (n < 0) {
      n = pick_spill(model, /*need_capacity=*/true, req.slo, now);
    }
    if (n < 0) {
      // Admission control at cluster granularity: every live replica
      // of this model is saturated (or down).
      led.terminal = true;
      led.state = RequestState::kRejected;
      led.finish_s = now;
      ++report.rejected;
      m_rejected.add(1);
    } else {
      led.live = 1;
      ++nodes[static_cast<std::size_t>(n)].stats.routed;
      nodes[static_cast<std::size_t>(n)].session->offer(req, now);
    }
    drain(now);
  };
  const auto on_flush = [&](int n, double now) {
    nodes[static_cast<std::size_t>(n)].session->on_flush(now);
    drain(now);
  };
  const auto node = [&](int n) -> const NodeState& {
    return nodes[static_cast<std::size_t>(n)];
  };

  // Fixed order, then node index: completions retire work before faults
  // or drops reroute it, probes/rejoins restore capacity before hedges
  // and arrivals claim it, flushes batch up whatever remains.
  using serve::LoopEventKind;
  using serve::event_source;
  const double end_s = serve::run_event_loop(
      0.0, tie_break,
      event_source(
          LoopEventKind::kComplete, n_nodes,
          [&](int n) { return node(n).session->next_complete_s(); },
          on_complete),
      event_source(
          LoopEventKind::kDrop, n_nodes,
          [&](int n) { return node(n).session->next_drop_s(); }, on_drop),
      event_source(
          LoopEventKind::kFault, n_nodes,
          [&](int n) {
            const NodeState& ns = node(n);
            return ns.fault_cursor < ns.fault_starts.size()
                       ? ns.fault_starts[ns.fault_cursor].start
                       : kInf;
          },
          on_fault),
      event_source(
          LoopEventKind::kProbe, n_nodes,
          [&](int n) {
            const NodeState& ns = node(n);
            return ns.health->state() == core::HealthState::kQuarantined
                       ? ns.health->next_probe_time()
                       : kInf;
          },
          on_probe),
      event_source(
          LoopEventKind::kReady, n_nodes,
          [&](int n) {
            return node(n).rejoin_pending ? node(n).ready_s : kInf;
          },
          on_ready),
      event_source(
          LoopEventKind::kHedge, 1,
          [&](int) { return hedges.empty() ? kInf : hedges.top().fire_s; },
          on_hedge),
      event_source(
          LoopEventKind::kArrive, 1,
          [&](int) {
            return next_arrival < requests.size()
                       ? requests[next_arrival].arrival_s
                       : kInf;
          },
          on_arrive),
      event_source(
          LoopEventKind::kFlush, n_nodes,
          [&](int n) { return node(n).session->next_flush_s(); }, on_flush));

  // Whatever is still parked has no replica left to run on.
  for (auto& item : parked) {
    Ledger& led = ledger[item.req.id];
    if (!led.completed && !led.terminal) {
      led.state = RequestState::kLost;
      led.finish_s = end_s;
    }
  }
  parked.clear();

  // ---- seal the report ----
  report.nodes.reserve(nodes.size());
  for (auto& ns : nodes) {
    NodeReport nr = std::move(ns.stats);
    nr.serve = ns.session->finish();
    nr.health = core::health_state_name(ns.health->state());
    nr.tput_est = ns.tput_est;
    report.nodes.push_back(std::move(nr));
  }
  report.records.reserve(ledger.size());
  // Deadline drops and lost requests both count as dropped per class.
  serve::LatencyRollup rollup(static_cast<std::size_t>(report.completed));
  for (auto& [id, led] : ledger) {
    ClusterRecord rec;
    rec.id = id;
    rec.state = led.completed ? RequestState::kCompleted : led.state;
    rec.arrival_s = led.req.arrival_s;
    rec.finish_s = led.finish_s;
    rec.node = led.node;
    rec.replays = led.replays;
    rec.hedges = led.hedges;
    rec.evicted_s = led.evicted_s;
    if (!led.completed && !led.terminal) {
      rec.state = RequestState::kLost;
      ++report.requests_lost;
    }
    const serve::Outcome outcome =
        rec.state == RequestState::kCompleted  ? serve::Outcome::kCompleted
        : rec.state == RequestState::kRejected ? serve::Outcome::kRejected
                                               : serve::Outcome::kDropped;
    rollup.add(led.req.slo, outcome, (rec.finish_s - rec.arrival_s) * 1e3);
    report.records.push_back(rec);
  }
  rollup.seal(report);
  // Crash replays and hedge duplicates are copies of one ledger entry,
  // so the terminal states must still partition what was admitted.
  if (sv.enabled()) {
    sv.on_cluster_finish(report.offered, report.completed, report.rejected,
                         report.dropped_deadline, report.requests_lost, end_s);
  }
  if (!requests.empty()) {
    report.first_arrival_s = requests.front().arrival_s;
  }
  if (tr.enabled() && sched_lane >= 0 && !requests.empty()) {
    tr.complete("cluster", "cluster", sched_lane, report.first_arrival_s,
                std::max(report.last_complete_s, report.first_arrival_s),
                {util::TraceArg::num("offered", report.offered),
                 util::TraceArg::num("completed", report.completed),
                 util::TraceArg::num("rejected", report.rejected),
                 util::TraceArg::num("deadline", report.dropped_deadline),
                 util::TraceArg::num("replayed", report.requests_replayed),
                 util::TraceArg::num("hedged", report.requests_hedged),
                 util::TraceArg::num("duplicates",
                                     report.duplicate_completions),
                 util::TraceArg::num("lost", report.requests_lost),
                 util::TraceArg::num("goodput", report.goodput())});
  }
  return report;
}

}  // namespace ncsw::cluster
