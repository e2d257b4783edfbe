// Multi-node serving cluster: consistent-hash routing, replication,
// node-crash failover with zero lost requests, wedge-triggered hedging,
// the loss-accounting negative control, trace/lint cleanliness, and the
// byte-determinism contract.
#include "cluster/cluster.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "check/tracelint.h"
#include "cluster/ring.h"
#include "serve/arrivals.h"
#include "util/trace.h"

namespace {

using namespace ncsw;
using cluster::Cluster;
using cluster::ClusterConfig;
using cluster::HashRing;
using cluster::RequestState;
using serve::Request;

/// Deterministic analytic target: every image takes `per_image_s`,
/// regardless of batch size (same fake the serve tests use).
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

/// A cluster node's worth of fakes, owned by the test.
struct FakeNode {
  FakeTarget a;
  FakeTarget b;
  FakeNode(int i, double per_image_s)
      : a("n" + std::to_string(i) + "a", per_image_s, 8),
        b("n" + std::to_string(i) + "b", per_image_s, 8) {}
  std::vector<core::Target*> targets() { return {&a, &b}; }
};

std::vector<Request> poisson_trace(std::int64_t n, double rate,
                                   std::uint64_t seed) {
  serve::PoissonArrivals arrivals(rate, seed);
  std::vector<Request> trace(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    trace[static_cast<std::size_t>(i)].id = i;
    trace[static_cast<std::size_t>(i)].arrival_s = arrivals.next();
  }
  return trace;
}

std::int64_t accounted(const cluster::ClusterReport& r) {
  return r.completed + r.rejected + r.dropped_deadline + r.requests_lost;
}

TEST(Ring, PreferenceIsDeterministicAndDistinct) {
  HashRing a(3, 64, 7), b(3, 64, 7), c(3, 64, 8);
  bool any_diff = false;
  for (int k = 0; k < 200; ++k) {
    const auto h = HashRing::hash_key("model-" + std::to_string(k));
    const auto pa = a.preference(h, 2);
    ASSERT_EQ(pa.size(), 2u);
    EXPECT_NE(pa[0], pa[1]);
    EXPECT_EQ(pa, b.preference(h, 2));  // same seed, same placement
    any_diff = any_diff || pa != c.preference(h, 2);
  }
  EXPECT_TRUE(any_diff);  // the seed actually moves the ring
  // count clamps to the node population.
  EXPECT_EQ(a.preference(123, 9).size(), 3u);
  EXPECT_THROW(HashRing(0), std::invalid_argument);
  EXPECT_THROW(HashRing(2, 0), std::invalid_argument);
}

TEST(Ring, VirtualNodesSpreadPrimaries) {
  HashRing ring(3, 64);
  int primaries[3] = {0, 0, 0};
  for (int k = 0; k < 900; ++k) {
    const auto h = HashRing::hash_key("m" + std::to_string(k));
    primaries[ring.preference(h, 1)[0]]++;
  }
  // 64 vnodes keep every node's share of key space within sane bounds
  // (an unweighted hash would park ~1/3 = 300 on each).
  for (int n = 0; n < 3; ++n) {
    EXPECT_GT(primaries[n], 150) << "node " << n;
    EXPECT_LT(primaries[n], 500) << "node " << n;
  }
}

TEST(Cluster, ValidatesConfigAndArrivals) {
  EXPECT_THROW(Cluster({}, {}), std::invalid_argument);
  FakeNode n0(0, 0.01);
  ClusterConfig bad;
  bad.models = 0;
  EXPECT_THROW(Cluster({n0.targets()}, bad), std::invalid_argument);
  bad = {};
  bad.node_gain = 1.5;
  EXPECT_THROW(Cluster({n0.targets()}, bad), std::invalid_argument);
  bad = {};
  bad.max_hedges = -1;
  EXPECT_THROW(Cluster({n0.targets()}, bad), std::invalid_argument);

  // Replication is clamped to the node population, not rejected.
  ClusterConfig wide;
  wide.replication = 5;
  Cluster cl({n0.targets()}, wide);
  EXPECT_EQ(cl.config().replication, 1);

  auto unsorted = poisson_trace(4, 100.0, 1);
  std::swap(unsorted[1], unsorted[2]);
  std::swap(unsorted[1].id, unsorted[2].id);
  FakeNode n1(1, 0.01);
  EXPECT_THROW(Cluster({n1.targets()}).run(unsorted), std::invalid_argument);

  auto dup = poisson_trace(3, 100.0, 1);
  dup[2].id = dup[0].id;
  FakeNode n2(2, 0.01);
  EXPECT_THROW(Cluster({n2.targets()}).run(dup), std::invalid_argument);
}

TEST(Cluster, RoutesAcrossReplicasAndCompletesEverything) {
  FakeNode n0(0, 0.005), n1(1, 0.005), n2(2, 0.005);
  ClusterConfig cfg;
  cfg.models = 8;
  cfg.node.batch_timeout_s = 0.01;
  Cluster cl({n0.targets(), n1.targets(), n2.targets()}, cfg);
  const auto r = cl.run(poisson_trace(300, 300.0, 3));

  EXPECT_EQ(r.offered, 300);
  EXPECT_EQ(r.completed, 300);
  EXPECT_EQ(r.requests_lost, 0);
  EXPECT_EQ(r.requests_replayed, 0);
  EXPECT_EQ(accounted(r), r.offered);
  ASSERT_EQ(r.records.size(), 300u);
  for (std::size_t i = 0; i < r.records.size(); ++i) {
    EXPECT_EQ(r.records[i].id, static_cast<std::int64_t>(i));
    EXPECT_EQ(r.records[i].state, RequestState::kCompleted);
    EXPECT_GE(r.records[i].node, 0);
  }
  // The load actually spreads: every node serves some share.
  std::int64_t nodes_used = 0;
  for (const auto& nr : r.nodes) nodes_used += nr.routed > 0 ? 1 : 0;
  EXPECT_EQ(nodes_used, 3);
}

// The tentpole guarantee: a node crash mid-run strands its queued and
// in-flight requests, every one is replayed to a live replica, and the
// cluster ends with zero lost requests.
TEST(Cluster, NodeCrashReplaysEverythingWithZeroLoss) {
  FakeNode n0(0, 0.005), n1(1, 0.005), n2(2, 0.005);
  ClusterConfig cfg;
  cfg.models = 8;
  cfg.node.batch_timeout_s = 0.01;
  cfg.faults.add(/*device=*/1, sim::FaultKind::kNodeCrash, 0.3, 0.5);
  Cluster cl({n0.targets(), n1.targets(), n2.targets()}, cfg);
  const auto r = cl.run(poisson_trace(400, 350.0, 5));

  EXPECT_EQ(r.node_kills, 1);
  EXPECT_EQ(r.offered, 400);
  EXPECT_EQ(r.requests_lost, 0) << "a crash must never lose a request";
  EXPECT_GT(r.requests_replayed, 0) << "the kill should strand something";
  EXPECT_EQ(r.completed + r.rejected + r.dropped_deadline, 400);
  EXPECT_GT(r.nodes[1].evicted, 0);
  EXPECT_EQ(r.nodes[1].crashes, 1);
  // Failover latency was observed for the replayed requests.
  EXPECT_GT(r.failover_ms.count(), 0u);
  // The crash window [0.3, 0.8) ends well before the trace drains, so
  // the health ladder probes the node back in.
  EXPECT_EQ(r.node_rejoins, 1);
  EXPECT_EQ(r.nodes[1].rejoins, 1);
  for (const auto& rec : r.records) {
    EXPECT_NE(rec.state, RequestState::kLost) << "request " << rec.id;
  }
}

// Negative control: with one node and a crash that outlives the trace,
// stranded requests have no replica to land on — they park and the
// report must call them lost (proving the zero-loss assertion bites).
TEST(Cluster, LoneNodeCrashIsAccountedAsLost) {
  FakeNode n0(0, 0.005);
  ClusterConfig cfg;
  cfg.spill = false;  // nowhere to overflow to anyway
  cfg.node.batch_timeout_s = 0.01;
  cfg.faults.add(0, sim::FaultKind::kNodeCrash, 0.2, 1000.0);
  Cluster cl({n0.targets()}, cfg);
  const auto r = cl.run(poisson_trace(100, 200.0, 7));

  EXPECT_EQ(r.node_kills, 1);
  EXPECT_EQ(r.node_rejoins, 0);
  EXPECT_EQ(r.nodes_dead, 1);  // the probe budget runs out
  EXPECT_GT(r.requests_lost, 0);
  EXPECT_EQ(accounted(r), r.offered);
  bool saw_lost = false;
  for (const auto& rec : r.records) {
    saw_lost = saw_lost || rec.state == RequestState::kLost;
  }
  EXPECT_TRUE(saw_lost);
}

// A wedged node keeps accepting work but completes none of it; the
// promised completions slip, deadline-aware hedges fire duplicates on a
// replica, and repeated hedges quarantine the wedge. First completion
// wins, duplicates are counted, nothing is lost or double-delivered.
TEST(Cluster, WedgeTriggersHedgesAndQuarantine) {
  FakeNode n0(0, 0.005), n1(1, 0.005);
  ClusterConfig cfg;
  cfg.models = 8;
  cfg.node.batch_timeout_s = 0.01;
  cfg.hedge_slack_s = 0.02;
  cfg.faults.add(0, sim::FaultKind::kNodeWedge, 0.2, 0.6);
  Cluster cl({n0.targets(), n1.targets()}, cfg);
  const auto r = cl.run(poisson_trace(200, 250.0, 9));

  EXPECT_EQ(r.node_wedges, 1);
  EXPECT_EQ(r.nodes[0].wedges, 1);
  EXPECT_GT(r.requests_hedged, 0) << "slipped promises should hedge";
  EXPECT_EQ(r.requests_lost, 0);
  EXPECT_EQ(r.completed + r.rejected + r.dropped_deadline, r.offered);
  // Completed exactly once each: completions minus duplicates equals
  // the completed count, and every completed record has one node.
  std::int64_t completed_records = 0;
  for (const auto& rec : r.records) {
    if (rec.state == RequestState::kCompleted) {
      ++completed_records;
      EXPECT_GE(rec.node, 0);
    }
  }
  EXPECT_EQ(completed_records, r.completed);
}

TEST(Cluster, ClassRollupsPartitionTheClusterTotals) {
  FakeNode n0(0, 0.005), n1(1, 0.005);
  ClusterConfig cfg;
  cfg.models = 8;
  cfg.node.queue_capacity = 8;
  Cluster cl({n0.targets(), n1.targets()}, cfg);
  auto trace = poisson_trace(200, 300.0, 13);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    trace[i].slo = static_cast<serve::SloClass>(i % serve::kSloClassCount);
  }
  const auto r = cl.run(trace);
  std::int64_t offered = 0, completed = 0;
  for (const auto& c : r.classes) {
    EXPECT_EQ(c.offered, c.completed + c.rejected + c.dropped);
    offered += c.offered;
    completed += c.completed;
  }
  EXPECT_EQ(offered, r.offered);
  EXPECT_EQ(completed, r.completed);
  EXPECT_GT(completed, 0);
}

TEST(Cluster, BatchClassNeverHedgesUnderTheDefaultGate) {
  // Same wedge scenario as above, but every request is kBatch: with
  // hedge_max_class = kStandard (the default) no hedge may fire — batch
  // work rides out the wedge on the replay path instead.
  FakeNode n0(0, 0.005), n1(1, 0.005);
  ClusterConfig cfg;
  cfg.models = 8;
  cfg.node.batch_timeout_s = 0.01;
  cfg.hedge_slack_s = 0.02;
  cfg.faults.add(0, sim::FaultKind::kNodeWedge, 0.2, 0.6);
  Cluster cl({n0.targets(), n1.targets()}, cfg);
  auto trace = poisson_trace(200, 250.0, 9);
  for (auto& req : trace) req.slo = serve::SloClass::kBatch;
  const auto r = cl.run(trace);
  EXPECT_EQ(r.node_wedges, 1);
  EXPECT_EQ(r.requests_hedged, 0);
  EXPECT_EQ(r.requests_lost, 0);
  EXPECT_EQ(r.completed + r.rejected + r.dropped_deadline, r.offered);

  // Raising the gate to kBatch restores hedging for the same trace.
  cfg.hedge_max_class = serve::SloClass::kBatch;
  FakeNode m0(0, 0.005), m1(1, 0.005);
  Cluster cl2({m0.targets(), m1.targets()}, cfg);
  const auto r2 = cl2.run(trace);
  EXPECT_GT(r2.requests_hedged, 0);
}

TEST(Cluster, ChaosReplayIsByteDeterministic) {
  auto run_once = [] {
    FakeNode n0(0, 0.004), n1(1, 0.006), n2(2, 0.005);
    ClusterConfig cfg;
    cfg.models = 8;
    cfg.node.batch_timeout_s = 0.01;
    cfg.hedge_slack_s = 0.02;
    cfg.faults.add(1, sim::FaultKind::kNodeCrash, 0.3, 0.4);
    cfg.faults.add(2, sim::FaultKind::kNodeWedge, 0.5, 0.9);
    Cluster cl({n0.targets(), n1.targets(), n2.targets()}, cfg);
    return cl.run(poisson_trace(300, 300.0, 11));
  };
  const auto r1 = run_once(), r2 = run_once();

  EXPECT_EQ(r1.requests_lost, 0);
  EXPECT_GT(r1.requests_replayed, 0);
  ASSERT_EQ(r1.records.size(), r2.records.size());
  for (std::size_t i = 0; i < r1.records.size(); ++i) {
    EXPECT_EQ(r1.records[i].state, r2.records[i].state) << i;
    EXPECT_EQ(r1.records[i].node, r2.records[i].node) << i;
    EXPECT_EQ(r1.records[i].replays, r2.records[i].replays) << i;
    EXPECT_EQ(r1.records[i].hedges, r2.records[i].hedges) << i;
    EXPECT_DOUBLE_EQ(r1.records[i].finish_s, r2.records[i].finish_s) << i;
  }
  EXPECT_DOUBLE_EQ(r1.p99_ms, r2.p99_ms);
  EXPECT_DOUBLE_EQ(r1.last_complete_s, r2.last_complete_s);
  EXPECT_EQ(r1.duplicate_completions, r2.duplicate_completions);
}

// Spill-over routing: when every replica of a model is saturated the
// router overflows to any healthy node instead of bouncing the request.
TEST(Cluster, SpillAbsorbsReplicaHotspots) {
  auto run_with = [](bool spill) {
    FakeNode n0(0, 0.02), n1(1, 0.02), n2(2, 0.02);
    ClusterConfig cfg;
    cfg.models = 2;  // tiny catalogue concentrates load on few replicas
    cfg.spill = spill;
    cfg.node.queue_capacity = 4;
    cfg.node.batch_timeout_s = 0.01;
    Cluster cl({n0.targets(), n1.targets(), n2.targets()}, cfg);
    return cl.run(poisson_trace(200, 400.0, 13));
  };
  const auto without = run_with(false);
  const auto with = run_with(true);
  EXPECT_GT(without.rejected, 0);
  EXPECT_GT(with.requests_spilled, 0);
  EXPECT_LT(with.rejected, without.rejected);
  EXPECT_GT(with.completed, without.completed);
  EXPECT_EQ(without.requests_spilled, 0);
}

// The cluster trace must satisfy every offline invariant under chaos —
// the same bar the CI smoke holds cluster_loadgen to.
TEST(Cluster, StrictTraceIsLintClean) {
  auto& tracer = util::tracer();
  tracer.reset();
  tracer.set_enabled(true);
  tracer.set_lane_prefix("test-cluster ");
  {
    FakeNode n0(0, 0.005), n1(1, 0.005), n2(2, 0.005);
    ClusterConfig cfg;
    cfg.models = 8;
    cfg.node.batch_timeout_s = 0.01;
    cfg.faults.add(1, sim::FaultKind::kNodeCrash, 0.3, 0.4);
    Cluster cl({n0.targets(), n1.targets(), n2.targets()}, cfg);
    const auto r = cl.run(poisson_trace(200, 300.0, 15));
    EXPECT_EQ(r.requests_lost, 0);
  }
  const std::string json = tracer.to_json();
  tracer.set_enabled(false);
  tracer.set_lane_prefix("");

  std::string error;
  const auto lint = check::lint_trace_text(json, {}, &error);
  ASSERT_TRUE(lint.has_value()) << error;
  EXPECT_TRUE(lint->ok()) << lint->to_string();
  EXPECT_GT(lint->spans, 0u);
}

// `node.trace_requests` is the one switch for per-request slot spans: a
// traced cluster run with it off draws no "serve slot" lane at all.
TEST(Cluster, NodeTraceRequestsOffEmitsNoRequestSpans) {
  auto traced_run = [](bool trace_requests) {
    auto& tracer = util::tracer();
    tracer.reset();
    tracer.set_enabled(true);
    {
      FakeNode n0(0, 0.005), n1(1, 0.005), n2(2, 0.005);
      ClusterConfig cfg;
      cfg.models = 8;
      cfg.node.batch_timeout_s = 0.01;
      cfg.node.trace_requests = trace_requests;
      Cluster cl({n0.targets(), n1.targets(), n2.targets()}, cfg);
      EXPECT_EQ(cl.run(poisson_trace(100, 300.0, 21)).completed, 100);
    }
    std::string json = tracer.to_json();
    tracer.set_enabled(false);
    tracer.reset();
    return json;
  };
  const std::string on = traced_run(true);
  const std::string off = traced_run(false);
  EXPECT_NE(on.find("serve slot"), std::string::npos);
  EXPECT_NE(on.find("serve.req"), std::string::npos);
  EXPECT_EQ(off.find("serve slot"), std::string::npos);
  EXPECT_EQ(off.find("serve.req"), std::string::npos);
  // The rest of the trace is still there.
  EXPECT_NE(off.find("\"ph\":\"X\""), std::string::npos);
}

}  // namespace
