// cluster-failover: cluster::Cluster with 3 nodes (node 0 = CPU + GPU +
// 8-stick VPU group, nodes 1-2 = CPU + GPU), replication 2, an 8-model
// catalogue, hedging on, open-loop Poisson arrivals at 0.9x the cluster's
// calibrated throughput, and node 1 killed for the middle quarter of the
// arrival window.
#include <memory>

#include "bench.h"
#include "cluster/cluster.h"
#include "core/host_target.h"
#include "core/vpu_target.h"
#include "serve_common.h"
#include "util/metrics.h"

namespace perfbench {
namespace {

using namespace ncsw;

constexpr std::int64_t kRequests = 100000;
constexpr double kLoad = 0.9;
constexpr double kLimitMs = 750.0;
/// Offered rates (req/s) for slo_rate; calibrated cluster throughput is
/// about 430 req/s.
const std::vector<double> kLadder = {200, 250, 275, 300, 325,
                                     350, 375, 400, 425, 450};

cluster::ClusterConfig cluster_config(double span_s) {
  cluster::ClusterConfig cfg;
  cfg.node.queue_capacity = 32;
  cfg.node.max_batch = 8;
  cfg.node.batch_timeout_s = 0.050;
  cfg.node.inflight_window = 2;
  cfg.replication = 2;
  cfg.models = 8;
  cfg.hedge_slack_s = 0.050;
  cfg.faults.add(/*device=*/1, sim::FaultKind::kNodeCrash, 0.35 * span_s,
                 0.25 * span_s);
  return cfg;
}

class ClusterFailover : public ServingWorkload {
 public:
  ClusterFailover() : ServingWorkload(kLadder, kLimitMs, kRequests) {}

  void setup(std::uint64_t seed, bool short_run) override {
    build(seed, 0.0, short_run ? 3000 : kRequests);
  }

  UnitResult run(SpanRecorder* spans) override {
    std::vector<std::unique_ptr<TimingTarget>> timed;
    std::vector<std::vector<core::Target*>> nodes;
    std::vector<core::Target*> flat;
    for (std::size_t n = 0; n < 3; ++n) {
      std::vector<core::Target*> node = {cpus_[n].get(), gpus_[n].get()};
      if (n == 0) node.push_back(vpu_.get());
      if (spans) node = decorate(node, *spans, timed);
      flat.insert(flat.end(), node.begin(), node.end());
      nodes.push_back(std::move(node));
    }
    const double span_s = trace_.empty() ? 0.0 : trace_.back().arrival_s;
    const cluster::ClusterConfig cfg = cluster_config(span_s);
    cluster::Cluster cl(std::move(nodes), cfg);

    UnitResult r;
    ncsw::util::metrics().reset();
    cluster::ClusterReport rep;
    {
      const double t0 = wall_now();
      SpanRecorder::Scope span(spans, "serve.run");
      rep = cl.run(trace_);
      r.run_s = wall_now() - t0;
    }
    r.counters = registry_snapshot();

    SimOutcome& sim = r.sim;
    sim.offered = rep.offered;
    sim.completed = rep.completed;
    sim.refused = rep.rejected + rep.dropped_deadline;
    sim.lost = rep.requests_lost;
    sim.goodput = rep.goodput();
    std::vector<double> latency_ms;
    latency_ms.reserve(rep.records.size());
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const auto& rec : rep.records) {
      if (rec.state == cluster::RequestState::kCompleted) {
        latency_ms.push_back((rec.finish_s - rec.arrival_s) * 1e3);
      }
      const double times[] = {rec.arrival_s, rec.finish_s, rec.evicted_s};
      const int tags[] = {static_cast<int>(rec.state), rec.node, rec.replays,
                          rec.hedges};
      h = fnv1a(&rec.id, sizeof(rec.id), h);
      h = fnv1a(times, sizeof(times), h);
      h = fnv1a(tags, sizeof(tags), h);
    }
    sim.set_latency(latency_ms);

    r.fingerprint = strf(
        "%lld/%lld/%lld/%lld/%lld/%lld/%lld/%lld/%.17g/%.17g/%.17g/%.17g",
        static_cast<long long>(rep.completed),
        static_cast<long long>(rep.rejected),
        static_cast<long long>(rep.dropped_deadline),
        static_cast<long long>(rep.requests_lost),
        static_cast<long long>(rep.requests_replayed),
        static_cast<long long>(rep.requests_hedged),
        static_cast<long long>(rep.requests_spilled),
        static_cast<long long>(rep.duplicate_completions), rep.p50_ms,
        rep.p95_ms, rep.p99_ms, rep.last_complete_s);
    std::size_t t = 0;
    for (const auto& node : rep.nodes) {
      for (const auto& ts : node.serve.targets) {
        sim.energy_j += flat[t++]->tdp_w(cfg.node.max_batch) * ts.busy_s;
      }
      add_stage_split(node.serve.records, r.layers);
      r.layers.max_queue_depth =
          std::max(r.layers.max_queue_depth,
                   static_cast<double>(node.serve.max_queue_depth));
      r.fingerprint += strf(
          "|%s:%lld/%lld/%lld/%016llx", node.health.c_str(),
          static_cast<long long>(node.routed),
          static_cast<long long>(node.evicted),
          static_cast<long long>(node.serve.completed),
          static_cast<unsigned long long>(hash_records(node.serve.records)));
    }
    r.fingerprint += strf("|records:%016llx", static_cast<unsigned long long>(h));

    r.layers.hedges = static_cast<double>(rep.requests_hedged);
    r.layers.duplicates = static_cast<double>(rep.duplicate_completions);
    r.layers.replays = static_cast<double>(rep.requests_replayed);
    r.layers.spills = static_cast<double>(rep.requests_spilled);
    add_decorator_obs(timed, r.layers);
    return r;
  }

  void teardown() override {
    trace_ = {};
    vpu_.reset();
    cpus_.clear();
    gpus_.clear();
  }

 private:
  void build(std::uint64_t seed, double rate, std::int64_t n) override {
    auto bundle = core::ModelBundle::googlenet_reference();
    core::VpuTargetConfig vcfg;
    vcfg.devices = 8;
    // One full node plus two CPU + GPU nodes.
    const NodeThroughput tput = calibrate(bundle, vcfg);
    const double calibrated = 3.0 * (tput.cpu + tput.gpu) + tput.vpu;
    for (int i = 0; i < 3; ++i) {
      cpus_.push_back(core::make_cpu_target(bundle));
      gpus_.push_back(core::make_gpu_target(bundle));
    }
    vpu_ = std::make_unique<core::VpuTarget>(bundle, vcfg);
    trace_ = poisson_trace(n, rate > 0.0 ? rate : kLoad * calibrated, seed);
  }

  std::vector<std::unique_ptr<core::HostTarget>> cpus_, gpus_;
  std::unique_ptr<core::VpuTarget> vpu_;
  std::vector<serve::Request> trace_;
};

}  // namespace

std::unique_ptr<Workload> make_cluster_failover() {
  return std::make_unique<ClusterFailover>();
}

}  // namespace perfbench
