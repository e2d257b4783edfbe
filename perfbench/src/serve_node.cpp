// serve-node: the paper's node (CPU + GPU + 8-stick VPU group, GoogLeNet)
// behind serve::Server, open-loop Poisson arrivals at 0.9x the node's
// calibrated batch-8 throughput.
#include <cstdio>
#include <memory>

#include "bench.h"
#include "core/host_target.h"
#include "core/vpu_target.h"
#include "serve/server.h"
#include "serve_common.h"
#include "timing_target.h"
#include "util/metrics.h"

namespace perfbench {
namespace {

using namespace ncsw;

constexpr std::int64_t kRequests = 300000;
constexpr double kLoad = 0.9;  ///< offered load / calibrated throughput
constexpr double kLimitMs = 500.0;
/// Offered rates (req/s) for slo_rate; calibrated node throughput is
/// about 195 req/s.
const std::vector<double> kLadder = {100, 120, 140, 150, 160, 170,
                                     180, 185, 190, 195, 200};

serve::ServerConfig server_config() {
  serve::ServerConfig cfg;
  cfg.queue_capacity = 32;
  cfg.max_batch = 8;
  cfg.batch_timeout_s = 0.050;
  cfg.queue_deadline_s = 0.250;
  cfg.inflight_window = 2;
  return cfg;
}

class ServeNode : public ServingWorkload {
 public:
  ServeNode() : ServingWorkload(kLadder, kLimitMs, kRequests) {}

  void setup(std::uint64_t seed, bool short_run) override {
    build(seed, 0.0, short_run ? 2000 : kRequests);
  }

  UnitResult run(SpanRecorder* spans) override {
    std::vector<std::unique_ptr<TimingTarget>> timed;
    std::vector<core::Target*> targets = {cpu_.get(), gpu_.get(), vpu_.get()};
    if (spans) targets = decorate(targets, *spans, timed);
    serve::Server server(targets, server_config());

    UnitResult r;
    ncsw::util::metrics().reset();
    serve::ServeReport rep;
    {
      const double t0 = wall_now();
      SpanRecorder::Scope span(spans, "serve.run");
      rep = server.run(trace_);
      r.run_s = wall_now() - t0;
    }
    r.counters = registry_snapshot();
    fill_from_serve_report(rep, server_config().max_batch, targets, r);
    add_decorator_obs(timed, r.layers);
    return r;
  }

  void teardown() override {
    trace_ = {};
    vpu_.reset();
    gpu_.reset();
    cpu_.reset();
  }

 private:
  /// Fresh targets and calibration; rate 0 is kLoad x the calibrated node
  /// throughput.
  void build(std::uint64_t seed, double rate, std::int64_t n) override {
    auto bundle = core::ModelBundle::googlenet_reference();
    core::VpuTargetConfig vcfg;
    vcfg.devices = 8;
    const NodeThroughput tput = calibrate(bundle, vcfg);
    const double calibrated = tput.cpu + tput.gpu + tput.vpu;
    cpu_ = core::make_cpu_target(bundle);
    gpu_ = core::make_gpu_target(bundle);
    vpu_ = std::make_unique<core::VpuTarget>(bundle, vcfg);
    trace_ = poisson_trace(n, rate > 0.0 ? rate : kLoad * calibrated, seed);
  }

  std::unique_ptr<core::HostTarget> cpu_, gpu_;
  std::unique_ptr<core::VpuTarget> vpu_;
  std::vector<serve::Request> trace_;
};

}  // namespace

std::unique_ptr<Workload> make_serve_node() {
  return std::make_unique<ServeNode>();
}

}  // namespace perfbench
