// zoo-swap: serve::ZooServer with cost-aware residency, 4 zoo models on 2
// sticks, the zipf tenant mix with SLO classes, open-loop Poisson arrivals
// below saturation.
#include <memory>

#include "bench.h"
#include "core/stick_fleet.h"
#include "serve/arrivals.h"
#include "serve/zoo_serve.h"
#include "serve_common.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace ncsw;

constexpr std::int64_t kRequests = 20000;
/// req/s: 0.6 of saturation (about 17). Nearer to it the tail swings with
/// the seed: over ten seeds the p99's quartile spread is 18% of its
/// median at 14 req/s, the p50's 9% at 12 req/s, and both under 1% here.
constexpr double kRate = 10.0;
constexpr double kLimitMs = 5000.0;
/// Offered rates (req/s) for slo_rate, 2 req/s apart: the p99 crosses
/// the limit between 14 and 16 req/s, at a point that moves with the seed.
const std::vector<double> kLadder = {4, 6, 8, 10, 12, 14, 16};
const char* const kZoo[] = {"googlenet", "alexnet", "squeezenet", "tiny"};

/// The zoo_loadgen tenant mix: googlenet and squeezenet carry 48% each,
/// alexnet and tiny 2% each; 20% interactive, 60% standard, 20% batch.
std::vector<serve::ZooRequest> zoo_trace(std::int64_t n, double rate,
                                         std::uint64_t seed) {
  serve::PoissonArrivals arrivals(rate, seed);
  util::Xoshiro256 mix(seed ^ 0x9e3779b97f4a7c15ULL);
  std::vector<serve::ZooRequest> trace(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    auto& req = trace[static_cast<std::size_t>(i)];
    req.id = i;
    req.arrival_s = arrivals.next();
    const double u = mix.uniform();
    req.model = u < 0.48 ? 0 : u < 0.96 ? 2 : u < 0.98 ? 1 : 3;
    const double c = mix.uniform();
    req.slo = c < 0.20   ? serve::SloClass::kInteractive
              : c < 0.80 ? serve::SloClass::kStandard
                         : serve::SloClass::kBatch;
  }
  return trace;
}

serve::ZooConfig zoo_config() {
  serve::ZooConfig cfg;
  cfg.queue_capacity = 96;
  cfg.max_batch = 4;
  cfg.residency.placement = serve::Placement::kCostAware;
  return cfg;
}

class ZooSwap : public ServingWorkload {
 public:
  ZooSwap() : ServingWorkload(kLadder, kLimitMs, kRequests) {}

  void setup(std::uint64_t seed, bool short_run) override {
    build(seed, 0.0, short_run ? 300 : kRequests);
  }

  UnitResult run(SpanRecorder* spans) override {
    // The sticks belong to the fleet and ZooServer drives them directly,
    // so this workload has no decorated targets.
    serve::ZooServer server(*fleet_, zoo_config());
    UnitResult r;
    ncsw::util::metrics().reset();
    serve::ZooReport rep;
    {
      const double t0 = wall_now();
      SpanRecorder::Scope span(spans, "serve.run");
      rep = server.run(trace_);
      r.run_s = wall_now() - t0;
    }
    r.counters = registry_snapshot();

    SimOutcome& sim = r.sim;
    sim.offered = rep.offered;
    sim.completed = rep.completed;
    sim.refused = rep.rejected + rep.dropped;
    sim.goodput = rep.goodput();
    // ZooReport keeps no per-request records, only its percentiles.
    sim.latency_samples = static_cast<std::size_t>(rep.completed);
    sim.p50_ms = rep.p50_ms;
    sim.p99_ms = rep.p99_ms;
    sim.top_pct = 99.0;
    sim.top_ms = rep.p99_ms;
    // A stick is busy while it executes or swaps.
    const double busy_s =
        r.counters.at("ncs.exec_ms.sum") * 1e-3 + rep.swap_stall_s;
    sim.energy_j = fleet_->stick(0).tdp_w(1) * busy_s;

    r.layers.hit_rate = rep.hit_rate();
    r.layers.swap_stall_s = rep.swap_stall_s;

    r.fingerprint = strf(
        "%lld/%lld/%lld/%lld/%lld/%lld/%lld/%.17g/%.17g/%.17g/%.17g/%.17g",
        static_cast<long long>(rep.completed),
        static_cast<long long>(rep.rejected),
        static_cast<long long>(rep.dropped), static_cast<long long>(rep.hits),
        static_cast<long long>(rep.misses), static_cast<long long>(rep.swaps),
        static_cast<long long>(rep.installs), rep.swap_stall_s, rep.p50_ms,
        rep.p95_ms, rep.p99_ms, rep.last_complete_s);
    for (const auto& cs : rep.classes) {
      r.fingerprint += strf("|%lld/%lld/%.17g",
                            static_cast<long long>(cs.offered),
                            static_cast<long long>(cs.completed), cs.p99_ms);
    }
    r.fingerprint += strf("|exec:%.17g", r.counters.at("ncs.exec_ms.sum"));
    return r;
  }

  void teardown() override {
    trace_ = {};
    fleet_.reset();
  }

 private:
  void build(std::uint64_t seed, double rate, std::int64_t n) override {
    std::vector<core::ZooModel> zoo;
    for (const char* model : kZoo) {
      zoo.push_back({model, core::ModelBundle::zoo_reference(model)});
    }
    core::StickFleetConfig fcfg;
    fcfg.devices = 2;
    fleet_ = std::make_unique<core::StickFleet>(std::move(zoo), fcfg);
    trace_ = zoo_trace(n, rate > 0.0 ? rate : kRate, seed);
  }

  std::unique_ptr<core::StickFleet> fleet_;
  std::vector<serve::ZooRequest> trace_;
};

}  // namespace

std::unique_ptr<Workload> make_zoo_swap() {
  return std::make_unique<ZooSwap>();
}

}  // namespace perfbench
