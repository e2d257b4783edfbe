#include "serve_common.h"

#include <cstdarg>
#include <cstdio>

#include "core/host_target.h"
#include "serve/arrivals.h"

namespace perfbench {

using namespace ncsw;

NodeThroughput calibrate(const std::shared_ptr<const core::ModelBundle>& bundle,
                         const core::VpuTargetConfig& vpu_config) {
  auto cpu = core::make_cpu_target(bundle);
  auto gpu = core::make_gpu_target(bundle);
  core::VpuTarget vpu(bundle, vpu_config);
  return {cpu->run_timed(800, 8).throughput(),
          gpu->run_timed(800, 8).throughput(),
          vpu.run_timed(800, 8).throughput()};
}

std::vector<serve::Request> poisson_trace(std::int64_t n, double rate,
                                          std::uint64_t seed) {
  serve::PoissonArrivals arrivals(rate, seed);
  std::vector<serve::Request> trace(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    auto& req = trace[static_cast<std::size_t>(i)];
    req.id = i;
    req.arrival_s = arrivals.next();
  }
  return trace;
}

std::vector<core::Target*> decorate(
    const std::vector<core::Target*>& targets, SpanRecorder& spans,
    std::vector<std::unique_ptr<TimingTarget>>& out) {
  std::vector<core::Target*> wrapped;
  for (core::Target* t : targets) {
    out.push_back(std::make_unique<TimingTarget>(*t, spans));
    wrapped.push_back(out.back().get());
  }
  return wrapped;
}

void add_decorator_obs(const std::vector<std::unique_ptr<TimingTarget>>& timed,
                       LayerObs& obs) {
  for (const auto& t : timed) {
    obs.submitted_images += static_cast<double>(t->images());
  }
}

std::uint64_t hash_records(const std::vector<serve::RequestRecord>& recs,
                           std::uint64_t h) {
  for (const auto& rec : recs) {
    const double times[] = {rec.request.arrival_s, rec.dispatch_s,
                            rec.complete_s};
    const int tags[] = {static_cast<int>(rec.outcome),
                        static_cast<int>(rec.drop_reason), rec.target};
    h = fnv1a(&rec.request.id, sizeof(rec.request.id), h);
    h = fnv1a(times, sizeof(times), h);
    h = fnv1a(tags, sizeof(tags), h);
  }
  return h;
}

void add_stage_split(const std::vector<serve::RequestRecord>& recs,
                     LayerObs& obs) {
  for (const auto& rec : recs) {
    if (rec.outcome != serve::Outcome::kCompleted) continue;
    obs.queue_wait_ms.push_back(rec.queue_wait_s() * 1e3);
    obs.service_ms.push_back((rec.complete_s - rec.dispatch_s) * 1e3);
  }
}

void fill_from_serve_report(const serve::ServeReport& rep, int max_batch,
                            const std::vector<core::Target*>& targets,
                            UnitResult& r) {
  SimOutcome& sim = r.sim;
  sim.offered = rep.offered;
  sim.completed = rep.completed;
  sim.refused = rep.rejected + rep.dropped_deadline;
  sim.lost = rep.dropped_inflight + rep.dropped_failover;
  sim.goodput = rep.goodput();
  std::vector<double> latency_ms;
  latency_ms.reserve(rep.records.size());
  for (const auto& rec : rep.records) {
    if (rec.outcome == serve::Outcome::kCompleted) {
      latency_ms.push_back(rec.latency_s() * 1e3);
    }
  }
  sim.set_latency(latency_ms);
  std::string fp = strf("%lld/%lld/%lld/%.17g/%.17g/%.17g/%.17g",
                        static_cast<long long>(rep.completed),
                        static_cast<long long>(rep.rejected),
                        static_cast<long long>(rep.dropped), rep.p50_ms,
                        rep.p95_ms, rep.p99_ms, rep.last_complete_s);
  for (std::size_t i = 0; i < rep.targets.size(); ++i) {
    const auto& t = rep.targets[i];
    sim.energy_j += targets[i]->tdp_w(max_batch) * t.busy_s;
    fp += strf("|%s:%lld/%lld/%.17g", t.label.c_str(),
               static_cast<long long>(t.batches),
               static_cast<long long>(t.images), t.busy_s);
  }
  fp += strf("|records:%016llx",
             static_cast<unsigned long long>(hash_records(rep.records)));
  r.fingerprint = fp;
  add_stage_split(rep.records, r.layers);
  r.layers.max_queue_depth = static_cast<double>(rep.max_queue_depth);
}

double ServingWorkload::slo_rate(std::uint64_t seed) {
  for (auto it = ladder_.rbegin(); it != ladder_.rend(); ++it) {
    build(seed, *it, requests_);
    const SimOutcome sim = run(nullptr).sim;
    teardown();
    const double failed =
        sim.offered > 0 ? static_cast<double>(sim.offered - sim.completed) /
                              static_cast<double>(sim.offered)
                        : 1.0;
    if (failed <= 0.01 && sim.p99_ms <= limit_ms_) return *it;
  }
  return 0.0;
}

std::string strf(const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

}  // namespace perfbench
