// The loadgen-shaped scenarios ncsw_schedfuzz fuzzes (check/schedfuzz.h),
// kept beside the harness so tests pin exactly what the tool runs.
#include <algorithm>
#include <memory>
#include <vector>

#include "check/schedfuzz.h"
#include "core/host_target.h"
#include "core/model.h"
#include "core/stick_fleet.h"
#include "serve/arrivals.h"
#include "util/rng.h"

namespace ncsw::check {

namespace {

/// Poisson arrival times, optionally snapped onto a grid (kept
/// non-decreasing) so same-timestamp tie groups appear.
std::vector<double> arrival_times(const ScenarioKnobs& k, double rate) {
  serve::PoissonArrivals arrivals(rate, k.seed);
  std::vector<double> times;
  times.reserve(static_cast<std::size_t>(k.requests));
  double last = 0.0;
  for (std::int64_t i = 0; i < k.requests; ++i) {
    double t = arrivals.next();
    if (k.quantize_s > 0.0) {
      t = static_cast<double>(static_cast<std::int64_t>(t / k.quantize_s +
                                                        0.5)) *
          k.quantize_s;
      t = std::max(t, last);
    }
    last = t;
    times.push_back(t);
  }
  return times;
}

std::vector<serve::Request> make_trace(const ScenarioKnobs& k,
                                       double default_rate) {
  std::vector<serve::Request> trace;
  std::int64_t id = 0;
  for (const double t :
       arrival_times(k, k.rate > 0.0 ? k.rate : default_rate)) {
    serve::Request req;
    req.id = id++;
    req.arrival_s = t;
    trace.push_back(std::move(req));
  }
  return trace;
}

}  // namespace

Scenario serve_scenario(const ScenarioKnobs& knobs) {
  return [knobs](const serve::TieBreak& tb) {
    auto bundle = core::ModelBundle::googlenet_reference();
    auto cpu = core::make_cpu_target(bundle);
    auto gpu = core::make_gpu_target(bundle);
    serve::ServerConfig cfg;
    cfg.queue_capacity = 16;
    cfg.max_batch = 8;
    cfg.batch_timeout_s = 0.050;
    cfg.queue_deadline_s = 0.250;
    cfg.inflight_window = 2;
    cfg.trace_requests = false;
    serve::Server server({cpu.get(), gpu.get()}, cfg);
    return fingerprint(server.run(make_trace(knobs, 120.0), tb));
  };
}

Scenario cluster_scenario(const ScenarioKnobs& knobs) {
  return [knobs](const serve::TieBreak& tb) {
    auto bundle = core::ModelBundle::googlenet_reference();
    std::vector<std::unique_ptr<core::Target>> owned;
    std::vector<std::vector<core::Target*>> nodes;
    for (int n = 0; n < 3; ++n) {
      owned.push_back(core::make_cpu_target(bundle));
      owned.push_back(core::make_gpu_target(bundle));
      nodes.push_back({owned[owned.size() - 2].get(), owned.back().get()});
    }
    cluster::ClusterConfig cfg;
    cfg.node.queue_capacity = 16;
    cfg.node.max_batch = 8;
    cfg.node.batch_timeout_s = 0.050;
    cfg.node.inflight_window = 2;
    cfg.node.trace_requests = false;
    const auto trace = make_trace(knobs, 220.0);
    const double span_s = trace.empty() ? 0.0 : trace.back().arrival_s;
    cfg.faults.add(/*device=*/1, sim::FaultKind::kNodeCrash, 0.35 * span_s,
                   0.25 * span_s);
    cluster::Cluster cl(std::move(nodes), cfg);
    return fingerprint(cl.run(trace, tb));
  };
}

Scenario zoo_scenario(const ScenarioKnobs& knobs) {
  return [knobs](const serve::TieBreak& tb) {
    std::vector<core::ZooModel> zoo;
    for (const char* name : {"googlenet", "alexnet", "squeezenet", "tiny"}) {
      zoo.push_back({name, core::ModelBundle::zoo_reference(name)});
    }
    core::StickFleetConfig fcfg;
    fcfg.devices = 2;
    core::StickFleet fleet(std::move(zoo), fcfg);
    serve::ZooConfig cfg;
    cfg.queue_capacity = 16;
    cfg.max_batch = 4;
    cfg.queue_deadline_s = 2.0;
    cfg.residency.placement = serve::Placement::kCostAware;
    // The zoo_loadgen tenant mix: googlenet and squeezenet carry 48%
    // each, alexnet and tiny 2% each; 20% interactive, 60% standard,
    // 20% batch. The default 20 req/s is just past the fleet's ~17 req/s
    // saturation, so the queue rejects, deadlines drop, and on a 10 ms
    // arrival grid same-timestamp groups appear for the fuzzer.
    util::Xoshiro256 mix(knobs.seed ^ 0x9e3779b97f4a7c15ULL);
    std::vector<serve::ZooRequest> trace;
    std::int64_t id = 0;
    for (const double t : arrival_times(knobs, knobs.rate > 0.0 ? knobs.rate
                                                                : 20.0)) {
      serve::ZooRequest req;
      req.id = id++;
      req.arrival_s = t;
      const double u = mix.uniform();
      req.model = u < 0.48 ? 0 : u < 0.96 ? 2 : u < 0.98 ? 1 : 3;
      const double c = mix.uniform();
      req.slo = c < 0.20   ? serve::SloClass::kInteractive
                : c < 0.80 ? serve::SloClass::kStandard
                           : serve::SloClass::kBatch;
      trace.push_back(req);
    }
    serve::ZooServer server(fleet, cfg);
    return fingerprint(server.run(trace, tb));
  };
}

}  // namespace ncsw::check
