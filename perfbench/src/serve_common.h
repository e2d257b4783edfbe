// Helpers shared by the serving workloads.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "core/vpu_target.h"
#include "serve/server.h"
#include "timing_target.h"

namespace perfbench {

/// Calibrated batch-8 throughput (img/s, simulated) of the paper's three
/// engines for `bundle`, measured with run_timed on throwaway targets so
/// that the targets a unit serves with start fresh.
struct NodeThroughput {
  double cpu = 0.0, gpu = 0.0, vpu = 0.0;
};
NodeThroughput calibrate(
    const std::shared_ptr<const ncsw::core::ModelBundle>& bundle,
    const ncsw::core::VpuTargetConfig& vpu_config);

/// `n` requests with Poisson arrivals at `rate` req/s, generated from
/// `seed` before the run starts (the generator can never run late).
std::vector<ncsw::serve::Request> poisson_trace(std::int64_t n, double rate,
                                                std::uint64_t seed);

/// Wrap each target in a TimingTarget recording into `spans`; the
/// wrappers are owned by `out`. Returns the wrapped pointers.
std::vector<ncsw::core::Target*> decorate(
    const std::vector<ncsw::core::Target*>& targets, SpanRecorder& spans,
    std::vector<std::unique_ptr<TimingTarget>>& out);

/// Add the images submitted through the decorators to `obs`.
void add_decorator_obs(const std::vector<std::unique_ptr<TimingTarget>>& timed,
                       LayerObs& obs);

/// Hash of every per-request record (ids, outcomes, targets, times).
std::uint64_t hash_records(const std::vector<ncsw::serve::RequestRecord>& recs,
                           std::uint64_t h = 0xcbf29ce484222325ULL);

/// Fill `r` (fingerprint, outcome, stage split) from one session report.
/// Energy charges each target tdp_w(max_batch) per busy second.
void fill_from_serve_report(const ncsw::serve::ServeReport& rep,
                            int max_batch,
                            const std::vector<ncsw::core::Target*>& targets,
                            UnitResult& r);

/// Completed requests' queue wait and service time (ms) from `recs`.
void add_stage_split(const std::vector<ncsw::serve::RequestRecord>& recs,
                     LayerObs& obs);

/// A workload that serves an open-loop arrival trace. slo_rate serves a
/// fresh build of `requests` requests at each rate of `ladder`, from the
/// top down, and returns the first rate whose outcome has p99 latency <=
/// `limit_ms` and at most 1% of requests not completed (0 when none does).
class ServingWorkload : public Workload {
 public:
  double slo_rate(std::uint64_t seed) final;

 protected:
  ServingWorkload(std::vector<double> ladder, double limit_ms,
                  std::int64_t requests)
      : ladder_(std::move(ladder)), limit_ms_(limit_ms), requests_(requests) {}

  /// Fresh objects and an arrival trace of `n` requests at `rate` req/s
  /// (0 = the workload's own rate).
  virtual void build(std::uint64_t seed, double rate, std::int64_t n) = 0;

 private:
  const std::vector<double> ladder_;
  const double limit_ms_;
  const std::int64_t requests_;
};

/// printf-style formatting into a std::string.
std::string strf(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace perfbench
