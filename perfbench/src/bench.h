// Shared types of the NCSw benchmark (perfbench/README.md).
//
// A workload is driven in *units*: one unit builds fresh objects from the
// seed (setup), serves or classifies the generated inputs once (run) and
// is torn down. Every unit of one process uses the same seed, so every
// unit must produce the same simulated fingerprint — that is the
// same-seed replay check. The host clock times setup and run separately.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

class SpanRecorder;

/// Seconds on the host's monotonic clock.
inline double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

/// Median of a sample (0 for an empty one).
double median(std::vector<double> xs);

/// Percentile `p` in [0,100] by linear interpolation (0 when empty).
double pct(std::vector<double> xs, double p);

/// Highest of p99, p99.9, p99.99, ... that still has at least ten samples
/// beyond it in a sample of `n` (p50 when even p99 has fewer).
double highest_supported_pct(std::size_t n);

/// The metrics-registry instruments read from outside the library:
/// counters by name, histograms as "<name>.count" and "<name>.sum". Each
/// workload zeroes the registry (MetricsRegistry::reset) right before its
/// serving call and reads it right after.
std::map<std::string, double> registry_snapshot();

/// 64-bit FNV-1a over raw bytes; the fingerprint hash.
std::uint64_t fnv1a(const void* data, std::size_t len,
                    std::uint64_t h = 0xcbf29ce484222325ULL);

/// Simulated-clock outcome of one unit: the end-to-end figures a user of
/// the service would see.
struct SimOutcome {
  std::int64_t offered = 0;    ///< requests attempted
  std::int64_t completed = 0;
  std::int64_t refused = 0;    ///< rejected + dropped by policy
  std::int64_t lost = 0;       ///< accepted but never completed, or errored
  double goodput = 0.0;        ///< completed per simulated second
  /// Latency (arrival, or submit in a closed loop, to completion) of the
  /// completed requests: median, p99 and the highest percentile with at
  /// least ten samples beyond it.
  std::size_t latency_samples = 0;
  double p50_ms = 0.0, p99_ms = 0.0;
  double top_pct = 0.0, top_ms = 0.0;
  double energy_j = 0.0;       ///< sum of tdp_w x busy seconds

  /// Fill the latency fields from the completed requests' latencies.
  void set_latency(const std::vector<double>& ms);
};

/// Layer-level observations of one unit (filled on every unit; only the
/// traced run prints them).
struct LayerObs {
  std::vector<double> queue_wait_ms;  ///< dispatch - arrival, completed
  std::vector<double> service_ms;     ///< complete - dispatch, completed
  double max_queue_depth = 0.0;
  double hit_rate = 0.0;              ///< zoo residency hits / accepted
  double swap_stall_s = 0.0;          ///< zoo stick-time spent swapping
  double hedges = 0.0, duplicates = 0.0, replays = 0.0, spills = 0.0;
  /// Images submitted through the timing decorator (traced units only).
  double submitted_images = 0.0;
};

/// One unit's result.
struct UnitResult {
  std::string fingerprint;  ///< every simulated output, full precision
  SimOutcome sim;
  LayerObs layers;
  double run_s = 0.0;       ///< wall seconds inside the serving call
  /// Registry instruments accumulated during the serving call.
  std::map<std::string, double> counters;
  /// Output checks that failed (empty = correct).
  std::vector<std::string> errors;
};

/// A workload. Not thread-safe; one unit at a time.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Build fresh objects and inputs for `seed`: everything before the
  /// first request (stick open, graph compile/allocate, calibration,
  /// arrival or dataset generation). `short_run` builds a short prefix of
  /// the same workload (the traced run lints its simulated trace).
  virtual void setup(std::uint64_t seed, bool short_run) = 0;
  /// Serve the inputs once. With `spans`, the targets are wrapped in the
  /// timing decorator and the serving call is recorded as a span.
  virtual UnitResult run(SpanRecorder* spans) = 0;
  /// Release the unit's objects.
  virtual void teardown() = 0;
  /// Simulated: the highest rate of the workload's fixed ladder at which
  /// p99 latency meets its limit and at most 1% of requests fail.
  virtual double slo_rate(std::uint64_t seed) = 0;
};

std::unique_ptr<Workload> make_serve_node();
std::unique_ptr<Workload> make_zoo_swap();
std::unique_ptr<Workload> make_cluster_failover();
std::unique_ptr<Workload> make_classify_fig7();

/// Wall-clock probes that call one layer's public function directly,
/// independent of the workload: metric name -> value (see probes.cpp).
std::map<std::string, double> run_probes(int threads);

}  // namespace perfbench
