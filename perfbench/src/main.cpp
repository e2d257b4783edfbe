// The NCSw benchmark program (perfbench/README.md).
//
//   ncsw_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 measures the end-to-end metrics: it repeats units of the
// workload (fresh objects each, same seed) for --seconds, reporting host
// figures as medians over units, then derives the simulated figures and
// the SLO rate. --trace 1 is the traced run: untraced and traced units in
// pairs, one more traced unit under the strict verifiers, a linted
// simulated-clock trace of a short prefix, and the layer probes; it
// reports the per-layer metrics. Both print one line per metric and end
// with one JSON object; the exit code is non-zero when an output check
// fails.
#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "check/protocol.h"
#include "check/serve_check.h"
#include "check/tracelint.h"
#include "serve_common.h"
#include "spans.h"
#include "util/trace.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
  const char* clock;  ///< "host", "simulated" or "count"
};

/// End-to-end metrics (--trace 0), in BENCHMARK.json order.
const MetricDef kEndToEnd[] = {
    {"wall_req_per_s", "req/s", "host"},
    {"setup_s", "s", "host"},
    {"peak_rss_mb", "MB", "host"},
    {"goodput_req_per_s", "req/s", "simulated"},
    {"latency_p50_ms", "ms", "simulated"},
    {"latency_p99_ms", "ms", "simulated"},
    {"completed_share", "ratio", "count"},
    {"slo_rate_req_per_s", "req/s", "simulated"},
    {"img_per_j", "img/J", "simulated"},
};

/// Per-layer metrics (--trace 1), in BENCHMARK.json order.
const MetricDef kPerLayer[] = {
    {"serve.run_s", "s", "host"},
    {"serve.self_us_per_req", "us", "host"},
    {"serve.queue_wait_ms.p50", "ms", "simulated"},
    {"serve.queue_wait_ms.p99", "ms", "simulated"},
    {"serve.service_ms.p50", "ms", "simulated"},
    {"serve.service_ms.p99", "ms", "simulated"},
    {"serve.max_queue_depth", "count", "simulated"},
    {"core.submit_us", "us", "host"},
    {"core.submits", "count", "count"},
    {"core.images_per_submit", "count", "count"},
    {"core.swap_us", "us", "host"},
    {"core.swaps_per_req", "ratio", "count"},
    {"zoo.hit_rate", "ratio", "simulated"},
    {"zoo.swap_stall_s", "s", "simulated"},
    {"myriad.execute_us.googlenet", "us", "host"},
    {"myriad.execute_us.alexnet", "us", "host"},
    {"myriad.execute_us.squeezenet", "us", "host"},
    {"myriad.execute_us.tiny", "us", "host"},
    {"myriad.executions_per_req", "ratio", "count"},
    {"sim.events_per_req", "ratio", "count"},
    {"sim.events_per_s", "1/s", "host"},
    {"mvnc.load_tensor_per_req", "ratio", "count"},
    {"mvnc.get_result_per_req", "ratio", "count"},
    {"mvnc.load_get_us", "us", "host"},
    {"ncs.queue_wait_ms", "ms", "simulated"},
    {"ncs.exec_ms", "ms", "simulated"},
    {"cluster.hedges", "count", "count"},
    {"cluster.duplicates", "count", "count"},
    {"cluster.duplicates_per_hedge", "ratio", "count"},
    {"cluster.replays", "count", "count"},
    {"cluster.spills", "count", "count"},
    {"nn.forward_ms", "ms", "host"},
    {"nn.forward_t1_ms", "ms", "host"},
    {"nn.conv_ms", "ms", "host"},
    {"nn.relu_ms", "ms", "host"},
    {"nn.pool_ms", "ms", "host"},
    {"nn.lrn_ms", "ms", "host"},
    {"nn.concat_ms", "ms", "host"},
    {"nn.fc_ms", "ms", "host"},
    {"nn.softmax_ms", "ms", "host"},
    {"nn.other_ms", "ms", "host"},
    {"trace.overhead_s", "s", "host"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
};

/// What a run prints at the end.
struct Outcome {
  std::map<std::string, double> metrics;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> errors;
};

/// CPUs this process may run on: the thread count every kernel uses.
int allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return 1;
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

/// Fingerprint and accounting checks every unit must pass.
void check_unit(const UnitResult& r, const std::string& reference,
                std::vector<std::string>& errors) {
  errors.insert(errors.end(), r.errors.begin(), r.errors.end());
  if (r.fingerprint != reference) {
    errors.push_back("fingerprint differs from the first unit's: " +
                     r.fingerprint + " vs " + reference);
  }
  const SimOutcome& s = r.sim;
  if (s.offered != s.completed + s.refused + s.lost) {
    errors.push_back(strf("offered %lld != completed %lld + refused %lld + "
                          "lost %lld",
                          static_cast<long long>(s.offered),
                          static_cast<long long>(s.completed),
                          static_cast<long long>(s.refused),
                          static_cast<long long>(s.lost)));
  }
  if (s.completed < 1) errors.push_back("no request completed");
}

Outcome measure(Workload& w, const Args& args, double process_start) {
  Outcome out;
  std::vector<double> setup_s, rate;
  std::string reference;
  SimOutcome sim;
  double timed_start = 0.0;
  // Unit 0 warms lazy state (thread pools, workspaces, allocator) and is
  // not timed; its setup is timed from process start.
  for (int unit = 0;; ++unit) {
    const double t0 = unit == 0 ? process_start : wall_now();
    w.setup(args.seed, false);
    setup_s.push_back(wall_now() - t0);
    UnitResult r = w.run(nullptr);
    w.teardown();
    if (unit == 0) {
      // The first unit's allocation sequence is fixed by the seed; later
      // units only add heap fragmentation to the high-water mark.
      out.metrics["peak_rss_mb"] = peak_rss_mb();
      reference = r.fingerprint;
      sim = r.sim;
      timed_start = wall_now();
    } else {
      rate.push_back(static_cast<double>(r.sim.offered) / r.run_s);
      out.attempted += r.sim.offered;
      out.failed += r.sim.lost;
    }
    check_unit(r, reference, out.errors);
    if (unit >= 2 && wall_now() - timed_start >= args.seconds) break;
  }
  out.metrics["wall_req_per_s"] = median(rate);
  out.metrics["setup_s"] = median(setup_s);
  out.metrics["goodput_req_per_s"] = sim.goodput;
  out.metrics["latency_p50_ms"] = sim.p50_ms;
  out.metrics["latency_p99_ms"] = sim.p99_ms;
  out.metrics["completed_share"] = ratio(
      static_cast<double>(sim.completed), static_cast<double>(sim.offered));
  out.metrics["img_per_j"] = ratio(static_cast<double>(sim.completed),
                                   sim.energy_j);
  out.metrics["slo_rate_req_per_s"] = w.slo_rate(args.seed);

  std::printf("# units: %zu timed (+1 warm-up), %lld requests each\n",
              rate.size(), static_cast<long long>(sim.offered));
  std::printf("# wall_req_per_s quartiles: %.6g %.6g %.6g\n", pct(rate, 25),
              pct(rate, 50), pct(rate, 75));
  std::printf("# setup_s quartiles: %.6g %.6g %.6g over %zu setups\n",
              pct(setup_s, 25), pct(setup_s, 50), pct(setup_s, 75),
              setup_s.size());
  std::printf("# latency: %zu samples, p50 %.6g ms, p99 %.6g ms, p%g %.6g ms\n",
              sim.latency_samples, sim.p50_ms, sim.p99_ms, sim.top_pct,
              sim.top_ms);
  std::printf("# failed_share: %.6g (refused %lld + lost %lld of %lld)\n",
              ratio(static_cast<double>(sim.refused + sim.lost),
                    static_cast<double>(sim.offered)),
              static_cast<long long>(sim.refused),
              static_cast<long long>(sim.lost),
              static_cast<long long>(sim.offered));
  return out;
}

/// Arm (or disarm) both runtime verifiers in strict mode.
void set_strict(bool on) {
  using ncsw::check::CheckMode;
  ncsw::check::set_default_mode(on ? CheckMode::kStrict : CheckMode::kOff);
  ncsw::check::serve_verifier().configure(CheckMode::kDefault);
  ncsw::check::verifier().clear_violations();
}

/// One unit with the verifiers strict; any violation is an error. With
/// `arm_tracer` the simulated-clock tracer records the serving call (not
/// the setup, whose calibration runs on throwaway targets).
UnitResult strict_unit(Workload& w, const Args& args, SpanRecorder* spans,
                       bool short_run, bool arm_tracer,
                       std::vector<std::string>& errors) {
  set_strict(true);
  auto& tracer = ncsw::util::tracer();
  UnitResult r;
  try {
    w.setup(args.seed, short_run);
    tracer.reset();
    tracer.set_detail(ncsw::util::TraceDetail::kSpans);
    tracer.set_enabled(arm_tracer);
    r = w.run(spans);
  } catch (const std::exception& e) {
    errors.push_back(std::string("strict run: ") + e.what());
  }
  tracer.set_enabled(false);
  w.teardown();
  const auto violations = ncsw::check::verifier().total() +
                          ncsw::check::serve_verifier().total();
  if (violations != 0) {
    errors.push_back(strf("strict run: %llu protocol violations",
                          static_cast<unsigned long long>(violations)));
  }
  set_strict(false);
  return r;
}

Outcome trace(Workload& w, const Args& args, int threads) {
  constexpr int kPairs = 3;
  Outcome out;
  SpanRecorder spans;

  w.setup(args.seed, false);  // warm-up and reference
  const UnitResult first = w.run(nullptr);
  w.teardown();
  check_unit(first, first.fingerprint, out.errors);

  std::vector<double> untraced_s, traced_s, overhead_s;
  UnitResult traced;
  for (int pair = 0; pair < kPairs; ++pair) {
    w.setup(args.seed, false);
    const UnitResult plain = w.run(nullptr);
    w.teardown();
    spans.set_run(pair);
    w.setup(args.seed, false);
    traced = w.run(&spans);
    w.teardown();
    check_unit(plain, first.fingerprint, out.errors);
    check_unit(traced, first.fingerprint, out.errors);
    untraced_s.push_back(plain.run_s);
    traced_s.push_back(traced.run_s);
    overhead_s.push_back(traced.run_s - plain.run_s);
    out.attempted += traced.sim.offered;
    out.failed += traced.sim.lost;
  }

  // The traced run once more under the strict verifiers: still the same
  // simulated outputs, and no violation.
  spans.set_run(kPairs);
  const UnitResult strict =
      strict_unit(w, args, &spans, false, false, out.errors);
  check_unit(strict, first.fingerprint, out.errors);

  // The simulated-clock trace of a short prefix, linted offline. (The
  // tracer keeps at most 2^20 events, fewer than a full unit emits.)
  strict_unit(w, args, nullptr, true, true, out.errors);
  auto& tracer = ncsw::util::tracer();
  std::string lint_error;
  const auto lint = ncsw::check::lint_trace_text(tracer.to_json(), {},
                                                 &lint_error);
  const std::size_t trace_events = tracer.size();
  const std::uint64_t trace_dropped = tracer.dropped();
  tracer.reset();
  if (!lint) {
    out.errors.push_back("tracelint: unreadable trace: " + lint_error);
  } else if (!lint->ok() || trace_events == 0 || trace_dropped != 0) {
    out.errors.push_back("tracelint: " + lint->to_string());
  }

  // Layer metrics of the last traced pair.
  const auto totals = spans.totals(kPairs - 1);
  const auto span_of = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? SpanTotals{} : it->second;
  };
  const double offered = static_cast<double>(traced.sim.offered);
  const LayerObs& obs = traced.layers;
  const auto& c = traced.counters;
  auto& m = out.metrics;
  m = run_probes(threads);
  m["serve.run_s"] = median(traced_s);
  m["serve.self_us_per_req"] = 1e6 * ratio(span_of("serve.run").self_s, offered);
  m["serve.queue_wait_ms.p50"] = pct(obs.queue_wait_ms, 50);
  m["serve.queue_wait_ms.p99"] = pct(obs.queue_wait_ms, 99);
  m["serve.service_ms.p50"] = pct(obs.service_ms, 50);
  m["serve.service_ms.p99"] = pct(obs.service_ms, 99);
  m["serve.max_queue_depth"] = obs.max_queue_depth;
  const SpanTotals submit = span_of("core.submit");
  m["core.submit_us"] =
      1e6 * ratio(submit.total_s, static_cast<double>(submit.count));
  m["core.submits"] = static_cast<double>(submit.count);
  m["core.images_per_submit"] =
      ratio(obs.submitted_images, static_cast<double>(submit.count));
  m["core.swaps_per_req"] = ratio(c.at("core.zoo.swaps"), offered);
  m["zoo.hit_rate"] = obs.hit_rate;
  m["zoo.swap_stall_s"] = obs.swap_stall_s;
  m["myriad.executions_per_req"] = ratio(c.at("myriad.executions"), offered);
  m["sim.events_per_req"] = ratio(c.at("sim.engine.events"), offered);
  m["sim.events_per_s"] = ratio(c.at("sim.engine.events"), median(untraced_s));
  m["mvnc.load_tensor_per_req"] =
      ratio(c.at("mvnc.load_tensor.calls"), offered);
  m["mvnc.get_result_per_req"] = ratio(c.at("mvnc.get_result.calls"), offered);
  m["ncs.queue_wait_ms"] =
      ratio(c.at("ncs.queue_wait_ms.sum"), c.at("ncs.queue_wait_ms.count"));
  m["ncs.exec_ms"] = ratio(c.at("ncs.exec_ms.sum"), c.at("ncs.exec_ms.count"));
  m["cluster.hedges"] = obs.hedges;
  m["cluster.duplicates"] = obs.duplicates;
  m["cluster.duplicates_per_hedge"] = ratio(obs.duplicates, obs.hedges);
  m["cluster.replays"] = obs.replays;
  m["cluster.spills"] = obs.spills;
  m["trace.overhead_s"] = median(overhead_s);

  for (const auto& [name, t] : totals) {
    std::printf("# span %s: %lld calls, total %.6g s, self %.6g s\n",
                name.c_str(), static_cast<long long>(t.count), t.total_s,
                t.self_s);
  }
  std::printf("# untraced run_s %.6g, traced run_s %.6g (medians of %d)\n",
              median(untraced_s), median(traced_s), kPairs);
  std::printf("# tracelint: %zu events, %zu spans checked\n",
              lint ? lint->events : 0, lint ? lint->spans : 0);
  return out;
}

bool parse(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--trace") {
      args.trace = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else {
      return false;
    }
    if (end && *end != '\0') return false;
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0.0 &&
         (args.trace == 0 || args.trace == 1);
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "serve-node") return make_serve_node();
  if (name == "zoo-swap") return make_zoo_swap();
  if (name == "cluster-failover") return make_cluster_failover();
  if (name == "classify-fig7") return make_classify_fig7();
  return nullptr;
}

void print(const Outcome& out, bool traced) {
  std::string json = strf("{\"correct\": %s, \"attempted\": %lld, "
                          "\"failed\": %lld, \"metrics\": {",
                          out.errors.empty() ? "true" : "false",
                          static_cast<long long>(out.attempted),
                          static_cast<long long>(out.failed));
  bool first = true;
  for (const MetricDef& def : traced ? std::vector<MetricDef>(
                                           std::begin(kPerLayer),
                                           std::end(kPerLayer))
                                     : std::vector<MetricDef>(
                                           std::begin(kEndToEnd),
                                           std::end(kEndToEnd))) {
    const auto it = out.metrics.find(def.name);
    const double v = it == out.metrics.end() ? 0.0 : it->second;
    std::printf("metric %s %.10g %s %s\n", def.name, v, def.unit, def.clock);
    json += strf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                 first ? "" : ", ", def.name, std::isfinite(v) ? v : 0.0,
                 def.unit);
    first = false;
  }
  for (const auto& e : out.errors) std::printf("# CHECK FAILED: %s\n", e.c_str());
  std::printf("%s}}\n", json.c_str());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const double process_start = wall_now();
  Args args;
  if (!parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: ncsw_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1>\n");
    return 2;
  }
  auto workload = make_workload(args.workload);
  if (!workload) {
    std::fprintf(stderr, "ncsw_perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  // Pin what the environment could otherwise change: the kernel thread
  // count (all CPUs this process may use), the opt-in fast tier (off) and
  // the verifiers (off outside the strict traced unit).
  const int threads = allowed_cpus();
  setenv("NCSW_THREADS", std::to_string(threads).c_str(), 1);
  unsetenv("NCSW_FAST");
  unsetenv("NCSW_CHECK");
  set_strict(false);
  std::printf("# perfbench %s seed=%llu seconds=%g trace=%d threads=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace, threads);
  try {
    const Outcome out = args.trace ? trace(*workload, args, threads)
                                   : measure(*workload, args, process_start);
    print(out, args.trace == 1);
    return out.errors.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ncsw_perfbench: %s\n", e.what());
    return 1;
  }
}
