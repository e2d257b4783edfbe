#include <sys/resource.h>

#include <algorithm>
#include <cmath>

#include "bench.h"
#include "util/metrics.h"

namespace perfbench {

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double pct(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = p / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

double median(std::vector<double> xs) { return pct(std::move(xs), 50.0); }

double highest_supported_pct(std::size_t n) {
  // p = 1 - 1/denom keeps n/denom samples beyond it.
  double best = 50.0;
  for (std::size_t denom = 100; n >= 10 * denom; denom *= 10) {
    best = 100.0 * (1.0 - 1.0 / static_cast<double>(denom));
  }
  return best;
}

void SimOutcome::set_latency(const std::vector<double>& ms) {
  latency_samples = ms.size();
  p50_ms = pct(ms, 50.0);
  p99_ms = pct(ms, 99.0);
  top_pct = highest_supported_pct(ms.size());
  top_ms = pct(ms, top_pct);
}

std::uint64_t fnv1a(const void* data, std::size_t len, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::map<std::string, double> registry_snapshot() {
  auto& reg = ncsw::util::metrics();
  std::map<std::string, double> out;
  for (const char* name :
       {"sim.engine.events", "myriad.executions", "mvnc.load_tensor.calls",
        "mvnc.get_result.calls", "core.zoo.swaps"}) {
    out[name] = static_cast<double>(reg.counter(name).value());
  }
  for (const char* name : {"ncs.exec_ms", "ncs.queue_wait_ms"}) {
    const auto& h = reg.histogram(name);
    out[std::string(name) + ".count"] = static_cast<double>(h.count());
    out[std::string(name) + ".sum"] = h.sum();
  }
  return out;
}

}  // namespace perfbench
