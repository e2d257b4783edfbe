// Multi-tenant model-zoo serving: M tenants' models contend for K
// sticks through a residency-managed cache of stick-resident graphs.
//
// The paper serves one network on N sticks; a zoo deployment inverts
// the ratio — more models than sticks, each stick's LPDDR holding one
// compiled graph at a time. This event loop glues the pieces together:
//
//   arrivals --> [admission: shared queue + per-class quota]
//            --> [per-model FIFO queues]
//            --> [scheduler: oldest (class, arrival) head wins;
//                 resident -> dispatch, missing -> ResidencyManager
//                 picks the victim stick -> StickFleet::swap_to]
//            --> per-stick async tickets (core::Target submit/info/wait)
//
// entirely on the simulated clock, single-threaded, on the shared event
// kernel (serve/event_loop.h) with a fixed tie-break (complete < ready <
// drop < arrive) so a given trace always produces byte-identical
// reports. Swaps ride the drain -> deallocate
// -> allocate lifecycle under the NCAPI protocol verifier, and the
// serve verifier's zoo hooks (swap-while-inflight, wrong-model-dispatch,
// residency-conservation) shadow every decision.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/stick_fleet.h"
#include "serve/residency.h"
#include "serve/server.h"
#include "util/stats.h"

namespace ncsw::serve {

/// One tenant request: one image of work for one zoo model.
struct ZooRequest {
  std::int64_t id = 0;
  double arrival_s = 0.0;  ///< simulated arrival time (non-decreasing)
  int model = 0;           ///< index into the fleet's zoo
  SloClass slo = SloClass::kStandard;
};

/// Zoo frontend policy knobs.
struct ZooConfig {
  ResidencyConfig residency;
  /// Shared admission bound across all model queues (clamped to >= 1).
  std::size_t queue_capacity = 64;
  /// Per-class admission quota (same semantics as ServerConfig's).
  std::array<std::size_t, kSloClassCount> class_quota = {
      std::numeric_limits<std::size_t>::max(),
      std::numeric_limits<std::size_t>::max(),
      std::numeric_limits<std::size_t>::max()};
  /// A request not dispatched within this much simulated time of its
  /// arrival is dropped from its queue (infinity = never).
  double queue_deadline_s = std::numeric_limits<double>::infinity();
  /// Largest number of same-model requests folded into one ticket.
  int max_batch = 4;
};

/// Per-model rollup inside a ZooReport.
struct ZooModelStats {
  std::string name;
  std::int64_t offered = 0;
  std::int64_t completed = 0;
  std::int64_t swaps_in = 0;  ///< times the model was swapped onto a stick
};

/// Result of serving one tenant-mix trace.
struct ZooReport {
  std::int64_t offered = 0;
  std::int64_t accepted = 0;
  std::int64_t rejected = 0;
  std::int64_t dropped = 0;
  std::int64_t completed = 0;
  /// Admission-time residency: the request's model was resident (hit)
  /// or needed a swap-in before it could run (miss). Counted over
  /// accepted requests only, so hits + misses == accepted.
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  std::int64_t swaps = 0;         ///< graph swaps the run performed
  double swap_stall_s = 0.0;      ///< total stick-time spent swapping
  /// Residency-conservation counters copied from the fleet at finish.
  std::int64_t installs = 0;
  std::int64_t evicts = 0;
  std::int64_t resident = 0;
  double first_arrival_s = 0.0;
  double last_complete_s = 0.0;
  util::RunningStats latency_ms;  ///< completed requests only
  double p50_ms = 0.0, p95_ms = 0.0, p99_ms = 0.0;
  std::array<ClassStats, kSloClassCount> classes{};
  std::vector<ZooModelStats> models;

  double makespan_s() const noexcept {
    return last_complete_s > first_arrival_s
               ? last_complete_s - first_arrival_s
               : 0.0;
  }
  double goodput() const noexcept {
    const double m = makespan_s();
    return m > 0.0 ? static_cast<double>(completed) / m : 0.0;
  }
  double hit_rate() const noexcept {
    const double n = static_cast<double>(hits + misses);
    return n > 0.0 ? static_cast<double>(hits) / n : 0.0;
  }
};

/// The zoo frontend. The fleet stays caller-owned; the server installs
/// residency state from the fleet's current placement at construction.
/// Not thread-safe; single use (one run per instance).
class ZooServer {
 public:
  ZooServer(core::StickFleet& fleet, ZooConfig config = {});

  /// Serve a finite arrival trace (sorted by arrival_s; throws
  /// std::invalid_argument otherwise) to completion. `tie_break` is the
  /// determinism fuzzer's hook (serve/event_loop.h); empty runs the
  /// fixed order complete < ready < drop < arrive, then stick or queue
  /// index.
  ZooReport run(const std::vector<ZooRequest>& requests,
                const TieBreak& tie_break = {});

  const ZooConfig& config() const noexcept { return config_; }

 private:
  core::StickFleet& fleet_;
  ZooConfig config_;
};

}  // namespace ncsw::serve
