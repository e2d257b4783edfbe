// Discrete-event simulation core.
//
// The Myriad 2 model executes a compiled network by scheduling tile /
// DMA / scheduler events on this engine; the resulting simulated clock is
// what the benchmark harnesses report, standing in for wall-clock
// measurements on the paper's physical testbed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <queue>
#include <string>
#include <vector>

namespace ncsw::sim {

/// Simulated time in seconds.
using SimTime = double;

/// Milliseconds -> SimTime.
constexpr SimTime from_ms(double ms) noexcept { return ms * 1e-3; }
/// Microseconds -> SimTime.
constexpr SimTime from_us(double us) noexcept { return us * 1e-6; }
/// SimTime -> milliseconds.
constexpr double to_ms(SimTime t) noexcept { return t * 1e3; }

/// Single-threaded event calendar. Events scheduled for the same time fire
/// in schedule order (stable FIFO tie-break), which keeps runs
/// deterministic.
class Engine {
 public:
  using Callback = std::function<void()>;

  /// Current simulated time.
  SimTime now() const noexcept { return now_; }

  /// Schedule `cb` to run `delay` seconds from now (>= 0).
  void schedule(SimTime delay, Callback cb);

  /// Schedule `cb` at absolute time `when` (>= now()).
  void schedule_at(SimTime when, Callback cb);

  /// Run until the calendar is empty. Returns the final time.
  SimTime run();

  /// Run until the calendar is empty or `deadline` is reached (events at
  /// exactly `deadline` still fire). Returns the final time.
  SimTime run_until(SimTime deadline);

  /// Number of events executed so far.
  std::uint64_t events_executed() const noexcept { return executed_; }

  /// True when no events are pending.
  bool idle() const noexcept { return queue_.empty(); }

  /// Reset time and drop all pending events.
  void reset();

 private:
  struct Event {
    SimTime time;
    std::uint64_t seq;
    Callback cb;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
};

/// A serially-reusable resource (a bus, a DMA engine, a pool of identical
/// servers). Reservations are granted in request order; each reservation
/// occupies one server for [start, start+duration).
class Resource {
 public:
  /// `servers` parallel units (1 = fully serialised resource).
  explicit Resource(std::string name, int servers = 1);

  /// Reserve one server for `duration`, no earlier than `earliest`.
  /// Returns the granted start time; the server is busy until
  /// start + duration.
  SimTime reserve(SimTime earliest, SimTime duration);

  /// Earliest time a new reservation could start.
  SimTime next_free(SimTime earliest) const noexcept;

  /// Total busy time accumulated over all reservations.
  SimTime busy_time() const noexcept { return busy_; }
  /// Number of reservations granted.
  std::uint64_t reservations() const noexcept { return count_; }
  const std::string& name() const noexcept { return name_; }

  /// Forget all state (free at t = 0).
  void reset();

 private:
  std::string name_;
  std::vector<SimTime> free_at_;  // one entry per server
  SimTime busy_ = 0.0;
  std::uint64_t count_ = 0;
};

/// A serialised resource whose reservations may arrive out of
/// chronological order: each reservation first-fits into the earliest idle
/// gap at or after `earliest`. This makes the result independent of the
/// order in which concurrent clients issue their requests — exactly what a
/// shared USB hub uplink needs when several stick timelines are simulated
/// one after another.
class IntervalResource {
 public:
  explicit IntervalResource(std::string name);

  /// Reserve `duration` starting no earlier than `earliest`; returns the
  /// granted start time. The intervals' ends ascend, so a binary search
  /// skips every interval ending at or before `earliest`; the first-fit
  /// scan starts there, and usually stops within a few intervals.
  SimTime reserve(SimTime earliest, SimTime duration);

  SimTime busy_time() const noexcept { return busy_; }
  std::uint64_t reservations() const noexcept { return count_; }
  const std::string& name() const noexcept { return name_; }

  /// Drop all reservations.
  void reset();

  /// Gaps older than this (relative to the latest reservation start) are
  /// forgotten: requests can no longer back-fill them. Keeps the interval
  /// list bounded for million-reservation benchmark runs; harmless for
  /// clients whose earliest times progress monotonically (all of ours).
  /// Forgotten intervals are skipped by advancing a head index; the
  /// vector drops them only once they are more than half of it, so a
  /// prune costs amortised O(1) moves.
  static constexpr SimTime kPruneWindow = 5.0;

 private:
  struct Interval {
    SimTime start;
    SimTime end;
  };
  void prune();

  std::string name_;
  std::vector<Interval> intervals_;  // sorted by start, non-overlapping
  std::size_t head_ = 0;  ///< intervals_[0, head_) are pruned (dead)
  SimTime busy_ = 0.0;
  std::uint64_t count_ = 0;
  SimTime floor_ = 0.0;      ///< no reservation may start before this
  SimTime max_start_ = 0.0;  ///< latest granted start
};

}  // namespace ncsw::sim
