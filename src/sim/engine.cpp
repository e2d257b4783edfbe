#include "sim/engine.h"

#include <algorithm>
#include <stdexcept>

#include "util/metrics.h"

namespace ncsw::sim {

namespace {

// Process-wide dispatch counters. Engines are created per graph
// execution, so aggregation lives in the registry, not the engine.
util::Counter& events_counter() {
  static util::Counter& c = util::metrics().counter("sim.engine.events");
  return c;
}

util::Counter& runs_counter() {
  static util::Counter& c = util::metrics().counter("sim.engine.runs");
  return c;
}

}  // namespace

void Engine::schedule(SimTime delay, Callback cb) {
  if (delay < 0.0) throw std::invalid_argument("Engine::schedule: delay < 0");
  schedule_at(now_ + delay, std::move(cb));
}

void Engine::schedule_at(SimTime when, Callback cb) {
  if (when < now_) {
    throw std::invalid_argument("Engine::schedule_at: time in the past");
  }
  queue_.push(Event{when, next_seq_++, std::move(cb)});
}

SimTime Engine::run() {
  const std::uint64_t before = executed_;
  while (!queue_.empty()) {
    // Copy out then pop: the callback may schedule new events.
    Event ev = queue_.top();
    queue_.pop();
    now_ = ev.time;
    ++executed_;
    ev.cb();
  }
  events_counter().add(executed_ - before);
  runs_counter().add(1);
  return now_;
}

SimTime Engine::run_until(SimTime deadline) {
  const std::uint64_t before = executed_;
  while (!queue_.empty() && queue_.top().time <= deadline) {
    Event ev = queue_.top();
    queue_.pop();
    now_ = ev.time;
    ++executed_;
    ev.cb();
  }
  now_ = std::max(now_, deadline);
  events_counter().add(executed_ - before);
  runs_counter().add(1);
  return now_;
}

void Engine::reset() {
  queue_ = {};
  now_ = 0.0;
  next_seq_ = 0;
  executed_ = 0;
}

Resource::Resource(std::string name, int servers) : name_(std::move(name)) {
  if (servers < 1) throw std::invalid_argument("Resource: servers < 1");
  free_at_.assign(static_cast<std::size_t>(servers), 0.0);
}

SimTime Resource::reserve(SimTime earliest, SimTime duration) {
  if (duration < 0.0) {
    throw std::invalid_argument("Resource::reserve: negative duration");
  }
  // Pick the server that frees up first.
  auto it = std::min_element(free_at_.begin(), free_at_.end());
  const SimTime start = std::max(earliest, *it);
  *it = start + duration;
  busy_ += duration;
  ++count_;
  return start;
}

SimTime Resource::next_free(SimTime earliest) const noexcept {
  const SimTime first = *std::min_element(free_at_.begin(), free_at_.end());
  return std::max(earliest, first);
}

void Resource::reset() {
  std::fill(free_at_.begin(), free_at_.end(), 0.0);
  busy_ = 0.0;
  count_ = 0;
}

IntervalResource::IntervalResource(std::string name)
    : name_(std::move(name)) {}

SimTime IntervalResource::reserve(SimTime earliest, SimTime duration) {
  if (duration < 0.0) {
    throw std::invalid_argument("IntervalResource::reserve: negative duration");
  }
  if (earliest < floor_) earliest = floor_;
  // Ends ascend (sorted, non-overlapping), so every live interval before
  // the first one ending after `earliest` is one the first-fit loop
  // would skip without moving the cursor: jump straight past them.
  const auto live = intervals_.begin() + static_cast<std::ptrdiff_t>(head_);
  std::size_t pos = static_cast<std::size_t>(
      std::partition_point(live, intervals_.end(),
                           [earliest](const Interval& iv) {
                             return iv.end <= earliest;
                           }) -
      intervals_.begin());
  // First-fit: find the earliest gap at/after `earliest` wide enough.
  SimTime cursor = earliest;
  for (; pos < intervals_.size(); ++pos) {
    const Interval& iv = intervals_[pos];
    if (iv.end <= cursor) continue;          // fully before the cursor
    if (cursor + duration <= iv.start) break;  // fits in the gap before iv
    cursor = std::max(cursor, iv.end);       // skip past this busy interval
  }
  intervals_.insert(intervals_.begin() + static_cast<std::ptrdiff_t>(pos),
                    Interval{cursor, cursor + duration});
  // Keep the vector sorted: the insert position preserves start order
  // because cursor >= intervals_[pos-1].end and cursor + duration <=
  // intervals_[pos].start.
  busy_ += duration;
  ++count_;
  max_start_ = std::max(max_start_, cursor);
  prune();
  return cursor;
}

void IntervalResource::prune() {
  const SimTime cutoff = max_start_ - kPruneWindow;
  if (cutoff <= floor_) return;
  const std::size_t first_live = head_;
  while (head_ < intervals_.size() && intervals_[head_].end < cutoff) ++head_;
  if (head_ == first_live) return;
  floor_ = std::max(floor_, intervals_[head_ - 1].end);
  // Drop the dead prefix only once it outweighs the live suffix, so each
  // interval is moved O(1) times on average instead of on every prune.
  if (2 * head_ > intervals_.size()) {
    intervals_.erase(intervals_.begin(),
                     intervals_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
}

void IntervalResource::reset() {
  intervals_.clear();
  head_ = 0;
  busy_ = 0.0;
  count_ = 0;
  floor_ = 0.0;
  max_start_ = 0.0;
}

}  // namespace ncsw::sim
