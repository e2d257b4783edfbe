// The discrete-event kernel shared by the serving loops (serve::Server,
// cluster::Cluster, serve::ZooServer).
//
// Each loop lists its event sources in its own fixed priority order; a
// source is (kind, count, next_s(i), fire(i, now)) over `count` indexed
// instances (one per node, stick or queue). Every iteration the kernel
// takes the earliest next_s over all sources, breaking ties by list
// order and then by the lowest index, keeps the clock monotone
// (now = max(now, t)) and fires that one event; the loop re-evaluates
// after each event and returns once no source has anything scheduled.
//
// With a TieBreak hook (check/schedfuzz.h) the kernel instead collects
// every (kind, i) due at exactly t, in that same order, and fires the
// one the hook picks; index 0 reproduces the fixed order. Without a
// hook it allocates nothing per event.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

namespace ncsw::serve {

/// The event classes the serving loops arbitrate between; each loop
/// lists its sources in its own fixed order: Server complete < drop <
/// arrive < flush; Cluster complete < drop < fault < probe < ready <
/// hedge < arrive < flush; ZooServer complete < ready < drop < arrive.
enum class LoopEventKind : int {
  kComplete = 0,
  kDrop,
  kFault,
  kProbe,
  kReady,
  kHedge,
  kArrive,
  kFlush,
};

/// Stable lowercase name ("complete", "drop", "fault", ...).
inline const char* loop_event_kind_name(LoopEventKind kind) {
  switch (kind) {
    case LoopEventKind::kComplete: return "complete";
    case LoopEventKind::kDrop:     return "drop";
    case LoopEventKind::kFault:    return "fault";
    case LoopEventKind::kProbe:    return "probe";
    case LoopEventKind::kReady:    return "ready";
    case LoopEventKind::kHedge:    return "hedge";
    case LoopEventKind::kArrive:   return "arrive";
    case LoopEventKind::kFlush:    return "flush";
  }
  return "?";
}

/// One candidate event due at the time the loop is about to process.
/// `index` is the instance within its source: the node in the cluster,
/// the stick or queue in the zoo, 0 for single-instance sources.
struct LoopEvent {
  LoopEventKind kind = LoopEventKind::kComplete;
  int index = 0;
  double t = 0.0;
};

/// Schedule-perturbation hook: given every event due at exactly `t`, in
/// the loop's fixed order, return the one to fire next (taken modulo
/// the group size). Called once per event while set.
using TieBreak =
    std::function<std::size_t(double t, const std::vector<LoopEvent>& tied)>;

/// One event source; build with event_source().
template <class Next, class Fire>
struct EventSource {
  LoopEventKind kind;
  int count;
  Next next_s;  ///< double(int i): +inf when instance i has nothing due
  Fire fire;    ///< void(int i, double now)
};

template <class Next, class Fire>
EventSource<Next, Fire> event_source(LoopEventKind kind, int count,
                                     Next next_s, Fire fire) {
  return {kind, count, std::move(next_s), std::move(fire)};
}

/// Run events from `sources` (in priority order) starting at `now`
/// until none is scheduled; returns the clock after the last event.
template <class... Sources>
double run_event_loop(double now, const TieBreak& tie_break,
                      Sources... sources) {
  // Visit every source with its position in the list.
  const auto each = [&](auto&& f) {
    std::size_t k = 0;
    (f(k++, sources), ...);
  };
  std::vector<LoopEvent> tied;  // stays empty (unallocated) without a hook
  std::vector<std::size_t> tied_source;
  for (;;) {
    double t = std::numeric_limits<double>::infinity();
    std::size_t which = 0;
    int index = -1;
    each([&](std::size_t k, auto& src) {
      for (int i = 0; i < src.count; ++i) {
        const double ti = src.next_s(i);
        if (ti < t) {
          t = ti;
          which = k;
          index = i;
        }
      }
    });
    if (index < 0) return now;
    if (tie_break) {
      tied.clear();
      tied_source.clear();
      each([&](std::size_t k, auto& src) {
        for (int i = 0; i < src.count; ++i) {
          if (src.next_s(i) == t) {
            tied.push_back({src.kind, i, t});
            tied_source.push_back(k);
          }
        }
      });
      const std::size_t pick = tie_break(t, tied) % tied.size();
      which = tied_source[pick];
      index = tied[pick].index;
    }
    now = std::max(now, t);
    each([&](std::size_t k, auto& src) {
      if (k == which) src.fire(index, now);
    });
  }
}

}  // namespace ncsw::serve
