// Wall-clock spans recorded by the benchmark's own code around calls into
// each layer's public functions. Nothing inside the library is
// instrumented: a span opens before a call and closes after it returns.
//
// Spans are kept in memory until the end of the run. Each has a name, a
// start and end (seconds on the host's monotonic clock), the span that
// was open when it started (its parent) and the id of the unit it
// belongs to. A layer's self time is its spans' duration minus the part
// covered by their child spans.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";
  double start_s = 0.0;
  double end_s = 0.0;
  int parent = -1;  ///< index of the enclosing span, -1 for a root
  int run = 0;      ///< unit id
};

/// Per-name totals over the recorded spans.
struct SpanTotals {
  std::int64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;  ///< total minus time covered by child spans
};

class SpanRecorder {
 public:
  /// Records one span from construction to destruction (exceptions
  /// included); records nothing when `rec` is null (untraced runs).
  class Scope {
   public:
    Scope(SpanRecorder* rec, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* rec_;
    int index_ = -1;
  };

  /// Spans recorded from now on belong to unit `run`.
  void set_run(int run) { run_ = run; }

  /// Totals of the spans of unit `run`, by name.
  std::map<std::string, SpanTotals> totals(int run) const;

 private:
  std::vector<Span> spans_;
  int open_ = -1;  ///< innermost open span
  int run_ = 0;
};

}  // namespace perfbench
