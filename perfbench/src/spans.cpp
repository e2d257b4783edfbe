#include "spans.h"

#include "bench.h"

namespace perfbench {

SpanRecorder::Scope::Scope(SpanRecorder* rec, const char* name) : rec_(rec) {
  if (!rec_) return;
  index_ = static_cast<int>(rec_->spans_.size());
  Span span;
  span.name = name;
  span.parent = rec_->open_;
  span.run = rec_->run_;
  span.start_s = wall_now();
  rec_->spans_.push_back(span);
  rec_->open_ = index_;
}

SpanRecorder::Scope::~Scope() {
  if (!rec_) return;
  Span& span = rec_->spans_[static_cast<std::size_t>(index_)];
  span.end_s = wall_now();
  rec_->open_ = span.parent;
}

std::map<std::string, SpanTotals> SpanRecorder::totals(int run) const {
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.run == run && s.parent >= 0) {
      child_s[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
    }
  }
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.run != run) continue;
    SpanTotals& t = out[s.name];
    ++t.count;
    t.total_s += s.end_s - s.start_s;
    t.self_s += s.end_s - s.start_s - child_s[i];
  }
  return out;
}

}  // namespace perfbench
