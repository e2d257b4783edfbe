// Timing decorator for core::Target, used by the traced run.
//
// It wraps a target the benchmark owns and forwards every call through
// the wrapped target's public API: a submission becomes inner.submit +
// inner.info + inner.wait (so the inner ticket retires at once and the
// decorator's own ticket carries the same start/complete timestamps), and
// classify() forwards as is. Each forwarded call is recorded as a span.
//
// The decorator is faithful on the asynchronous path the serving loops
// use: the traced run checks that its simulated fingerprint is
// byte-equal to the undecorated run's. run_timed()'s aligned mode is not
// forwarded (it is not reachable through the public API), so decorated
// targets must not be driven through run_timed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/target.h"
#include "spans.h"

namespace perfbench {

class TimingTarget : public ncsw::core::Target {
 public:
  TimingTarget(ncsw::core::Target& inner, SpanRecorder& spans)
      : inner_(inner), spans_(spans) {}

  std::string name() const override { return inner_.name(); }
  std::string short_name() const override { return inner_.short_name(); }
  double tdp_w(int batch) const override { return inner_.tdp_w(batch); }
  int max_batch() const override { return inner_.max_batch(); }

  std::vector<ncsw::core::Prediction> classify(
      const std::vector<ncsw::tensor::TensorF>& inputs) override;

  /// Images submitted through this decorator.
  std::int64_t images() const noexcept { return images_; }

 protected:
  BatchExec execute_batch(std::int64_t images, int batch, double submit_s,
                          bool aligned) override;

 private:
  ncsw::core::Target& inner_;
  SpanRecorder& spans_;
  std::int64_t images_ = 0;
};

}  // namespace perfbench
