// CPU and GPU targets: functional FP32 inference through the engine plus
// the calibrated Caffe-MKL / Caffe-cuDNN batch timing models.
#pragma once

#include "core/target.h"
#include "devices/host_models.h"
#include "nn/quant.h"

namespace ncsw::core {

/// Shared implementation for the two host-side reference targets.
class HostTarget : public Target {
 public:
  HostTarget(std::shared_ptr<const ModelBundle> bundle,
             devices::HostDeviceModel model, std::string short_name,
             int max_batch, std::uint64_t jitter_seed);

  std::string name() const override { return model_.name(); }
  std::string short_name() const override { return short_name_; }
  double tdp_w(int) const override { return model_.tdp_w(); }
  int max_batch() const override { return max_batch_; }

  std::vector<Prediction> classify(
      const std::vector<tensor::TensorF>& inputs) override;

  /// The underlying analytic model (for tests and tables).
  const devices::HostDeviceModel& model() const noexcept { return model_; }

  /// Opt this target into the fast host tier (docs/performance.md):
  /// classify() runs the fused/quantized kernels (weights prepared once,
  /// here) and the analytic batch timings are divided by the calibrated
  /// calibration::kHostFastSpeedupX. Off by default; the default path is
  /// untouched.
  void set_fast(bool fast);

  /// Whether the fast tier is enabled.
  bool fast() const noexcept { return fast_; }

 protected:
  /// One batch on the host engine. The engine is a single serial queue:
  /// a submission starts when the previous one finishes (never before
  /// its own submit time), so in-flight submissions pipeline FIFO.
  BatchExec execute_batch(std::int64_t images, int batch, double submit_s,
                          bool aligned) override;

 private:
  std::shared_ptr<const ModelBundle> bundle_;
  devices::HostDeviceModel model_;
  std::string short_name_;
  int max_batch_;
  std::uint64_t jitter_seed_;
  std::uint64_t batches_run_ = 0;  // advances the jitter stream
  bool fast_ = false;             // fast host tier enabled
  nn::QuantizedWeights quant_;    // fast-tier weights (set_fast, once)
};

/// The paper's CPU target (Caffe-MKL, FP32).
std::unique_ptr<HostTarget> make_cpu_target(
    std::shared_ptr<const ModelBundle> bundle);

/// The paper's GPU target (Caffe-cuDNN, FP32; the paper confirms its
/// confidences match the CPU, so classify() runs the same FP32 engine).
std::unique_ptr<HostTarget> make_gpu_target(
    std::shared_ptr<const ModelBundle> bundle);

}  // namespace ncsw::core
