// The multi-VPU target — the paper's main contribution (Section III,
// Fig. 4). One NCAPI graph handle per stick; images are assigned
// round-robin; each stick's stream of load -> execute -> get overlaps
// with the other sticks'. In timed runs the number of active sticks is
// coupled to the batch size, exactly as in the paper's figures.
#pragma once

#include <cstdint>
#include <vector>

#include "core/health.h"
#include "core/target.h"
#include "mvnc/sim_host.h"

namespace ncsw::core {

/// Image-to-stick assignment policy for the multi-VPU runner.
enum class Scheduling {
  kRoundRobin,   ///< the paper's static policy (Section III)
  kLeastLoaded,  ///< dynamic: next image goes to the earliest-free stick
};

/// Multi-VPU target configuration.
struct VpuTargetConfig {
  int devices = 8;  ///< sticks to open (the paper's testbed has 8)
  mvnc::HostConfig::Topology topology =
      mvnc::HostConfig::Topology::kPaperTestbed;
  Scheduling scheduling = Scheduling::kRoundRobin;
  /// Heterogeneity knob forwarded to the host (see mvnc::HostConfig).
  int degraded_device = -1;
  double degraded_factor = 2.0;
  ncs::NcsConfig ncs;  ///< stick/chip parameters (calibrated defaults)
  /// Scripted fault windows forwarded to the host (empty: no injection,
  /// fault-free behaviour is byte-identical to a build without them).
  sim::FaultPlan faults;
  /// Retry / backoff / quarantine policy of the self-healing runner.
  HealthPolicy health;
  /// When every stick is dead, run_timed normally throws. With
  /// allow_partial the run returns instead, reporting the abandoned
  /// images in TimedRun::images_lost (used by the chaos bench to plot
  /// graceful degradation past the cliff).
  bool allow_partial = false;
  /// NCAPI protocol verifier mode forwarded to the host (see
  /// check/protocol.h). kDefault resolves through
  /// check::set_default_mode() / $NCSW_CHECK, falling back to off.
  check::CheckMode check = check::CheckMode::kDefault;
};

/// One functional FP16 inference on the stick behind `graph`, the step
/// both stick-driving targets (VpuTarget and the zoo's StickTarget) run
/// per image: FP32 -> FP16 on the host (the OpenEXR-half step),
/// mvncLoadTensor + mvncGetResult, FP16 -> FP32 probabilities. Transient
/// statuses (BUSY / ERROR / TIMEOUT) are retried up to the policy's
/// max_retries, backing off on the stick's own timeline by
/// `stick.backoff(attempt)`; anything else throws std::runtime_error.
Prediction classify_on_stick(void* graph, const tensor::TensorF& input,
                             const StickHealth& stick);

/// Target driving 1..N simulated Neural Compute Sticks through the mvnc
/// API. Reconfigures the global mvnc simulation host at construction.
/// Timing uses the calibrated host gaps (calibration::kVpuSingleGapS for
/// one stick, kVpuThreadGapS per inference when several are threaded);
/// classify() runs one host thread per active stick, as the paper's
/// OpenMP mode does.
class VpuTarget : public Target {
 public:
  VpuTarget(std::shared_ptr<const ModelBundle> bundle,
            const VpuTargetConfig& config = {});
  ~VpuTarget() override;

  VpuTarget(const VpuTarget&) = delete;
  VpuTarget& operator=(const VpuTarget&) = delete;

  std::string name() const override;
  std::string short_name() const override { return "VPU (Multi)"; }

  /// The paper couples active sticks to batch size; TDP = sticks * 2.5 W
  /// (chip TDP 0.9 W is reported separately by the power bench).
  double tdp_w(int batch) const override;

  int max_batch() const override { return config_.devices; }

  std::vector<Prediction> classify(
      const std::vector<tensor::TensorF>& inputs) override;

  /// Per-layer execution times (ms) reported by the NCAPI profiling
  /// option for stick 0.
  std::vector<float> layer_times_ms() const;

  /// The mvnc graph handle of stick `d` (for fault-injection tests and
  /// the failover ablation). Throws std::out_of_range on bad indices.
  void* graph_handle(int d) const { return graph_handles_.at(d); }

  const VpuTargetConfig& config() const noexcept { return config_; }

 protected:
  /// One batch across `batch` sticks. Both modes gate the active sticks
  /// on a common start t0 = max(stick cursors) staggered by thread
  /// spawn; pipelined mode (submit) additionally floors t0 at the
  /// submission instant. Aligned mode (the run_timed shim) is
  /// byte-identical to the pre-async run_timed. Completion timestamps
  /// are mapped onto the caller's clock through the serial engine queue
  /// (Target::occupy_serial): the mvnc cursors carry the device-simulation
  /// epoch (boot + graph allocation), which must not leak into serving
  /// timelines.
  BatchExec execute_batch(std::int64_t images, int batch, double submit_s,
                          bool aligned) override;

 private:
  void open_all();
  void close_all();

  std::shared_ptr<const ModelBundle> bundle_;
  VpuTargetConfig config_;
  std::vector<void*> device_handles_;
  std::vector<void*> graph_handles_;
  /// mvnc host generation our handles belong to. A later host_reset (for
  /// example another VpuTarget's open_all) invalidates every handle, so
  /// close_all must not feed them back into the API.
  std::uint64_t host_generation_ = 0;
};

}  // namespace ncsw::core
