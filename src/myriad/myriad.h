// Myriad 2 VPU (MA2450) performance & power simulator.
//
// Models the SoC the paper describes in Section II: 12 SHAVE VLIW vector
// processors at 600 MHz with native FP16 (128-bit VAU = 8 half lanes), the
// 2 MB multi-ported CMX scratchpad, the 4 GB LPDDR3 global memory, the
// LEON RISC runtime scheduler, and the 20 power islands. A compiled graph
// (graphc::CompiledGraph) is executed layer by layer on a discrete-event
// engine: the RISC core dispatches each layer, its tiles are scheduled
// across the SHAVE array, and its activation/weight traffic occupies the
// DDR interface; a layer completes when both its compute and its data
// movement have drained. Energy is integrated from per-island busy time.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graphc/compiler.h"
#include "sim/engine.h"

namespace ncsw::myriad {

/// Architectural + calibration parameters of the simulated chip.
/// Defaults describe the MA2450 inside the NCS; the SHAVE efficiency
/// factors are calibrated so one GoogLeNet inference costs ~100 ms
/// (paper Section IV-A: 100.7 ms single-VPU, which includes the USB
/// transfer modelled by the NCS layer, not here).
struct MyriadConfig {
  int num_shaves = 12;                  ///< SHAVE vector processors
  double clock_hz = 600e6;              ///< nominal frequency
  double fp16_macs_per_cycle = 8.0;     ///< 128-bit VAU = 8 half MACs/cycle
  double fp32_macs_per_cycle = 4.0;     ///< FP32 halves the vector width
  double ddr_bandwidth = 4.0e9;         ///< LPDDR3 effective bytes/s
  double cmx_bandwidth = 12.0e9;        ///< CMX aggregate bytes/s
  /// Per-layer-kind fraction of peak MAC throughput actually sustained.
  double eff_conv = 0.321;
  double eff_fc = 0.10;
  double eff_pool = 0.18;
  double eff_lrn = 0.12;
  double eff_elementwise = 0.40;
  /// Penalty multiplier on compute when a layer's working set cannot be
  /// tiled into CMX and weights stream from DDR mid-loop.
  double cmx_miss_penalty = 1.35;
  /// LEON RISC runtime scheduler cost to launch one layer.
  double risc_layer_overhead_s = 18e-6;
  /// Per-tile dispatch cost (added to each tile's execution).
  double tile_dispatch_s = 1.2e-6;

  // ---- power islands (Watts) -------------------------------------------
  double p_shave_active = 0.052;  ///< one SHAVE island, executing
  double p_shave_idle = 0.004;    ///< one SHAVE island, clock-gated
  double p_ddr_active = 0.30;     ///< DDR interface while streaming
  double p_base = 0.16;           ///< RISC cores + CMX + clocking, always on

  bool operator==(const MyriadConfig&) const = default;
};

/// Per-layer execution record (what the NCAPI exposes as
/// TIME_TAKEN per layer).
struct LayerProfile {
  std::string name;
  nn::LayerKind kind = nn::LayerKind::kInput;
  double start_s = 0.0;
  double time_s = 0.0;     ///< wall time of the layer (max of compute, DMA)
  double compute_s = 0.0;  ///< SHAVE busy time / num_shaves (critical path)
  double dma_s = 0.0;      ///< DDR occupancy
  std::int32_t tiles = 0;
  double shave_utilization = 0.0;  ///< busy / (span * num_shaves)
};

/// Result of executing one inference on the simulated chip.
struct InferenceProfile {
  std::vector<LayerProfile> layers;
  double total_s = 0.0;        ///< end-to-end on-chip execution time
  double energy_j = 0.0;       ///< integrated over the power islands
  double avg_power_w = 0.0;    ///< energy / total
  std::uint64_t sim_events = 0;
};

/// The chip simulator. Stateless between executions apart from the
/// configuration; safe to share across threads with external locking.
class Myriad2 {
 public:
  explicit Myriad2(const MyriadConfig& config = {});

  const MyriadConfig& config() const noexcept { return config_; }

  /// Execute one inference of `graph` (batch 1) and return the profile.
  /// Always simulates (shared_profile is the memoized entry point).
  /// Throws std::invalid_argument on empty graphs.
  InferenceProfile execute(const graphc::CompiledGraph& graph) const;

  /// Peak MAC/s of the SHAVE array at a precision.
  double peak_macs_per_s(graphc::Precision precision) const noexcept;

  /// Efficiency factor used for a layer kind.
  double efficiency(nn::LayerKind kind) const noexcept;

 private:
  MyriadConfig config_;
};

/// The profile Myriad2(config).execute(graph) returns, simulated once per
/// distinct (graph content, config) and shared afterwards. The profile is
/// a pure function of the graph's precision, the LayerCost fields the
/// simulation reads (kind, name, macs, in/out/weight bytes, tiles,
/// fits_cmx) and the config, so that is the key; net_name is not part of
/// it. Thread-safe; misses simulate outside the lock. The memo is
/// process-wide and bounded (least recently used entries are dropped).
/// Counts myriad.profile_cache.hits / .misses. Throws what execute throws.
std::shared_ptr<const InferenceProfile> shared_profile(
    const graphc::CompiledGraph& graph, const MyriadConfig& config = {});

/// Thermal-design power constants the paper quotes (Section V).
struct TdpConstants {
  static constexpr double kMyriad2ChipW = 0.9;  ///< Myriad 2 TDP
  static constexpr double kNcsStickW = 2.5;     ///< NCS peak consumption
  static constexpr double kXeonE52609v2W = 80.0;
  static constexpr double kQuadroK4000W = 80.0;
};

}  // namespace ncsw::myriad
