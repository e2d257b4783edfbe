// Simulation host behind the mvnc API: owns the USB topology and the
// simulated sticks, and provides the C++-side extensions the benchmark
// harnesses need (functional networks, virtual-time control, tickets).
//
// A real NCSDK discovers sticks from the kernel's USB enumeration; here
// the test/benchmark configures the host explicitly, then the mvnc calls
// behave exactly like the paper's Listing 1.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "check/protocol.h"
#include "mvnc/mvnc.h"
#include "ncs/device.h"
#include "ncs/usb.h"
#include "nn/executor.h"
#include "sim/fault.h"

namespace ncsw::mvnc {

/// Host configuration.
struct HostConfig {
  int devices = 1;
  /// Stick parameters (chip calibration, FIFO depth, gaps).
  ncs::NcsConfig ncs;
  /// Topology builder selector.
  enum class Topology { kPaperTestbed, kSingleHubUsb3, kSingleHubUsb2, kAllDirect } topology =
      Topology::kPaperTestbed;
  /// Optional heterogeneity: stick `degraded_device` (when >= 0) runs its
  /// chip at clock / `degraded_factor` — a stick hard-throttled in a hot
  /// enclosure, or an older silicon revision. Used by the scheduler
  /// ablation.
  int degraded_device = -1;
  double degraded_factor = 2.0;
  /// Scripted fault windows keyed to the simulated clock (transient USB
  /// errors and stalls, busy storms, result stalls, forced throttling,
  /// detach/reattach). Empty by default: fault-free behaviour is
  /// byte-identical to a host without fault injection.
  sim::FaultPlan faults;
  /// NCAPI protocol verifier mode (see check/protocol.h): kOff disables
  /// checking entirely (byte-identical output), kLog records violations
  /// into check.violation.* counters and trace instants, kStrict
  /// additionally throws check::ProtocolViolation at the offending call.
  /// kDefault resolves through check::set_default_mode() / $NCSW_CHECK.
  check::CheckMode check = check::CheckMode::kDefault;
};

/// (Re)initialise the global simulated host. Any previously returned
/// device/graph handle becomes invalid (calls on them return MVNC_GONE).
void host_reset(const HostConfig& config);

/// Monotonic counter bumped by every host_reset. A holder of device or
/// graph handles records the generation at setup and must stop using —
/// including closing/deallocating — its handles once it changes: the
/// addresses may since have been reused by another host's handles.
std::uint64_t host_generation();

/// Current number of simulated sticks (0 when the host was never set up).
int host_device_count();

/// Access the underlying topology for utilisation reporting (throws when
/// the host is not configured).
ncs::UsbTopology& host_topology();

/// Attach a functional network to a graph handle: subsequent
/// payload-carrying mvncLoadTensor calls will actually run `graph` with
/// `weights` on the FP16 payload and GetResult returns real class
/// probabilities (load_tensor_timed never runs it). Both pointers must
/// outlive the graph handle. Pass nullptrs to detach. Returns false on a
/// bad handle or when the functional graph's input size does not match
/// the compiled graph.
bool set_functional_network(void* graphHandle, const nn::Graph* graph,
                            const nn::WeightsH* weights);

/// mvncLoadTensor without a payload, for callers that measure timing
/// only: the inference is queued and the stick's timeline advances
/// exactly as for mvncLoadTensor (same BUSY/ERROR/GONE results, call
/// counter, LoadTensor trace span and verifier checks), but no input is
/// read and no functional network runs, so the matching mvncGetResult
/// returns zeros. Returns MVNC_INVALID_PARAMETERS on a bad or stale
/// handle.
mvncStatus load_tensor_timed(void* graphHandle, void* userParam);

/// Ticket (simulated timing) of the most recent GetResult on the handle.
std::optional<ncs::InferenceTicket> last_ticket(void* graphHandle);

/// Advance the handle's host-time cursor to at least `t` (used by the
/// multi-VPU runner to model thread spawn staggering).
bool set_host_time(void* graphHandle, double t);

/// mvncAllocateGraph with an explicit host-side epoch: the blob transfer
/// chains on max(host_time_s, the device's allocation cursor) instead of
/// the cursor alone. Used by graph-swapping callers (core::StickFleet)
/// so a swap allocated after inferences ran lands *after* them on the
/// device timeline — the allocation cursor only advances on allocations
/// and would otherwise time-travel the swap behind retired work.
mvncStatus allocate_graph_at(void* deviceHandle, void** graphHandle,
                             const void* graphFile,
                             unsigned int graphFileLength,
                             double host_time_s);

/// Current host-time cursor of the handle (simulated seconds).
std::optional<double> host_time(void* graphHandle);

/// Override the inter-op host gap for this handle (thread management
/// cost between successive inferences; see NcsConfig::inter_op_gap_s).
bool set_inter_op_gap(void* graphHandle, double gap_s);

/// Watchdog budget for mvncGetResult on this handle (simulated seconds):
/// when the result would land later than `timeout_s` after the call,
/// GetResult returns MVNC_TIMEOUT instead of blocking and the inference
/// stays queued for a later retry. Default: infinity (block forever, the
/// NCSDK behaviour). Returns false on a bad handle or negative timeout.
bool set_watchdog(void* graphHandle, double timeout_s);

/// Hot-replug a stick that a scripted detach window took off the bus:
/// once the window has passed at simulated time `t`, the stick
/// re-enumerates and its firmware boots again. Returns the ready time,
/// or nullopt while the stick is still detached (or was never detached /
/// was permanently unplugged). The device handle stays valid; graph
/// handles on the stick are stale and must be re-allocated.
std::optional<double> replug_device(void* deviceHandle, double t);

/// The underlying simulated device of a device handle (nullptr on a bad
/// handle) — for tests and power accounting.
ncs::NcsDevice* device_of(void* deviceHandle);

/// The underlying device of a *graph* handle (nullptr on a bad handle).
ncs::NcsDevice* graph_device(void* graphHandle);

/// Results retrievable on the handle right now: inferences issued with
/// LoadTensor whose GetResult has not happened yet. -1 on a bad handle.
/// To drain, call drain_results rather than probing GetResult until it
/// fails — a GetResult with nothing outstanding is a protocol violation.
int pending_results(void* graphHandle);

/// Retrieve and discard every queued result on the handle, as the
/// drain-before-deallocate lifecycle requires: one mvncGetResult per
/// pending_results entry, stopping at the first non-OK status (a
/// detached stick's queue died with it). Issues no GetResult when
/// nothing is pending. Returns the number retrieved; 0 on a bad or stale
/// handle.
int drain_results(void* graphHandle);

}  // namespace ncsw::mvnc
