// Per-stick health state machine for the self-healing multi-VPU runtime.
//
// The runner tracks each stick through
//
//     kHealthy --transient failure--> kSuspect --retries exhausted or
//         MVNC_GONE--> kQuarantined --probe succeeds--> kRecovered
//         --streak of clean inferences--> kHealthy
//
// with kQuarantined --max_probes exhausted--> kDead as the terminal state
// (a permanently unplugged stick). All waiting happens on the simulated
// clock: retry/probe delays follow a capped exponential backoff whose
// jitter is a pure hash of (device, attempt), so a given fault plan
// always produces the same recovery timeline.
#pragma once

#include <cstdint>
#include <limits>

namespace ncsw::core {

/// Where a stick sits in the recovery ladder.
enum class HealthState : int {
  kHealthy = 0,      ///< full member of the schedule
  kSuspect = 1,      ///< recent transient failure; still scheduled
  kQuarantined = 2,  ///< out of the schedule; probed with backoff
  kRecovered = 3,    ///< probed back in; on probation until a clean streak
  kDead = 4,         ///< probes exhausted; never scheduled again
};

/// Stable lowercase name ("healthy", "suspect", ...).
const char* health_state_name(HealthState s);

/// Retry / backoff / quarantine policy knobs.
struct HealthPolicy {
  /// Consecutive transient failures (MVNC_BUSY / MVNC_ERROR /
  /// MVNC_TIMEOUT) tolerated on one op before the stick is quarantined.
  int max_retries = 3;
  /// Backoff before retry k (0-based) is
  ///   min(backoff_initial_s * backoff_multiplier^k, backoff_max_s)
  /// stretched by a deterministic jitter in
  /// [1 - backoff_jitter_frac, 1 + backoff_jitter_frac).
  double backoff_initial_s = 0.010;
  double backoff_multiplier = 2.0;
  double backoff_max_s = 1.0;
  double backoff_jitter_frac = 0.10;
  /// Probes of a quarantined stick before declaring it dead.
  int max_probes = 20;
  /// Watchdog budget handed to mvncGetResult (simulated seconds).
  /// Infinite by default — the NCSDK blocks forever, and a finite default
  /// would perturb fault-free timing on slow graphs.
  double watchdog_s = std::numeric_limits<double>::infinity();
  /// Clean inferences a kRecovered stick must complete to be kHealthy.
  int recovery_successes = 3;
};

/// Health record of one stick. Pure bookkeeping: the runner performs the
/// mvnc calls and reports outcomes; this class decides state transitions
/// and deterministic wait times.
class StickHealth {
 public:
  StickHealth(int device, const HealthPolicy& policy);

  int device() const noexcept { return device_; }
  const HealthPolicy& policy() const noexcept { return policy_; }
  HealthState state() const noexcept { return state_; }
  /// True when the scheduler may assign images to this stick.
  bool schedulable() const noexcept {
    return state_ == HealthState::kHealthy ||
           state_ == HealthState::kSuspect ||
           state_ == HealthState::kRecovered;
  }
  /// Earliest simulated time the next quarantine probe may run.
  double next_probe_time() const noexcept { return next_probe_time_; }
  /// True when recovery requires a bus-level replug + graph re-allocation
  /// (the stick went MVNC_GONE) rather than a plain re-admission.
  bool needs_replug() const noexcept { return needs_replug_; }
  /// When the current quarantine began (meaningful while kQuarantined).
  double quarantined_since() const noexcept { return quarantined_since_; }
  int quarantines() const noexcept { return quarantines_; }
  int probes() const noexcept { return probes_; }

  /// Deterministic jittered backoff before attempt `attempt` (0-based).
  double backoff(int attempt) const;

  /// A scheduled op completed cleanly.
  void on_success();
  /// A retryable failure (BUSY / ERROR / TIMEOUT). Returns the backoff to
  /// wait before retrying; when the failure exhausts max_retries the
  /// stick moves to kQuarantined (check state()) and the returned delay
  /// is the wait until its first probe instead.
  double on_transient_failure(double now);
  /// The stick went MVNC_GONE: immediate quarantine, recovery needs a
  /// replug. Returns the wait until the first probe.
  double on_gone(double now);
  /// A quarantine probe brought the stick back (replug + re-allocation
  /// succeeded, or a trial re-admission was granted): now on probation.
  void on_probe_success();
  /// A quarantine probe failed. Returns the wait until the next probe, or
  /// 0 when probes are exhausted and the stick is now kDead.
  double on_probe_failure(double now);

 private:
  /// Enter quarantine at `now`; returns the wait until the first probe.
  double quarantine(double now);

  const int device_;
  const HealthPolicy policy_;
  HealthState state_ = HealthState::kHealthy;
  int consecutive_failures_ = 0;  ///< on the current op / since last success
  int probation_successes_ = 0;   ///< clean ops while kRecovered
  int probes_ = 0;                ///< probes in the current quarantine
  int quarantines_ = 0;           ///< lifetime quarantine count
  bool needs_replug_ = false;
  double quarantined_since_ = 0.0;
  double next_probe_time_ = 0.0;
};

}  // namespace ncsw::core
