#include "core/stick_fleet.h"

#include <algorithm>
#include <stdexcept>

#include "check/serve_check.h"
#include "core/health.h"
#include "core/vpu_target.h"
#include "devices/calibration.h"
#include "mvnc/mvnc.h"
#include "myriad/myriad.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace ncsw::core {

// ---------------------------------------------------------------- stick

std::string StickTarget::name() const {
  return "Intel Movidius Myriad 2 VPU stick " + std::to_string(id_) +
         " (zoo fleet)";
}

std::string StickTarget::short_name() const {
  return "stick" + std::to_string(id_);
}

double StickTarget::tdp_w(int batch) const {
  (void)batch;
  return myriad::TdpConstants::kNcsStickW;
}

Target::BatchExec StickTarget::execute_batch(std::int64_t images, int batch,
                                             double submit_s, bool aligned) {
  (void)batch;    // max_batch() == 1
  (void)aligned;  // one stick: no cross-stick barrier to align
  if (!graph_ || resident_ < 0) {
    throw std::logic_error("StickTarget: no resident graph");
  }
  mvnc::set_inter_op_gap(graph_, devices::calibration::kVpuSingleGapS);

  // Device-epoch span: the cursor carries boot + allocation history, so
  // only the delta is meaningful — the caller-clock mapping below keeps
  // the epoch out of serving timelines (same idiom as VpuTarget).
  const double t0 = mvnc::host_time(graph_).value_or(0.0);
  TimedRun run;
  run.images = images;
  double last = t0;
  for (std::int64_t i = 0; i < images; ++i) {
    if (mvnc::load_tensor_timed(graph_, nullptr) != mvnc::MVNC_OK) {
      throw std::runtime_error("StickTarget: load_tensor_timed failed");
    }
    void* out = nullptr;
    unsigned int out_len = 0;
    if (mvnc::mvncGetResult(graph_, &out, &out_len, nullptr) !=
        mvnc::MVNC_OK) {
      throw std::runtime_error("StickTarget: mvncGetResult failed");
    }
    const auto ticket = mvnc::last_ticket(graph_);
    if (!ticket) throw std::runtime_error("StickTarget: missing ticket");
    run.per_image_ms.add((ticket->result_ready - ticket->issue) * 1e3);
    last = std::max(last, ticket->result_ready);
  }
  run.seconds = last - t0;

  BatchExec exec;
  exec.start_s = occupy_serial(submit_s, run.seconds);
  exec.complete_s = exec.start_s + run.seconds;
  exec.run = std::move(run);
  return exec;
}

std::vector<Prediction> StickTarget::classify(
    const std::vector<tensor::TensorF>& inputs) {
  if (!graph_ || resident_ < 0) {
    throw std::logic_error("StickTarget: no resident graph");
  }
  if (!fleet_->model(resident_).bundle->functional()) {
    throw std::logic_error("StickTarget::classify: timing-only bundle");
  }
  // The fleet is fault-free, so the shared step's transient retry never
  // fires here; the default policy only gives it a backoff ladder.
  const StickHealth stick(id_, HealthPolicy{});
  std::vector<Prediction> results(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    results[i] = classify_on_stick(graph_, inputs[i], stick);
  }
  return results;
}

// ---------------------------------------------------------------- fleet

StickFleet::StickFleet(std::vector<ZooModel> models, StickFleetConfig config)
    : models_(std::move(models)), config_(config) {
  if (models_.empty()) {
    throw std::invalid_argument("StickFleet: empty model zoo");
  }
  for (const auto& m : models_) {
    if (!m.bundle) throw std::invalid_argument("StickFleet: null bundle");
  }
  if (config_.devices < 1) {
    throw std::invalid_argument("StickFleet: devices < 1");
  }
  open_all();
}

StickFleet::~StickFleet() { close_all(); }

void StickFleet::open_all() {
  mvnc::HostConfig host;
  host.devices = config_.devices;
  host.check = config_.check;
  mvnc::host_reset(host);
  host_generation_ = mvnc::host_generation();

  for (int d = 0; d < config_.devices; ++d) {
    char name[64];
    if (mvnc::mvncGetDeviceName(d, name, sizeof(name)) != mvnc::MVNC_OK) {
      throw std::runtime_error("StickFleet: device enumeration failed");
    }
    void* dev = nullptr;
    if (mvnc::mvncOpenDevice(name, &dev) != mvnc::MVNC_OK) {
      throw std::runtime_error("StickFleet: mvncOpenDevice failed");
    }
    auto stick = std::unique_ptr<StickTarget>(new StickTarget());
    stick->fleet_ = this;
    stick->id_ = d;
    stick->device_ = dev;
    sticks_.push_back(std::move(stick));
  }

  calibrate();

  // Initial residency: model d % M on stick d (the static baseline's
  // pinning; policies diverge from here through swap_to).
  for (int d = 0; d < config_.devices; ++d) {
    const int m = d % models();
    sticks_[d]->graph_ = allocate_on(d, m, 0.0);
    sticks_[d]->resident_ = m;
    ++installs_;
  }
}

void StickFleet::calibrate() {
  // Measure each model's deallocate + allocate cost on stick 0's device
  // clock. Allocations chain on the device's ready cursor, so the delta
  // between two back-to-back allocations of the same blob is exactly
  // one dealloc + alloc round trip — the price a swap pays. The first
  // allocation (which also absorbs the boot wait) is discarded.
  swap_cost_s_.assign(models_.size(), 0.0);
  for (std::size_t m = 0; m < models_.size(); ++m) {
    void* g1 = allocate_on(0, static_cast<int>(m), 0.0);
    const double t1 = mvnc::host_time(g1).value_or(0.0);
    mvnc::mvncDeallocateGraph(g1);
    void* g2 = allocate_on(0, static_cast<int>(m), 0.0);
    const double t2 = mvnc::host_time(g2).value_or(0.0);
    mvnc::mvncDeallocateGraph(g2);
    swap_cost_s_[m] = t2 - t1;
    util::metrics()
        .gauge("core.zoo.swap_cost_s." + models_[m].name)
        .set(swap_cost_s_[m]);
  }
}

void* StickFleet::allocate_on(int d, int m, double epoch_s) {
  void* graph = nullptr;
  const auto& blob = models_.at(m).bundle->graph_blob;
  if (mvnc::allocate_graph_at(sticks_.at(d)->device_, &graph, blob.data(),
                              static_cast<unsigned int>(blob.size()),
                              epoch_s) != mvnc::MVNC_OK) {
    throw std::runtime_error("StickFleet: mvncAllocateGraph failed for " +
                             models_[m].name);
  }
  return graph;
}

double StickFleet::swap_to(int d, int m, double now_s) {
  StickTarget& s = *sticks_.at(d);
  if (m < 0 || m >= models()) {
    throw std::out_of_range("StickFleet::swap_to: bad model index");
  }
  if (s.resident_ == m) return s.occupy_serial(now_s, 0.0);

  const std::string from =
      s.resident_ >= 0 ? models_[s.resident_].name : std::string();
  check::serve_verifier().on_swap_begin(s.short_name(), from,
                                        models_[m].name, s.inflight(),
                                        now_s);
  // Drain-then-deallocate: queued device results at a swap are stale
  // (their tickets were retired or cancelled); retrieving them first
  // keeps the NCAPI verifier's undrained-at-dealloc class quiet on
  // every swap.
  mvnc::drain_results(s.graph_);
  // Carry the stick's device epoch across the swap: a fresh graph would
  // otherwise chain on the device's allocation cursor, which lags the
  // old graph's exec-advanced clock — the swap would time-travel behind
  // retired work on the device lanes (seq inversions and span overlaps
  // in the trace lint).
  const double epoch = mvnc::host_time(s.graph_).value_or(0.0);
  mvnc::mvncDeallocateGraph(s.graph_);
  s.graph_ = nullptr;
  ++evicts_;

  s.graph_ = allocate_on(d, m, epoch);
  const int old = s.resident_;
  s.resident_ = m;
  ++installs_;
  ++swaps_;

  // The swap occupies the stick's serial caller-clock queue for the
  // calibrated cost (the device epoch must not leak into serving time).
  const double start = s.occupy_serial(now_s, swap_cost_s_[m]);
  const double done = start + swap_cost_s_[m];

  util::metrics().counter("core.zoo.swaps").add(1);
  auto& tr = util::tracer();
  if (tr.enabled()) {
    tr.complete("zoo", "swap",
                tr.lane("zoo " + s.short_name()), start, done,
                {util::TraceArg::str("from", old >= 0 ? models_[old].name
                                                      : std::string("-")),
                 util::TraceArg::str("to", models_[m].name)});
  }
  return done;
}

std::int64_t StickFleet::resident_count() const {
  std::int64_t n = 0;
  for (const auto& s : sticks_) {
    if (s->graph_) ++n;
  }
  return n;
}

void StickFleet::close_all() {
  if (mvnc::host_generation() == host_generation_) {
    for (auto& s : sticks_) {
      if (s->graph_) {
        // Same drain-before-deallocate discipline as VpuTarget teardown.
        mvnc::drain_results(s->graph_);
        mvnc::mvncDeallocateGraph(s->graph_);
        ++evicts_;
      }
      if (s->device_) mvnc::mvncCloseDevice(s->device_);
    }
  }
  sticks_.clear();
}

}  // namespace ncsw::core
