// classify-fig7: the paper's Fig. 7a functional classification. One caller
// in a closed loop classifies synthetic dataset images in batches of 8,
// every batch on the CPU target (FP32) and then on the 8-stick VPU target
// (FP16 through mvnc): a request is one image compared on both. No serve
// event loop runs.
//
// Each batch is also submitted to both targets' timing models, the CPU
// first and the VPU when the CPU completes, and the next batch when the
// VPU completes: that is the loop's simulated clock. A request's latency
// runs from its batch's CPU submission to its VPU completion. The CPU
// timing model's jitter stream is drawn from the seed, so the simulated
// figures vary with it. On the VPU the timed submission runs the
// functional FP16 network a second time inside LoadTensor, as the
// simulator does for every graph with weights.
#include <cstring>
#include <memory>
#include <optional>

#include "bench.h"
#include "core/host_target.h"
#include "core/vpu_target.h"
#include "dataset/synthetic.h"
#include "nn/executor.h"
#include "serve_common.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace ncsw;

constexpr int kBatch = 8;
constexpr int kImages = 256;  ///< dataset images per unit
constexpr double kLimitMs = 10.0;  ///< CPU + VPU latency of one batch
/// Rates (img/s) for slo_rate. In a closed loop the offered rate is the
/// completion rate, so a rung is met when it is at or below the loop's
/// simulated goodput (about 2800 img/s for the functional network) and
/// the loop's p99 meets the limit.
const std::vector<double> kLadder = {1000, 1500, 2000, 2250,
                                     2500, 2750, 3000, 3500};

class ClassifyFig7 : public Workload {
 public:
  void setup(std::uint64_t seed, bool short_run) override {
    dataset::DatasetConfig dcfg;
    dcfg.num_classes = 50;
    dcfg.subsets = 1;
    dcfg.images_per_subset = kImages;
    dcfg.seed = util::hash_mix(seed, 0x666967376100ULL);
    auto data = std::make_shared<dataset::SyntheticImageNet>(dcfg);
    nn::TinyGoogLeNetConfig ncfg;
    ncfg.num_classes = data->num_classes();
    bundle_ = core::ModelBundle::tiny_functional(*data, ncfg);
    // The CPU timing model's run-to-run jitter stream is drawn from the
    // seed too, so the simulated figures vary with it like a real host.
    cpu_ = std::make_unique<core::HostTarget>(
        bundle_, devices::make_cpu_model(), "CPU", /*max_batch=*/64,
        util::hash_mix(seed, 0xc0ffeeULL));
    core::VpuTargetConfig vcfg;
    vcfg.devices = kBatch;
    vpu_ = std::make_unique<core::VpuTarget>(bundle_, vcfg);

    const int images = short_run ? 2 * kBatch : kImages;
    batches_.clear();
    labels_.clear();
    for (int i = 0; i < images; ++i) {
      if (i % kBatch == 0) batches_.emplace_back();
      const auto sample = data->sample(0, i);
      batches_.back().push_back(
          data->preprocess(sample.image, ncfg.input_size));
      labels_.push_back(sample.label);
    }
  }

  UnitResult run(SpanRecorder* spans) override {
    std::vector<std::unique_ptr<TimingTarget>> timed;
    std::vector<core::Target*> targets = {cpu_.get(), vpu_.get()};
    if (spans) targets = decorate(targets, *spans, timed);

    UnitResult r;
    std::vector<std::vector<core::Prediction>> preds[2];
    std::vector<double> latency_ms;
    double clock_s = 0.0;  // simulated: the caller's closed loop
    ncsw::util::metrics().reset();
    {
      const double t0 = wall_now();
      SpanRecorder::Scope span(spans, "serve.run");
      for (const auto& batch : batches_) {
        const double batch_submit_s = clock_s;
        for (int t = 0; t < 2; ++t) {
          core::Target& target = *targets[static_cast<std::size_t>(t)];
          const auto n = static_cast<std::int64_t>(batch.size());
          const core::Ticket ticket = target.submit(n, kBatch, clock_s);
          const core::TicketInfo info = target.info(ticket);
          target.wait(ticket);
          clock_s = info.complete_s;
          r.sim.energy_j +=
              target.tdp_w(kBatch) * (info.complete_s - info.start_s);
          r.layers.service_ms.insert(r.layers.service_ms.end(), batch.size(),
                                     (info.complete_s - info.start_s) * 1e3);
          r.layers.queue_wait_ms.insert(r.layers.queue_wait_ms.end(),
                                        batch.size(),
                                        (info.start_s - info.submit_s) * 1e3);
          preds[t].push_back(target.classify(batch));
        }
        latency_ms.insert(latency_ms.end(), batch.size(),
                          (clock_s - batch_submit_s) * 1e3);
      }
      r.run_s = wall_now() - t0;
    }
    r.counters = registry_snapshot();
    add_decorator_obs(timed, r.layers);

    SimOutcome& sim = r.sim;
    sim.offered = static_cast<std::int64_t>(labels_.size());
    sim.completed = static_cast<std::int64_t>(latency_ms.size());
    sim.goodput = clock_s > 0.0 ? static_cast<double>(sim.completed) / clock_s
                                : 0.0;
    sim.set_latency(latency_ms);

    // Fingerprint: every probability bit plus the simulated timeline.
    std::uint64_t h = fnv1a(&clock_s, sizeof(clock_s));
    std::int64_t correct[2] = {0, 0};
    std::int64_t agree = 0;
    for (std::size_t b = 0; b < batches_.size(); ++b) {
      for (std::size_t i = 0; i < batches_[b].size(); ++i) {
        const int label = labels_[b * kBatch + i];
        for (int t = 0; t < 2; ++t) {
          const auto& p = preds[t][b][i];
          h = fnv1a(p.probs.data(), p.probs.size() * sizeof(float), h);
          correct[t] += p.label == label;
        }
        agree += preds[0][b][i].label == preds[1][b][i].label;
      }
    }
    r.fingerprint = strf("%lld/%lld/%lld/%.17g/%.17g/%016llx",
                         static_cast<long long>(correct[0]),
                         static_cast<long long>(correct[1]),
                         static_cast<long long>(agree), sim.p99_ms,
                         sim.energy_j, static_cast<unsigned long long>(h));
    check_outputs(preds, correct, agree, r.errors);
    last_ = sim;
    return r;
  }

  void teardown() override {
    vpu_.reset();
    cpu_.reset();
    bundle_.reset();
    batches_.clear();
    labels_.clear();
  }

  double slo_rate(std::uint64_t seed) override {
    if (!last_) {
      setup(seed, false);
      run(nullptr);
      teardown();
    }
    const double failed =
        1.0 - static_cast<double>(last_->completed) /
                  static_cast<double>(last_->offered);
    if (failed > 0.01 || last_->p99_ms > kLimitMs) return 0.0;
    double best = 0.0;
    for (double rung : kLadder) {
      if (rung <= last_->goodput) best = rung;
    }
    return best;
  }

 private:
  /// Top-1 error and FP16 agreement in the paper's range, and the first
  /// batch's probabilities bit-equal to the scalar reference kernels.
  void check_outputs(const std::vector<std::vector<core::Prediction>> (&preds)[2],
                     const std::int64_t (&correct)[2], std::int64_t agree,
                     std::vector<std::string>& errors) {
    const auto n = static_cast<double>(labels_.size());
    const double cpu_error = 1.0 - static_cast<double>(correct[0]) / n;
    if (cpu_error < 0.15 || cpu_error > 0.50) {
      errors.push_back(strf("classify-fig7: CPU top-1 error %.3f outside "
                            "[0.15, 0.50]", cpu_error));
    }
    if (static_cast<double>(agree) < 0.9 * n) {
      errors.push_back(strf("classify-fig7: CPU/VPU top-1 agree on only "
                            "%lld of %.0f images",
                            static_cast<long long>(agree), n));
    }
    if (reference_checked_) return;
    nn::ExecOptions ref;
    ref.reference_kernels = true;
    const auto& batch = batches_.front();
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const auto f32 = nn::run_forward(bundle_->graph, bundle_->weights_f32,
                                       batch[i], ref);
      const auto f16 = nn::run_forward(
          bundle_->graph, bundle_->weights_f16,
          tensor::tensor_cast<fp16::half>(batch[i]), ref);
      std::vector<float> f16_probs(static_cast<std::size_t>(f16.output.numel()));
      fp16::half_to_float_span(f16.output.data(), f16_probs.data(),
                               f16_probs.size());
      const auto& cpu = preds[0][0][i].probs;
      const auto& vpu = preds[1][0][i].probs;
      if (cpu.size() != static_cast<std::size_t>(f32.output.numel()) ||
          std::memcmp(cpu.data(), f32.output.data(),
                      cpu.size() * sizeof(float)) != 0) {
        errors.push_back(strf("classify-fig7: CPU probabilities of image %zu "
                              "differ from the FP32 reference kernels", i));
      }
      if (vpu.size() != f16_probs.size() ||
          std::memcmp(vpu.data(), f16_probs.data(),
                      vpu.size() * sizeof(float)) != 0) {
        errors.push_back(strf("classify-fig7: VPU probabilities of image %zu "
                              "differ from the FP16 reference kernels", i));
      }
    }
    reference_checked_ = true;
  }

  std::shared_ptr<const core::ModelBundle> bundle_;
  std::unique_ptr<core::HostTarget> cpu_;
  std::unique_ptr<core::VpuTarget> vpu_;
  std::vector<std::vector<tensor::TensorF>> batches_;
  std::vector<int> labels_;
  std::optional<SimOutcome> last_;
  bool reference_checked_ = false;
};

}  // namespace

std::unique_ptr<Workload> make_classify_fig7() {
  return std::make_unique<ClassifyFig7>();
}

}  // namespace perfbench
