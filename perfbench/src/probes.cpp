// Layer probes for the traced run: each times one layer's public function
// directly on the host clock, so its cost is known apart from the
// workloads that call it. Every probe repeats its call and reports the
// median per call.
#include <map>
#include <stdexcept>
#include <string>

#include "bench.h"
#include "core/stick_fleet.h"
#include "core/vpu_target.h"
#include "dataset/synthetic.h"
#include "mvnc/mvnc.h"
#include "myriad/myriad.h"
#include "nn/executor.h"

namespace perfbench {
namespace {

using namespace ncsw;

const char* const kZoo[] = {"googlenet", "alexnet", "squeezenet", "tiny"};

/// Median wall seconds of `call`, repeated at least `min_reps` times and
/// for at least `min_s` seconds.
template <typename F>
double median_call_s(F&& call, int min_reps, double min_s) {
  std::vector<double> samples;
  const double start = wall_now();
  while (static_cast<int>(samples.size()) < min_reps ||
         wall_now() - start < min_s) {
    const double t0 = wall_now();
    call();
    samples.push_back(wall_now() - t0);
  }
  return median(samples);
}

/// myriad.execute_us.<model>: one chip simulation of each zoo graph.
void probe_myriad(std::map<std::string, double>& out) {
  const myriad::Myriad2 chip;
  for (const char* model : kZoo) {
    const auto bundle = core::ModelBundle::zoo_reference(model);
    out[std::string("myriad.execute_us.") + model] =
        1e6 * median_call_s([&] { chip.execute(bundle->compiled_f16); }, 10,
                            0.05);
  }
}

/// core.swap_us: StickFleet::swap_to over the zoo's model pairs.
void probe_swaps(std::map<std::string, double>& out) {
  std::vector<core::ZooModel> zoo;
  for (const char* model : kZoo) {
    zoo.push_back({model, core::ModelBundle::zoo_reference(model)});
  }
  core::StickFleetConfig cfg;
  cfg.devices = 2;
  core::StickFleet fleet(std::move(zoo), cfg);
  double now_s = 0.0;
  int step = 0;
  out["core.swap_us"] = 1e6 * median_call_s(
      [&] {
        // Visit every (from, to) pair: stick d moves to the next model
        // not resident anywhere.
        const int d = step % 2;
        int m = (fleet.resident_model(d) + 1 + step / 2) % fleet.models();
        while (m == fleet.resident_model(0) || m == fleet.resident_model(1)) {
          m = (m + 1) % fleet.models();
        }
        now_s = fleet.swap_to(d, m, now_s);
        ++step;
      },
      24, 0.05);
}

/// mvnc.load_get_us: LoadTensor + GetResult on an allocated GoogLeNet
/// graph on one stick.
void probe_mvnc(std::map<std::string, double>& out) {
  const auto bundle = core::ModelBundle::googlenet_reference();
  core::VpuTargetConfig cfg;
  cfg.devices = 1;
  core::VpuTarget vpu(bundle, cfg);
  void* graph = vpu.graph_handle(0);
  const std::vector<unsigned char> input(
      static_cast<std::size_t>(bundle->compiled_f16.input_bytes()), 0);
  out["mvnc.load_get_us"] = 1e6 * median_call_s(
      [&] {
        void* result = nullptr;
        unsigned int len = 0;
        if (mvnc::mvncLoadTensor(graph, input.data(),
                                 static_cast<unsigned int>(input.size()),
                                 nullptr) != mvnc::MVNC_OK ||
            mvnc::mvncGetResult(graph, &result, &len, nullptr) !=
                mvnc::MVNC_OK) {
          throw std::runtime_error("mvnc probe: LoadTensor/GetResult failed");
        }
      },
      200, 0.05);
}

/// Metric name of a layer kind's wall time (pools share one).
std::string kind_metric(nn::LayerKind kind) {
  switch (kind) {
    case nn::LayerKind::kConv: return "nn.conv_ms";
    case nn::LayerKind::kReLU: return "nn.relu_ms";
    case nn::LayerKind::kMaxPool:
    case nn::LayerKind::kAvgPool: return "nn.pool_ms";
    case nn::LayerKind::kLRN: return "nn.lrn_ms";
    case nn::LayerKind::kConcat: return "nn.concat_ms";
    case nn::LayerKind::kFC: return "nn.fc_ms";
    case nn::LayerKind::kSoftmax: return "nn.softmax_ms";
    case nn::LayerKind::kInput:
    case nn::LayerKind::kDropout: break;
  }
  return "nn.other_ms";
}

/// Per-image forward pass of the functional TinyGoogLeNet at batch 8, and
/// its per-layer-kind wall time from ExecOptions::profile_layers.
void probe_nn(int threads, std::map<std::string, double>& out) {
  constexpr int kBatch = 8;
  dataset::DatasetConfig dcfg;
  dcfg.subsets = 1;
  dcfg.images_per_subset = kBatch;
  const dataset::SyntheticImageNet data(dcfg);
  const auto bundle = core::ModelBundle::tiny_functional(data);
  const auto& graph = bundle->graph;
  const tensor::Shape item = graph.layer(graph.input_id()).out_shape;
  tensor::TensorF blob(item.with_batch(kBatch));
  for (int b = 0; b < kBatch; ++b) {
    const auto x =
        data.preprocess(data.sample(0, b).image, static_cast<int>(item.w));
    std::copy(x.data(), x.data() + x.numel(), blob.batch_ptr(b));
  }

  auto forward = [&](int n_threads, std::map<std::string, std::vector<double>>*
                                        kinds) {
    nn::ExecOptions opts;
    opts.threads = n_threads;
    opts.profile_layers = kinds != nullptr;
    const auto res = nn::run_forward(graph, bundle->weights_f32, blob, opts);
    if (!kinds) return;
    std::map<std::string, double> sum;
    for (int id = 0; id < graph.size(); ++id) {
      sum[kind_metric(graph.layer(id).kind)] +=
          res.layer_seconds[static_cast<std::size_t>(id)];
    }
    for (const auto& [name, s] : sum) (*kinds)[name].push_back(s);
  };
  forward(threads, nullptr);  // warm the thread pool and workspaces
  out["nn.forward_ms"] =
      1e3 / kBatch *
      median_call_s([&] { forward(threads, nullptr); }, 20, 0.1);
  out["nn.forward_t1_ms"] =
      1e3 / kBatch * median_call_s([&] { forward(1, nullptr); }, 20, 0.1);
  std::map<std::string, std::vector<double>> kinds;
  for (int i = 0; i < 20; ++i) forward(threads, &kinds);
  for (const auto& [name, samples] : kinds) {
    out[name] = 1e3 / kBatch * median(samples);
  }
}

}  // namespace

std::map<std::string, double> run_probes(int threads) {
  std::map<std::string, double> out;
  probe_myriad(out);
  probe_swaps(out);
  probe_mvnc(out);
  probe_nn(threads, out);
  return out;
}

}  // namespace perfbench
