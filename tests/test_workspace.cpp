// Workspace reuse, thread-count resolution and the executor-level golden
// guarantee: run_forward output is byte-identical across reference /
// optimised / threaded execution in both precisions.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <string>

#ifdef __linux__
#include <sched.h>
#endif

#include "nn/executor.h"
#include "nn/kernels.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using namespace ncsw::nn;
using ncsw::fp16::half;
using ncsw::tensor::Shape;
using ncsw::tensor::Tensor;
using ncsw::tensor::TensorF;

TensorF random_tensor(const Shape& s, std::uint64_t seed) {
  ncsw::util::Xoshiro256 rng(seed);
  TensorF t(s);
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return t;
}

// A GoogLeNet-in-miniature: conv/relu/LRN/pools/inception-style concat/
// dropout/FC/softmax, so the golden tests cover every kernel the real
// networks use.
Graph tiny_net() {
  Graph g("tiny");
  const int in = g.add_input("data", 3, 16, 16);
  const int c1 = g.add_conv("conv1", in, ConvParams{8, 3, 1, 1});
  const int r1 = g.add_relu("relu1", c1);
  const int n1 = g.add_lrn("norm1", r1, LRNParams{5, 1e-4f, 0.75f, 1.0f});
  const int p1 = g.add_max_pool("pool1", n1, PoolParams{3, 2, 1, true, false});
  const int ia = g.add_conv("inc_a", p1, ConvParams{4, 1, 1, 0});
  const int ib = g.add_conv("inc_b", p1, ConvParams{6, 3, 1, 1});
  const int cat = g.add_concat("concat", {ia, ib});
  const int r2 = g.add_relu("relu2", cat);
  PoolParams gp;
  gp.global = true;
  const int gap = g.add_avg_pool("gap", r2, gp);
  const int drop = g.add_dropout("drop", gap);
  const int fc = g.add_fc("fc", drop, FCParams{10});
  g.add_softmax("prob", fc);
  return g;
}

template <typename T>
void expect_bytes_equal(const Tensor<T>& a, const Tensor<T>& b,
                        const char* what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  ASSERT_EQ(0, std::memcmp(a.data(), b.data(),
                           static_cast<std::size_t>(a.numel()) * sizeof(T)))
      << what;
}

// --- Workspace -------------------------------------------------------------

TEST(Workspace, CapacityGrowsMonotonicallyAcrossHeterogeneousLayers) {
  kernels::Workspace ws;
  EXPECT_EQ(ws.capacity_bytes(), 0u);
  ws.col(1000);
  const std::size_t after_big = ws.capacity_bytes();
  EXPECT_GE(after_big, 1000 * sizeof(float));
  // A smaller request must not shrink anything.
  ws.col(10);
  EXPECT_EQ(ws.capacity_bytes(), after_big);
  ws.acts(500);
  ws.out(200);
  ws.slabs(4, 64);
  ws.gemm().a.resize(128);
  EXPECT_GE(ws.capacity_bytes(),
            after_big + (500 + 200 + 4 * 64 + 128) * sizeof(float));
}

TEST(Workspace, SlabsHandsOutDisjointPerTaskSlices) {
  kernels::Workspace ws;
  float* base = ws.slabs(3, 100);
  for (int t = 0; t < 3; ++t) {
    for (int i = 0; i < 100; ++i) base[t * 100 + i] = static_cast<float>(t);
  }
  for (int t = 0; t < 3; ++t) {
    for (int i = 0; i < 100; ++i) {
      ASSERT_EQ(base[t * 100 + i], static_cast<float>(t));
    }
  }
}

TEST(Workspace, NoStaleDataBleedAcrossLayerShapes) {
  // Run a big conv through a workspace, then a small conv through the
  // same workspace: the small result must match a fresh-workspace run
  // byte for byte (the big layer's leftovers must not leak in).
  const TensorF big_in = random_tensor(Shape{1, 6, 20, 20}, 1);
  LayerParams<float> big_p;
  big_p.w = random_tensor(Shape{8, 6, 5, 5}, 2);
  big_p.b = random_tensor(Shape{1, 8, 1, 1}, 3);
  const TensorF small_in = random_tensor(Shape{1, 2, 5, 5}, 4);
  LayerParams<float> small_p;
  small_p.w = random_tensor(Shape{3, 2, 3, 3}, 5);
  small_p.b = random_tensor(Shape{1, 3, 1, 1}, 6);

  kernels::Workspace shared;
  kernels::ExecCtx shared_ctx;
  shared_ctx.ws = &shared;
  TensorF big_out, reused_out, fresh_out;
  kernels::conv2d(big_in, big_p, ConvParams{8, 5, 1, 2}, big_out, shared_ctx);
  kernels::conv2d(small_in, small_p, ConvParams{3, 3, 1, 1}, reused_out,
                  shared_ctx);
  kernels::conv2d(small_in, small_p, ConvParams{3, 3, 1, 1}, fresh_out);
  expect_bytes_equal(reused_out, fresh_out, "conv2d after big layer");

  // Same check in FP16, which additionally exercises acts/out/gemm arenas.
  const auto big_in_h = ncsw::tensor::tensor_cast<half>(big_in);
  const auto small_in_h = ncsw::tensor::tensor_cast<half>(small_in);
  LayerParams<half> big_ph, small_ph;
  big_ph.w = ncsw::tensor::tensor_cast<half>(big_p.w);
  big_ph.b = ncsw::tensor::tensor_cast<half>(big_p.b);
  small_ph.w = ncsw::tensor::tensor_cast<half>(small_p.w);
  small_ph.b = ncsw::tensor::tensor_cast<half>(small_p.b);
  kernels::Workspace shared_h;
  kernels::ExecCtx shared_h_ctx;
  shared_h_ctx.ws = &shared_h;
  Tensor<half> big_out_h, reused_out_h, fresh_out_h;
  kernels::conv2d(big_in_h, big_ph, ConvParams{8, 5, 1, 2}, big_out_h,
                  shared_h_ctx);
  kernels::conv2d(small_in_h, small_ph, ConvParams{3, 3, 1, 1}, reused_out_h,
                  shared_h_ctx);
  kernels::conv2d(small_in_h, small_ph, ConvParams{3, 3, 1, 1}, fresh_out_h);
  expect_bytes_equal(reused_out_h, fresh_out_h, "fp16 conv2d after big layer");
}

// --- thread-count resolution ----------------------------------------------

TEST(ResolveThreads, ExplicitPositiveWins) {
  setenv("NCSW_THREADS", "7", 1);
  EXPECT_EQ(resolve_threads(3), 3);
  EXPECT_EQ(resolve_threads(1), 1);
  unsetenv("NCSW_THREADS");
}

TEST(ResolveThreads, EnvUsedWhenAuto) {
  setenv("NCSW_THREADS", "5", 1);
  EXPECT_EQ(resolve_threads(0), 5);
  EXPECT_EQ(resolve_threads(-1), 5);
  unsetenv("NCSW_THREADS");
}

TEST(ResolveThreads, BadEnvFallsBackToHardware) {
  for (const char* bad : {"0", "-2", "abc", "3x", ""}) {
    setenv("NCSW_THREADS", bad, 1);
    EXPECT_GE(resolve_threads(0), 1) << "env=" << bad;
    EXPECT_EQ(resolve_threads(0),
              resolve_threads(0));  // stable
  }
  unsetenv("NCSW_THREADS");
  EXPECT_GE(resolve_threads(0), 1);
}

// With $NCSW_THREADS unset, the default and both kernel pools follow the
// CPUs the process may run on (its affinity mask), not the machine's
// hardware thread count.
TEST(ResolveThreads, AutoCountsAllowedCpus) {
  unsetenv("NCSW_THREADS");
  const auto allowed = ncsw::util::allowed_cpu_count();
  EXPECT_GE(allowed, 1u);
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  ASSERT_EQ(sched_getaffinity(0, sizeof(set), &set), 0);
  EXPECT_EQ(allowed, static_cast<std::size_t>(CPU_COUNT(&set)));
#endif
  EXPECT_EQ(resolve_threads(0), static_cast<int>(allowed));
  EXPECT_EQ(kernels::compute_pool().size(), allowed);
  EXPECT_EQ(kernels::fast_pool().size(), allowed);
}

// --- golden: run_forward bit-identical across configurations --------------

template <typename T>
void golden_run_forward_case(const Graph& g, const Weights<T>& w,
                             const Tensor<T>& in) {
  ExecOptions ref;
  ref.reference_kernels = true;
  ref.keep_all_activations = true;
  ExecOptions serial;
  serial.threads = 1;
  serial.keep_all_activations = true;
  // keep_all_activations keeps the batch whole (no image-level split),
  // so the threaded pass here runs the kernels' own fan-out.
  ExecOptions threaded;
  threaded.threads = 4;
  threaded.keep_all_activations = true;

  const auto r_ref = run_forward(g, w, in, ref);
  const auto r_serial = run_forward(g, w, in, serial);
  const auto r_threaded = run_forward(g, w, in, threaded);

  ASSERT_EQ(r_ref.activations.size(), r_serial.activations.size());
  ASSERT_EQ(r_ref.activations.size(), r_threaded.activations.size());
  for (std::size_t i = 0; i < r_ref.activations.size(); ++i) {
    const std::string what = "layer '" + g.layer(static_cast<int>(i)).name +
                             "' (id " + std::to_string(i) + ")";
    expect_bytes_equal(r_serial.activations[i], r_ref.activations[i],
                       what.c_str());
    expect_bytes_equal(r_threaded.activations[i], r_ref.activations[i],
                       what.c_str());
  }
}

TEST(GoldenForward, Fp32BitIdenticalAcrossConfigs) {
  const Graph g = tiny_net();
  const WeightsF w = init_msra(g, 42);
  const TensorF in = random_tensor(Shape{3, 3, 16, 16}, 7);
  golden_run_forward_case<float>(g, w, in);
}

TEST(GoldenForward, Fp16BitIdenticalAcrossConfigs) {
  const Graph g = tiny_net();
  const WeightsH w = to_fp16(init_msra(g, 42));
  const auto in = ncsw::tensor::tensor_cast<half>(
      random_tensor(Shape{3, 3, 16, 16}, 7));
  golden_run_forward_case<half>(g, w, in);
}

template <typename T>
void threads_knob_case(const Graph& g, const Weights<T>& w,
                       const Tensor<T>& in, std::initializer_list<int> counts) {
  ExecOptions base;
  base.threads = 1;
  const auto r1 = run_forward(g, w, in, base);
  for (int t : counts) {
    ExecOptions o;
    o.threads = t;
    const auto rt = run_forward(g, w, in, o);
    expect_bytes_equal(rt.output, r1.output,
                       ("batch=" + std::to_string(in.shape().n) +
                        " threads=" + std::to_string(t))
                           .c_str());
  }
}

TEST(GoldenForward, ThreadsKnobDoesNotChangeOutput) {
  const Graph g = tiny_net();
  const WeightsF w = init_msra(g, 9);
  threads_knob_case<float>(g, w, random_tensor(Shape{2, 3, 16, 16}, 10),
                           {2, 3, 8});
  // Batch 8 splits into min(8, threads) sub-batches of serial passes:
  // uneven (3 threads), one image each (8) and the whole batch (1).
  const TensorF batch8 = random_tensor(Shape{8, 3, 16, 16}, 13);
  threads_knob_case<float>(g, w, batch8, {1, 2, 3, 4, 8});
  threads_knob_case<half>(g, to_fp16(w),
                          ncsw::tensor::tensor_cast<half>(batch8),
                          {1, 2, 3, 4, 8});
}

TEST(GoldenForward, ProfileLayersRecordsPerLayerTimes) {
  const Graph g = tiny_net();
  const WeightsF w = init_msra(g, 11);
  const TensorF in = random_tensor(Shape{1, 3, 16, 16}, 12);
  ExecOptions o;
  o.profile_layers = true;
  const auto r = run_forward(g, w, in, o);
  ASSERT_EQ(r.layer_seconds.size(), static_cast<std::size_t>(g.size()));
  for (int id = 1; id < g.size(); ++id) {
    EXPECT_GE(r.layer_seconds[static_cast<std::size_t>(id)], 0.0);
  }
  // Profiling must not perturb the result.
  const auto plain = run_forward(g, w, in);
  expect_bytes_equal(r.output, plain.output, "profiled output");
}

}  // namespace