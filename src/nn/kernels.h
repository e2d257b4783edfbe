// Layer kernels, templated over precision. The FP32 instantiation is the
// "Caffe-MKL" functional path; the FP16 instantiation is the Myriad-2
// path (FP16 storage, FP32 accumulation where a hardware MAC pipeline
// would keep a wide accumulator, per-element rounding on write-back).
//
// The kernels are cache-tuned and optionally threaded (docs/
// performance.md): convolution splits its GEMM by output column range,
// the pools / LRN / ReLU split by (batch, channel) slabs, and every
// split writes a disjoint output region with the same per-element
// arithmetic as the serial path — so results are bit-identical across
// thread counts, and identical to the pre-PR scalar kernels (kept
// reachable through ExecCtx::reference for A/B benching and the golden
// tests). A layer is split only into chunks that each carry a fixed
// minimum of work; smaller layers run on the calling thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "nn/graph.h"
#include "nn/quant.h"
#include "nn/weights.h"
#include "tensor/gemm.h"
#include "tensor/tensor.h"
#include "util/thread_pool.h"

namespace ncsw::nn::kernels {

using tensor::Tensor;

/// Reusable scratch arenas for the kernel hot loop. Buffers grow to the
/// high-water mark of the layers they serve and are never shrunk, so a
/// forward pass allocates at most once per arena instead of once per
/// layer. Not thread-safe: one Workspace per concurrent forward pass
/// (slabs() hands disjoint slices to the pool workers of a single call).
class Workspace {
 public:
  /// FP32 im2col panel of `count` elements.
  float* col(std::int64_t count) { return grow(col_, count); }

  /// FP32 expansion of an FP16 activation tensor (conv/LRN inputs).
  float* acts(std::int64_t count) { return grow(acts_, count); }

  /// FP32 accumulator image of an FP16 output before rounding.
  float* out(std::int64_t count) { return grow(out_, count); }

  /// Base of `count` disjoint per-task slices of `per_task` floats each;
  /// task t uses [base + t*per_task, base + (t+1)*per_task). Call before
  /// fanning out: chunk t of a fan-out runs on exactly one thread, so
  /// slice t is never shared.
  float* slabs(int count, std::int64_t per_task) {
    return grow(slabs_, static_cast<std::int64_t>(count) * per_task);
  }

  /// FP32 bias panel (fast tier: FP16 biases expanded once per call).
  float* bias(std::int64_t count) { return grow(bias_, count); }

  /// int8 buffer for the fast tier's dynamic activation quantization.
  std::int8_t* qbuf(std::int64_t count) {
    const auto need = static_cast<std::size_t>(count);
    if (q_.size() < need) q_.resize(need);
    return q_.data();
  }

  /// int32 accumulator buffer for the int8 GEMV output.
  std::int32_t* ibuf(std::int64_t count) {
    const auto need = static_cast<std::size_t>(count);
    if (i_.size() < need) i_.resize(need);
    return i_.data();
  }

  /// FP32 expansion panels for the FP16 GEMM/GEMV.
  tensor::GemmScratch& gemm() noexcept { return gemm_; }

  /// Bytes reserved across all arenas (monotonically non-decreasing).
  std::size_t capacity_bytes() const noexcept {
    return (col_.capacity() + acts_.capacity() + out_.capacity() +
            slabs_.capacity() + bias_.capacity()) *
               sizeof(float) +
           q_.capacity() * sizeof(std::int8_t) +
           i_.capacity() * sizeof(std::int32_t) + gemm_.capacity_bytes();
  }

 private:
  static float* grow(std::vector<float>& v, std::int64_t count) {
    const auto need = static_cast<std::size_t>(count);
    if (v.size() < need) v.resize(need);
    return v.data();
  }

  std::vector<float> col_, acts_, out_, slabs_, bias_;
  std::vector<std::int8_t> q_;
  std::vector<std::int32_t> i_;
  tensor::GemmScratch gemm_;
};

/// Minimum work per chunk of a threaded kernel, in the scalar operations
/// each kernel counts per item it splits (multiply-adds for a GEMM
/// column, window taps for a pooled plane, elements for an element-wise
/// pass). A chunk below it costs more to hand to a pool worker than it
/// saves, so the kernel splits into fewer chunks, or runs on the caller
/// alone. A fixed constant calibrated from the per-layer t1/tN wall
/// times of bench/perf_forward (docs/performance.md): with a floor of
/// 2^16 the functional TinyGoogLeNet's largest convolutions ran slower
/// threaded, with 2^18 they gained nothing, and at this value all of
/// its layers run on the calling thread.
inline constexpr std::int64_t kMinChunkWork = std::int64_t{1} << 20;

/// Per-call execution context the executor threads through the kernels.
/// The default ({}) is the serial optimised path with a transient
/// workspace.
struct ExecCtx {
  /// Scratch arenas; nullptr makes each kernel use a call-local one.
  Workspace* ws = nullptr;
  /// Pool for the slab fan-out; nullptr (or threads <= 1) runs serial.
  util::ThreadPool* pool = nullptr;
  /// Most slabs a parallel kernel splits its work into (the caller plus
  /// threads - 1 pool helpers); fewer when a slab would fall below the
  /// per-chunk work floor.
  int threads = 1;
  /// Route GEMMs and element loops through the pre-PR scalar kernels
  /// (serial, per-layer allocation) — the recorded perf baseline.
  bool reference = false;
  /// Opt-in fast tier (docs/performance.md): fused conv+bias+ReLU,
  /// direct 3x3/1x1 convolution, int8 fully-connected layers, sqrt-based
  /// LRN and a CPU-pinned pool. Forfeits bit-identity with
  /// the reference path (still deterministic across thread counts);
  /// validated by the digest-tolerance tests. Off by default.
  bool fast = false;
  /// Graph-load-time fast-tier weights (FP32 panels + per-channel int8);
  /// nullptr makes the fast kernels expand weights per call and keep the
  /// fully-connected layers in FP32.
  const QuantizedWeights* quant = nullptr;
};

/// The process-wide pool the kernels fan out on, created on first use
/// with one worker per allowed CPU (util::allowed_cpu_count()).
util::ThreadPool& compute_pool();

/// The fast tier's pool: the same size, with each worker pinned to one
/// allowed CPU so it does not migrate between cores. Created on first
/// use.
util::ThreadPool& fast_pool();

/// 2-D convolution via im2col + GEMM. `out` is resized to the batched
/// output shape.
template <typename T>
void conv2d(const Tensor<T>& in, const LayerParams<T>& params,
            const ConvParams& p, Tensor<T>& out, const ExecCtx& ctx = {});

/// In-place ReLU.
template <typename T>
void relu(Tensor<T>& x, const ExecCtx& ctx = {});

/// Max pooling (Caffe semantics: padded cells never win; ceil_mode sizes).
template <typename T>
void max_pool(const Tensor<T>& in, const PoolParams& p, Tensor<T>& out,
              const ExecCtx& ctx = {});

/// Average pooling. Matches Caffe: the divisor is the full window size
/// including padding cells (AVE pooling with pad counts zeros).
template <typename T>
void avg_pool(const Tensor<T>& in, const PoolParams& p, Tensor<T>& out,
              const ExecCtx& ctx = {});

/// Across-channel LRN. Accumulation in FP32 for both precisions.
template <typename T>
void lrn(const Tensor<T>& in, const LRNParams& p, Tensor<T>& out,
         const ExecCtx& ctx = {});

/// Channel concatenation. Inputs must agree on n/h/w.
template <typename T>
void concat(const std::vector<const Tensor<T>*>& ins, Tensor<T>& out);

/// Fully connected: out[n, f] = sum_i w[f, i] * in[n, i] + b[f].
/// Runs as a GEMV per batch item (bit-identical to the n = 1 GEMM it
/// replaced).
template <typename T>
void fully_connected(const Tensor<T>& in, const LayerParams<T>& params,
                     const FCParams& p, Tensor<T>& out,
                     const ExecCtx& ctx = {});

/// Channel-wise softmax (numerically stabilised; always computed in FP32).
template <typename T>
void softmax(const Tensor<T>& in, Tensor<T>& out);

// --- fast tier -------------------------------------------------------------

/// Fast-tier convolution: direct (im2col-free) specialisations for 3x3
/// and stride-1 1x1 kernels, im2col+GEMM otherwise; FP32 accumulation
/// with bias (and, when `fuse_relu`, the ReLU) applied before the single
/// round to T — no intermediate activation round-trip. `fl` supplies the
/// graph-load-time FP32 weight panel (nullptr expands per call). Not
/// bit-identical to conv2d; deterministic across thread counts.
template <typename T>
void conv2d_fast(const Tensor<T>& in, const LayerParams<T>& params,
                 const FastLayer* fl, const ConvParams& p, bool fuse_relu,
                 Tensor<T>& out, const ExecCtx& ctx = {});

/// Fast-tier fully connected on per-channel int8 weights: the activation
/// is quantized dynamically (per-tensor symmetric scale), the GEMV
/// accumulates in int32, and y[f] = scale_x*scale_w[f]*acc + b[f] (+
/// optional fused ReLU) rounds once to T. Falls back to the FP32
/// fully_connected when `fl` is nullptr.
template <typename T>
void fully_connected_fast(const Tensor<T>& in, const LayerParams<T>& params,
                          const FastLayer* fl, const FCParams& p,
                          bool fuse_relu, Tensor<T>& out,
                          const ExecCtx& ctx = {});

}  // namespace ncsw::nn::kernels
