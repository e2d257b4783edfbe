#include "nn/executor.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <string_view>

#include "util/thread_pool.h"
#include "util/trace.h"

namespace ncsw::nn {

namespace {

// Number of consumers per layer, to free activations eagerly.
std::vector<int> consumer_counts(const Graph& graph) {
  std::vector<int> counts(static_cast<std::size_t>(graph.size()), 0);
  for (const Layer& l : graph.layers()) {
    for (int in : l.inputs) ++counts[static_cast<std::size_t>(in)];
  }
  // The final layer's activation is always "consumed" by the caller.
  counts[static_cast<std::size_t>(graph.output_id())] += 1;
  return counts;
}

}  // namespace

int resolve_threads(int requested) noexcept {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("NCSW_THREADS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v > 0) return static_cast<int>(v);
  }
  return static_cast<int>(util::allowed_cpu_count());
}

bool resolve_fast(bool requested) noexcept {
  if (requested) return true;
  const char* env = std::getenv("NCSW_FAST");
  if (!env) return false;
  const std::string_view v(env);
  return v == "1" || v == "true" || v == "on";
}

namespace {

// One workspace per executing thread: the scratch arenas grow to the
// largest layer on first use and are reused by every later pass.
kernels::Workspace& thread_workspace() {
  thread_local kernels::Workspace workspace;
  return workspace;
}

// The layer walk of one forward pass over a validated graph, on the
// calling thread's workspace.
template <typename T>
ExecResult<T> forward_pass(const Graph& graph, const Weights<T>& weights,
                           const tensor::Tensor<T>& input,
                           const ExecOptions& options, kernels::ExecCtx ctx) {
  ctx.ws = &thread_workspace();
  std::vector<tensor::Tensor<T>> acts(static_cast<std::size_t>(graph.size()));
  std::vector<int> remaining = consumer_counts(graph);
  acts[0] = input;

  // Fast-tier fusion plan: a ReLU whose sole consumer relationship is
  // with a preceding Conv (or int8-quantized FC) executes inside that
  // layer's epilogue; the ReLU layer itself becomes a move. Skipped
  // under keep_all_activations, where per-layer activations must keep
  // their unfused meaning.
  std::vector<std::uint8_t> fuse_relu_out(static_cast<std::size_t>(graph.size()), 0);
  std::vector<std::uint8_t> fused_away(static_cast<std::size_t>(graph.size()), 0);
  if (ctx.fast && !options.keep_all_activations) {
    for (int id = 1; id < graph.size(); ++id) {
      const Layer& l = graph.layer(id);
      if (l.kind != LayerKind::kReLU) continue;
      const int src_id = l.inputs[0];
      const Layer& sl = graph.layer(src_id);
      const bool fusable_src =
          sl.kind == LayerKind::kConv ||
          (sl.kind == LayerKind::kFC && ctx.quant &&
           ctx.quant->find(sl.name) != nullptr);
      if (fusable_src && remaining[static_cast<std::size_t>(src_id)] == 1) {
        fuse_relu_out[static_cast<std::size_t>(src_id)] = 1;
        fused_away[static_cast<std::size_t>(id)] = 1;
      }
    }
  }

  auto release = [&](int id) {
    if (options.keep_all_activations) return;
    auto& r = remaining[static_cast<std::size_t>(id)];
    if (--r == 0 && id != graph.output_id()) {
      acts[static_cast<std::size_t>(id)] = tensor::Tensor<T>{};
    }
  };

  ExecResult<T> result;
  using Clock = std::chrono::steady_clock;
  const bool profile = options.profile_layers;
  Clock::time_point pass_start{};
  if (profile) {
    result.layer_seconds.assign(static_cast<std::size_t>(graph.size()), 0.0);
    pass_start = Clock::now();
  }

  for (int id = 1; id < graph.size(); ++id) {
    const Layer& l = graph.layer(id);
    const tensor::Tensor<T>& src = acts[static_cast<std::size_t>(l.inputs[0])];
    tensor::Tensor<T>& dst = acts[static_cast<std::size_t>(id)];
    const Clock::time_point t0 = profile ? Clock::now() : Clock::time_point{};
    switch (l.kind) {
      case LayerKind::kInput:
        throw std::logic_error("run_forward: unexpected input layer");
      case LayerKind::kConv:
        if (ctx.fast) {
          kernels::conv2d_fast(
              src, weights.at(l.name),
              ctx.quant ? ctx.quant->find(l.name) : nullptr, l.conv,
              fuse_relu_out[static_cast<std::size_t>(id)] != 0, dst, ctx);
        } else {
          kernels::conv2d(src, weights.at(l.name), l.conv, dst, ctx);
        }
        break;
      case LayerKind::kReLU:
        if (fused_away[static_cast<std::size_t>(id)]) {
          // Already applied in the producing layer's epilogue.
          dst = std::move(acts[static_cast<std::size_t>(l.inputs[0])]);
        } else {
          dst = src;
          kernels::relu(dst, ctx);
        }
        break;
      case LayerKind::kMaxPool:
        kernels::max_pool(src, l.pool, dst, ctx);
        break;
      case LayerKind::kAvgPool:
        kernels::avg_pool(src, l.pool, dst, ctx);
        break;
      case LayerKind::kLRN:
        kernels::lrn(src, l.lrn, dst, ctx);
        break;
      case LayerKind::kConcat: {
        std::vector<const tensor::Tensor<T>*> ins;
        ins.reserve(l.inputs.size());
        for (int in : l.inputs) {
          ins.push_back(&acts[static_cast<std::size_t>(in)]);
        }
        kernels::concat(ins, dst);
        break;
      }
      case LayerKind::kFC:
        if (ctx.fast) {
          kernels::fully_connected_fast(
              src, weights.at(l.name),
              ctx.quant ? ctx.quant->find(l.name) : nullptr, l.fc,
              fuse_relu_out[static_cast<std::size_t>(id)] != 0, dst, ctx);
        } else {
          kernels::fully_connected(src, weights.at(l.name), l.fc, dst, ctx);
        }
        break;
      case LayerKind::kSoftmax:
        kernels::softmax(src, dst);
        break;
      case LayerKind::kDropout:
        dst = src;  // inference-time dropout is the identity
        break;
    }
    if (profile) {
      const Clock::time_point t1 = Clock::now();
      const double dt = std::chrono::duration<double>(t1 - t0).count();
      result.layer_seconds[static_cast<std::size_t>(id)] = dt;
      // Wall-clock spans live in their own "host" category/lane so they
      // never mix with the simulated-clock device timelines.
      util::Tracer& tr = util::tracer();
      if (tr.enabled()) {
        const double s0 = std::chrono::duration<double>(t0 - pass_start).count();
        tr.complete("host", l.name, tr.lane("host compute"), s0, s0 + dt,
                    {util::TraceArg::str("kind", layer_kind_name(l.kind)),
                     util::TraceArg::num("threads",
                                         static_cast<std::int64_t>(ctx.threads))});
      }
    }
    // Sanity: computed shape must match the inferred one.
    const Shape want = l.out_shape.with_batch(input.shape().n);
    if (dst.shape() != want) {
      throw std::logic_error("run_forward: layer '" + l.name +
                             "' produced " + dst.shape().to_string() +
                             ", inferred " + want.to_string());
    }
    for (int in : l.inputs) release(in);
  }

  result.output = std::move(acts[static_cast<std::size_t>(graph.output_id())]);
  if (options.keep_all_activations) {
    result.activations = std::move(acts);
    // Restore the moved-out output slot for consistency.
    result.activations[static_cast<std::size_t>(graph.output_id())] =
        result.output;
  }
  return result;
}

}  // namespace

template <typename T>
ExecResult<T> run_forward(const Graph& graph, const Weights<T>& weights,
                          const tensor::Tensor<T>& input,
                          const ExecOptions& options) {
  graph.validate();
  check_weights(graph, weights);
  const Shape item = graph.layer(graph.input_id()).out_shape;
  const std::int64_t batch = input.shape().n;
  const Shape expected = item.with_batch(batch);
  if (input.shape() != expected) {
    throw std::invalid_argument("run_forward: input shape " +
                                input.shape().to_string() + ", expected " +
                                expected.to_string());
  }

  kernels::ExecCtx ctx;
  ctx.reference = options.reference_kernels;
  ctx.threads =
      options.reference_kernels ? 1 : resolve_threads(options.threads);
  ctx.fast = !options.reference_kernels && resolve_fast(options.fast);
  ctx.quant = ctx.fast ? options.quant : nullptr;
  ctx.pool = ctx.threads > 1
                 ? (ctx.fast ? &kernels::fast_pool() : &kernels::compute_pool())
                 : nullptr;

  // Image-level parallelism: a batch is split into one contiguous
  // sub-batch per thread, each run with serial kernels. Every kernel
  // computes each batch item on its own (the fast tier's int8 FC
  // quantizes activations per item too), so the bytes equal one pass
  // over the whole batch. Passes that keep every activation or profile
  // each layer stay whole, so their per-layer results describe the
  // whole batch.
  const std::int64_t parts =
      ctx.pool && !options.keep_all_activations && !options.profile_layers
          ? std::min<std::int64_t>(batch, ctx.threads)
          : 1;
  if (parts <= 1) return forward_pass(graph, weights, input, options, ctx);

  kernels::ExecCtx serial = ctx;
  serial.pool = nullptr;
  serial.threads = 1;
  ExecResult<T> result;
  result.output.resize(
      graph.layer(graph.output_id()).out_shape.with_batch(batch));
  ctx.pool->parallel_for(static_cast<std::size_t>(parts), [&](std::size_t i) {
    const auto part = static_cast<std::int64_t>(i);
    const std::int64_t b0 = batch * part / parts;
    const std::int64_t b1 = batch * (part + 1) / parts;
    tensor::Tensor<T> sub(item.with_batch(b1 - b0));
    std::copy(input.batch_ptr(b0), input.batch_ptr(b0) + sub.numel(),
              sub.data());
    const auto r = forward_pass(graph, weights, sub, options, serial);
    std::copy(r.output.data(), r.output.data() + r.output.numel(),
              result.output.batch_ptr(b0));
  });
  return result;
}

template <typename T>
std::vector<std::vector<float>> run_probabilities(
    const Graph& graph, const Weights<T>& weights,
    const tensor::Tensor<T>& input, const ExecOptions& options) {
  auto result = run_forward(graph, weights, input, options);
  const auto& out = result.output;
  const std::int64_t batch = out.shape().n;
  const std::int64_t dim = out.shape().chw();
  std::vector<std::vector<float>> probs(static_cast<std::size_t>(batch));
  for (std::int64_t b = 0; b < batch; ++b) {
    auto& row = probs[static_cast<std::size_t>(b)];
    row.resize(static_cast<std::size_t>(dim));
    const T* src = out.batch_ptr(b);
    if constexpr (std::is_same_v<T, float>) {
      std::copy(src, src + dim, row.begin());
    } else {
      ncsw::fp16::half_to_float_span(src, row.data(),
                                     static_cast<std::size_t>(dim));
    }
  }
  return probs;
}

std::vector<int> argmax_per_item(
    const std::vector<std::vector<float>>& probs) {
  std::vector<int> out;
  out.reserve(probs.size());
  for (const auto& row : probs) {
    const auto it = std::max_element(row.begin(), row.end());
    out.push_back(static_cast<int>(it - row.begin()));
  }
  return out;
}

std::vector<std::pair<int, float>> top_k(const std::vector<float>& probs,
                                         int k) {
  std::vector<std::pair<int, float>> items;
  items.reserve(probs.size());
  for (std::size_t i = 0; i < probs.size(); ++i) {
    items.emplace_back(static_cast<int>(i), probs[i]);
  }
  const std::size_t kk = std::min<std::size_t>(static_cast<std::size_t>(std::max(k, 0)), items.size());
  std::partial_sort(items.begin(), items.begin() + static_cast<std::ptrdiff_t>(kk),
                    items.end(), [](const auto& a, const auto& b) {
                      if (a.second != b.second) return a.second > b.second;
                      return a.first < b.first;
                    });
  items.resize(kk);
  return items;
}

template ExecResult<float> run_forward<float>(const Graph&,
                                              const Weights<float>&,
                                              const tensor::Tensor<float>&,
                                              const ExecOptions&);
template ExecResult<ncsw::fp16::half> run_forward<ncsw::fp16::half>(
    const Graph&, const Weights<ncsw::fp16::half>&,
    const tensor::Tensor<ncsw::fp16::half>&, const ExecOptions&);
template std::vector<std::vector<float>> run_probabilities<float>(
    const Graph&, const Weights<float>&, const tensor::Tensor<float>&,
    const ExecOptions&);
template std::vector<std::vector<float>> run_probabilities<ncsw::fp16::half>(
    const Graph&, const Weights<ncsw::fp16::half>&,
    const tensor::Tensor<ncsw::fp16::half>&, const ExecOptions&);

}  // namespace ncsw::nn
