#include "nn/dense.h"

#include <algorithm>
#include <stdexcept>

#include "nn/gemm.h"
#include "support/parallel.h"

namespace milr::nn {

DenseLayer::DenseLayer(std::size_t in_features, std::size_t out_features)
    : in_features_(in_features),
      out_features_(out_features),
      weights_(Shape{in_features, out_features}) {
  if (in_features == 0 || out_features == 0) {
    throw std::invalid_argument("DenseLayer: features must be >= 1");
  }
}

void DenseLayer::CheckInput(const Shape& input) const {
  const bool ok =
      (input.rank() == 1 && input[0] == in_features_) ||
      (input.rank() == 2 && input[1] == in_features_);
  if (!ok) {
    throw std::invalid_argument("DenseLayer(" + std::to_string(in_features_) +
                                "->" + std::to_string(out_features_) +
                                "): incompatible input " + input.ToString());
  }
}

Shape DenseLayer::OutputShape(const Shape& input) const {
  CheckInput(input);
  if (input.rank() == 1) return Shape{out_features_};
  return Shape{input[0], out_features_};
}

Tensor DenseLayer::Forward(const Tensor& input) const {
  return ForwardWith(input, KernelConfig::kExact);
}

void DenseLayer::set_kernel_config(KernelConfig config) {
  // Past this depth the int32 accumulator could overflow, so such a layer
  // serves (and reports) the fast tier under an int8 setting.
  if (config == KernelConfig::kInt8 && in_features_ > quant::kInt8MaxDepth) {
    config = KernelConfig::kFast;
  }
  Layer::set_kernel_config(config);
  if (config != KernelConfig::kExact) {
    // The plan is a fixed function of the machine and this weight shape,
    // so its kc never changes under already-packed panels.
    plan_ = KernelRegistry::Get().PlanFor(in_features_, out_features_);
    has_plan_ = true;
  }
  // Warm the tier's weight cache on entry instead of on the first serve,
  // so the cost lands at configuration time (engine construction) and
  // never inside a latency-sensitive request.
  if (config == KernelConfig::kFast) PackedWeightsOrNull();
  if (config == KernelConfig::kInt8) Int8Weights();
}

const float* DenseLayer::PackedWeightsOrNull() const {
  if (!PackedBSupported()) return nullptr;
  // Pack with the plan's kc so the panels match what RunFastGemm sweeps
  // (a layer without a plan serves the fixed dispatch, whose kc is the
  // GemmPlan default).
  if (!packed_valid_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(pack_mutex_);
    if (!packed_valid_.load(std::memory_order_relaxed)) {
      packed_b_.resize(PackedBSize(in_features_, out_features_, plan_.kc));
      PackBPanels(weights_.data(), in_features_, out_features_,
                  packed_b_.data(), plan_.kc);
      packed_valid_.store(true, std::memory_order_release);
    }
  }
  return packed_b_.data();
}

const quant::Int8ServingWeights& DenseLayer::Int8Weights() const {
  if (!int8_valid_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(pack_mutex_);
    if (!int8_valid_.load(std::memory_order_relaxed)) {
      int8_weights_ = quant::PrepareInt8ServingWeights(
          weights_.data(), in_features_, out_features_);
      int8_valid_.store(true, std::memory_order_release);
    }
  }
  return int8_weights_;
}

void DenseLayer::ForwardInt8Block(const quant::Int8ServingWeights& qw,
                                  const float* in, float* out,
                                  std::size_t rows) const {
  // Thread-local like the fast tier's packing scratch: engine workers and
  // ParallelFor row blocks quantize their activations concurrently without
  // shared state. Rows are padded to the k-pair stride with zeros, which
  // the integer kernel's zero B-padding turns into exact no-ops.
  const std::size_t astride = quant::Int8PaddedDepth(in_features_);
  thread_local std::vector<std::int16_t> aq;
  thread_local std::vector<float> row_scales;
  if (aq.size() < rows * astride) aq.resize(rows * astride);
  if (row_scales.size() < rows) row_scales.resize(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    std::int16_t* arow = aq.data() + r * astride;
    row_scales[r] = quant::QuantizeActivationRow(in + r * in_features_,
                                                 in_features_, arow);
    for (std::size_t p = in_features_; p < astride; ++p) arow[p] = 0;
  }
  RunInt8Gemm(has_plan_ ? &plan_ : nullptr, aq.data(), astride,
              row_scales.data(), qw.panels.data(), qw.scales.data(), out,
              rows, in_features_, out_features_);
}

Tensor DenseLayer::ForwardWith(const Tensor& input,
                               KernelConfig kernel) const {
  CheckInput(input.shape());
  const std::size_t rows = input.shape().rank() == 1 ? 1 : input.shape()[0];
  Tensor out(OutputShape(input.shape()));
  // Int8 tier: serve from the cached quantized replica. One
  // requantization per weight mutation (recovery, injection, training),
  // shared by every row block and concurrent reader — exactly the packed
  // fp32 panel cache's discipline, with 4x fewer weight bytes streamed
  // per GEMM.
  if (kernel == KernelConfig::kInt8) {
    const quant::Int8ServingWeights& qw = Int8Weights();
    if (rows < 32) {
      ForwardInt8Block(qw, input.data(), out.data(), rows);
    } else {
      // Initialization-sized inputs (MILR's (N,N) PRNG systems never
      // come here — they use per-sample Forward — but large client
      // batches do): parallelize across row blocks like the fp32 path.
      constexpr std::size_t kBlock = 16;
      const std::size_t blocks = (rows + kBlock - 1) / kBlock;
      ParallelFor(0, blocks, [&](std::size_t b) {
        const std::size_t begin = b * kBlock;
        const std::size_t count = std::min(kBlock, rows - begin);
        ForwardInt8Block(qw, input.data() + begin * in_features_,
                         out.data() + begin * out_features_, count);
      });
    }
    return out;
  }
  // Fast tier: serve from the cached packed weight panels. One pack per
  // weight mutation, shared by every row block and every concurrent reader
  // — the per-call (and previously per-16-row-block) B repack is gone.
  const float* bpack =
      kernel == KernelConfig::kFast ? PackedWeightsOrNull() : nullptr;
  const GemmPlan* plan = has_plan_ ? &plan_ : nullptr;
  if (rows < 32) {
    if (kernel == KernelConfig::kExact) {
      GemmAccumulate(kernel, input.data(), weights_.data(), out.data(), rows,
                     in_features_, out_features_);
    } else {
      RunFastGemm(plan, input.data(), weights_.data(), bpack, out.data(),
                  rows, in_features_, out_features_);
    }
  } else {
    // Large batches appear on MILR's initialization path (golden outputs of
    // thousands of PRNG rows) — parallelize across row blocks. Nested calls
    // (training shards) degrade gracefully to the serial loop.
    constexpr std::size_t kBlock = 16;
    const std::size_t blocks = (rows + kBlock - 1) / kBlock;
    ParallelFor(0, blocks, [&](std::size_t b) {
      const std::size_t begin = b * kBlock;
      const std::size_t count = std::min(kBlock, rows - begin);
      if (kernel == KernelConfig::kExact) {
        GemmAccumulate(kernel, input.data() + begin * in_features_,
                       weights_.data(), out.data() + begin * out_features_,
                       count, in_features_, out_features_);
      } else {
        RunFastGemm(plan, input.data() + begin * in_features_,
                    weights_.data(), bpack,
                    out.data() + begin * out_features_, count, in_features_,
                    out_features_);
      }
    });
  }
  return out;
}

Tensor DenseLayer::Backward(const Tensor& x, const Tensor& /*y*/,
                            const Tensor& dy, std::span<float> dparams) const {
  CheckInput(x.shape());
  if (dparams.size() != weights_.size()) {
    throw std::invalid_argument("DenseLayer::Backward: dparams size");
  }
  const std::size_t rows = x.shape().rank() == 1 ? 1 : x.shape()[0];
  // dW(N,P) += xᵀ(N,M)·dy(M,P).
  GemmTransposedAAccumulate(x.data(), dy.data(), dparams.data(), in_features_,
                            rows, out_features_);
  // dx(M,N) = dy(M,P)·Wᵀ(P,N).
  Tensor dx(x.shape());
  GemmTransposedBAccumulate(dy.data(), weights_.data(), dx.data(), rows,
                            out_features_, in_features_);
  return dx;
}

Tensor DenseLayer::BackwardBatch(const Tensor& xb, const Tensor& /*yb*/,
                                 const Tensor& dyb,
                                 std::span<float> dparams) const {
  CheckInput(xb.shape());
  if (xb.shape().rank() != 2) {
    throw std::invalid_argument("DenseLayer::BackwardBatch: need batch axis");
  }
  if (dparams.size() != weights_.size()) {
    throw std::invalid_argument("DenseLayer::BackwardBatch: dparams size");
  }
  const std::size_t rows = xb.shape()[0];
  Tensor dxb(xb.shape());
  if (kernel_config() == KernelConfig::kExact) {
    // Same kernels as Backward; both accumulate each output element over
    // the batch axis in ascending order, so one batched call is
    // bit-identical to the per-sample loop.
    GemmTransposedAAccumulate(xb.data(), dyb.data(), dparams.data(),
                              in_features_, rows, out_features_);
    GemmTransposedBAccumulate(dyb.data(), weights_.data(), dxb.data(), rows,
                              out_features_, in_features_);
  } else {
    const GemmPlan* plan = has_plan_ ? &plan_ : nullptr;
    RunTransposedAGemm(plan, xb.data(), dyb.data(), dparams.data(),
                       in_features_, rows, out_features_);
    RunTransposedBGemm(plan, dyb.data(), weights_.data(), dxb.data(), rows,
                       out_features_, in_features_);
  }
  return dxb;
}

std::string DenseLayer::KernelDescription() const {
  std::string desc = KernelConfigName(kernel_config());
  if (has_plan_ && kernel_config() != KernelConfig::kExact) {
    desc += "[";
    desc += DescribeGemmPlan(plan_);
    desc += "]";
  }
  return desc;
}

}  // namespace milr::nn
