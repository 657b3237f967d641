// Fully-connected (dense) layer: C(M,P) = A(M,N) · B(N,P).
//
// Accepts a rank-1 input (a single sample, M = 1) or a rank-2 batch —
// MILR's parameter solving runs the same layer over an (N,N) system of
// PRNG rows (Section IV-A of the paper).
#pragma once

#include <atomic>
#include <mutex>
#include <span>
#include <vector>

#include "nn/kernel_registry.h"
#include "nn/layer.h"
#include "quant/gemm_int8.h"

namespace milr::nn {

class DenseLayer final : public Layer {
 public:
  /// Weights are (N = in_features, P = out_features), no bias (bias is a
  /// separate BiasLayer, matching the paper's layer decomposition).
  DenseLayer(std::size_t in_features, std::size_t out_features);

  LayerKind kind() const override { return LayerKind::kDense; }
  Shape OutputShape(const Shape& input) const override;
  /// Always the exact GEMM tier: MILR's parameter solving feeds this entry
  /// point (N,N) PRNG systems whose golden outputs must be reproducible
  /// bit-for-bit no matter how the model is served.
  Tensor Forward(const Tensor& input) const override;
  /// A batch (B,N) is exactly the rank-2 system Forward runs as one GEMM;
  /// the batched (serving) entry point additionally honors the configured
  /// kernel tier (tolerance-equivalent when kFast).
  Tensor ForwardBatch(const Tensor& input) const override {
    return ForwardWith(input, kernel_config());
  }
  Tensor Backward(const Tensor& x, const Tensor& y, const Tensor& dy,
                  std::span<float> dparams) const override;
  /// Batched backward: the dy rows are already stacked, so dW and dX each
  /// run as ONE transposed GEMM over the whole shard instead of one per
  /// sample. At the exact tier both GEMMs accumulate per output element
  /// over the batch axis in ascending order — the same order the
  /// per-sample loop produced — so exact-tier gradients are bit-identical
  /// to looping Backward. Non-exact tiers route through the registry's
  /// transposed fast kernels (tolerance-equivalent).
  Tensor BackwardBatch(const Tensor& xb, const Tensor& yb, const Tensor& dyb,
                       std::span<float> dparams) const override;
  /// The mutable span is the fault domain: every writer (fault injectors,
  /// MILR recovery, training, deserialization, Model::RestoreParams) goes
  /// through it, so handing it out conservatively invalidates BOTH derived
  /// weight caches — the packed fast-tier fp32 panels and the int8
  /// quantized panels. The next fast/int8 ForwardBatch rebuilds its cache
  /// once from the (possibly recovered) fp32 master; this is what makes
  /// MILR recovery, fault injection and training each trigger exactly one
  /// requantization.
  std::span<float> Params() override {
    InvalidatePackedWeights();
    return weights_.flat();
  }
  std::span<const float> Params() const override { return weights_.flat(); }

  /// Packs the weight panels once when entering the fast tier and
  /// quantizes them once when entering the int8 tier, so serving never
  /// pays a per-request repack/requantization. An int8 setting on a layer
  /// deeper than quant::kInt8MaxDepth is stored (and served) as kFast.
  /// Non-exact tiers additionally fetch this shape's GemmPlan from the
  /// KernelRegistry and persist it by value; the panels are packed with
  /// the plan's kc, so pack and serve agree on the blocking.
  void set_kernel_config(KernelConfig config) override;

  /// Tier name plus the registry plan when one is attached.
  std::string KernelDescription() const override;

  /// Registry plan attached by set_kernel_config (tests/telemetry).
  bool has_plan() const { return has_plan_; }
  const GemmPlan& plan() const { return plan_; }

  std::size_t in_features() const { return in_features_; }    // N
  std::size_t out_features() const { return out_features_; }  // P

  const Tensor& weights() const { return weights_; }
  Tensor& weights() {
    InvalidatePackedWeights();
    return weights_;
  }

  /// True while the packed fast-tier panel cache matches weights_
  /// (exposed for tests pinning the invalidation contract).
  bool packed_weights_valid() const {
    return packed_valid_.load(std::memory_order_acquire);
  }

  /// True while the int8 quantized panel cache matches weights_ (the
  /// requantization tests pin the invalidate-on-mutate contract with it).
  bool int8_weights_valid() const {
    return int8_valid_.load(std::memory_order_acquire);
  }

 private:
  void CheckInput(const Shape& input) const;
  Tensor ForwardWith(const Tensor& input, KernelConfig kernel) const;
  /// Lazily (re)packs under pack_mutex_ and returns the panel cache, or
  /// nullptr when this build has no micro-kernel that can consume it.
  /// Safe under concurrent shared-lock readers: valid_ only transitions
  /// false->true here (serialized by the mutex); true->false transitions
  /// happen on the mutation paths, which the serving layer already runs
  /// under the model's exclusive lock.
  const float* PackedWeightsOrNull() const;
  /// Int8 analog of PackedWeightsOrNull: lazily requantizes from the fp32
  /// master under pack_mutex_ (same memory-ordering discipline). Only
  /// reached under kInt8, which set_kernel_config never stores past the
  /// int32 accumulator's exact range (quant::kInt8MaxDepth).
  const quant::Int8ServingWeights& Int8Weights() const;
  /// One int8 row block: quantize the activation rows (thread-local
  /// scratch) and run the packed int8 GEMM + dequantizing epilogue.
  void ForwardInt8Block(const quant::Int8ServingWeights& qw,
                        const float* in, float* out,
                        std::size_t rows) const;
  void InvalidatePackedWeights() {
    packed_valid_.store(false, std::memory_order_release);
    int8_valid_.store(false, std::memory_order_release);
  }

  std::size_t in_features_;
  std::size_t out_features_;
  Tensor weights_;  // (N,P)

  GemmPlan plan_;          // registry decision for (N,P); valid iff
  bool has_plan_ = false;  // has_plan_ (set_kernel_config attaches it)

  mutable std::mutex pack_mutex_;
  mutable std::vector<float> packed_b_;  // PackBPanels layout, plan_.kc
  mutable std::atomic<bool> packed_valid_{false};
  mutable quant::Int8ServingWeights int8_weights_;  // derived int8 replica
  mutable std::atomic<bool> int8_valid_{false};
};

}  // namespace milr::nn
