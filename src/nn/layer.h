// Layer abstraction for the CNN inference/training substrate.
//
// Design notes that matter for MILR (src/milr):
//  * Bias and activation are modeled as separate layers, exactly as the
//    paper treats them ("these parts will be handled as independent layers
//    as each part has their own mathematical relationships", Section IV).
//  * Activations are per-sample: rank-3 (H,W,C) for convolutional stages,
//    rank-1 (N) after Flatten. Dense also accepts rank-2 (M,N) batches —
//    MILR's parameter solving feeds it systems of many rows.
//  * Parameters are exposed as a mutable flat span: that span *is* the fault
//    domain the error injectors corrupt and MILR repairs.
#pragma once

#include <memory>
#include <span>
#include <string>

#include "nn/kernel_config.h"
#include "tensor/tensor.h"

namespace milr::nn {

enum class LayerKind {
  kConv2D,
  kDense,
  kBias,
  kReLU,
  kMaxPool2D,
  kAvgPool2D,
  kFlatten,
  kDropout,
  kZeroPad2D,
};

/// Human-readable layer kind ("conv2d", "dense", ...).
const char* LayerKindName(LayerKind kind);

/// Base class of all layers. Layers own their parameters.
class Layer {
 public:
  virtual ~Layer() = default;

  virtual LayerKind kind() const = 0;

  /// Output activation shape for a given input shape; throws
  /// std::invalid_argument if the input shape is unsupported.
  virtual Shape OutputShape(const Shape& input) const = 0;

  /// Inference forward pass (one sample). Equivalent to the B = 1 slice of
  /// ForwardBatch; MILR's init/detect/recover passes stay on this entry
  /// point because they reason about one canonical input at a time.
  virtual Tensor Forward(const Tensor& input) const = 0;

  /// Batched inference forward pass. `input` is the per-sample shape
  /// Forward accepts with a leading batch axis prepended: rank-4 (B,H,W,C)
  /// for convolutional stages, rank-2 (B,N) after Flatten. The default
  /// implementation loops Forward over the samples; layers override it with
  /// a fused kernel (batched im2col for conv, one GEMM for dense, ...).
  /// Every override produces bit-identical results to the per-sample loop.
  virtual Tensor ForwardBatch(const Tensor& input) const;

  /// Output shape for a batched input: {B} + OutputShape(sample shape).
  /// Throws std::invalid_argument when the input has no batch axis.
  Shape BatchOutputShape(const Shape& input) const;

  /// Training backward pass: given the forward input `x`, forward output
  /// `y` and upstream gradient `dy`, accumulates parameter gradients into
  /// `dparams` (same length as Params(); may be empty for layers without
  /// parameters) and returns the gradient w.r.t. `x`.
  virtual Tensor Backward(const Tensor& x, const Tensor& y, const Tensor& dy,
                          std::span<float> dparams) const = 0;

  /// Batched training backward pass: `xb` / `yb` / `dyb` are Backward's
  /// arguments with a leading batch axis. The default slices per sample;
  /// overrides fuse the batch (dense stacks the dy rows into single
  /// transposed GEMMs that can run the registry's fast kernels). Every
  /// override accumulates into `dparams` in the same per-element order as
  /// the per-sample loop, so exact-tier results stay bit-identical.
  virtual Tensor BackwardBatch(const Tensor& xb, const Tensor& yb,
                               const Tensor& dyb,
                               std::span<float> dparams) const;

  /// Mutable / const view of the parameters (empty if none). This span is
  /// the error-prone "main memory" in the paper's model.
  virtual std::span<float> Params() { return {}; }
  virtual std::span<const float> Params() const { return {}; }

  std::size_t ParamCount() const { return Params().size(); }

  /// Instance name assigned by the model ("conv_0", "bias_1", ...).
  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  /// GEMM tier used by the *batched* forward path (see nn/kernel_config.h).
  /// Per-sample Forward always runs the exact tier, so MILR's init /
  /// detect / recover passes are unaffected by this setting. Set through
  /// Model::set_kernel_config; must not be flipped while a ForwardBatch is
  /// in flight (the engine only sets it at construction). Virtual so layers
  /// with tier-specific caches (DenseLayer packs fp32 weight panels for
  /// the fast tier and a quantized int8 replica for the int8 tier) can
  /// warm them exactly once here instead of per forward.
  KernelConfig kernel_config() const { return kernel_config_; }
  virtual void set_kernel_config(KernelConfig config) {
    kernel_config_ = config;
  }

  /// One-line description of how this layer's batched path executes, for
  /// telemetry labels: the tier name, plus the registry plan for layers
  /// that hold one ("fast[thin=...,kc=...]").
  virtual std::string KernelDescription() const {
    return KernelConfigName(kernel_config());
  }

 private:
  std::string name_;
  KernelConfig kernel_config_ = KernelConfig::kExact;
};

/// ReLU activation: y = max(0, x). No parameters. MILR treats it as the
/// identity during init/detect/recover passes (see milr/recovery_graph.h).
class ReLULayer final : public Layer {
 public:
  LayerKind kind() const override { return LayerKind::kReLU; }
  Shape OutputShape(const Shape& input) const override { return input; }
  Tensor Forward(const Tensor& input) const override;
  // Elementwise and shape-agnostic: the batched tensor goes through the
  // same kernel directly.
  Tensor ForwardBatch(const Tensor& input) const override {
    return Forward(input);
  }
  Tensor Backward(const Tensor& x, const Tensor& y, const Tensor& dy,
                  std::span<float> dparams) const override;
  // Elementwise: the batched tensors feed the unbatched kernel directly.
  Tensor BackwardBatch(const Tensor& xb, const Tensor& yb, const Tensor& dyb,
                       std::span<float> dparams) const override {
    return Backward(xb, yb, dyb, dparams);
  }
};

/// Flatten: reshapes (H,W,C) -> (H*W*C). Pure shape adapter.
class FlattenLayer final : public Layer {
 public:
  LayerKind kind() const override { return LayerKind::kFlatten; }
  Shape OutputShape(const Shape& input) const override;
  Tensor Forward(const Tensor& input) const override;
  /// (B, d0, d1, ...) -> (B, d0*d1*...): the batch axis survives.
  Tensor ForwardBatch(const Tensor& input) const override;
  Tensor Backward(const Tensor& x, const Tensor& y, const Tensor& dy,
                  std::span<float> dparams) const override;
  Tensor BackwardBatch(const Tensor& xb, const Tensor& yb, const Tensor& dyb,
                       std::span<float> dparams) const override;
};

/// Dropout: identity at inference time (training-only layers "can be
/// essentially ignored" during MILR's passes, §IV-E d). The rate is kept
/// for documentation; this library only runs inference through it.
class DropoutLayer final : public Layer {
 public:
  explicit DropoutLayer(float rate = 0.5f) : rate_(rate) {}

  LayerKind kind() const override { return LayerKind::kDropout; }
  Shape OutputShape(const Shape& input) const override { return input; }
  Tensor Forward(const Tensor& input) const override { return input; }
  Tensor ForwardBatch(const Tensor& input) const override { return input; }
  Tensor Backward(const Tensor& /*x*/, const Tensor& /*y*/, const Tensor& dy,
                  std::span<float> /*dparams*/) const override {
    return dy;
  }
  Tensor BackwardBatch(const Tensor& /*xb*/, const Tensor& /*yb*/,
                       const Tensor& dyb,
                       std::span<float> /*dparams*/) const override {
    return dyb;
  }

  float rate() const { return rate_; }

 private:
  float rate_;
};

/// Zero padding: embeds an (M,M,C) input into (M+2p, M+2p, C). Adjusts
/// shape without losing data, so MILR's backward pass simply crops
/// (§IV-E d).
class ZeroPad2DLayer final : public Layer {
 public:
  explicit ZeroPad2DLayer(std::size_t pad);

  LayerKind kind() const override { return LayerKind::kZeroPad2D; }
  Shape OutputShape(const Shape& input) const override;
  Tensor Forward(const Tensor& input) const override;
  Tensor ForwardBatch(const Tensor& input) const override;
  Tensor Backward(const Tensor& x, const Tensor& y, const Tensor& dy,
                  std::span<float> dparams) const override;

  /// The lossless inverse: crops the padding off an output tensor.
  Tensor Crop(const Tensor& output) const;

  std::size_t pad() const { return pad_; }

 private:
  std::size_t pad_;
};

/// Bias: adds parameter b[c] along the last axis (per filter for conv
/// activations, per column for dense outputs) — equation 5 of the paper.
class BiasLayer final : public Layer {
 public:
  /// `channels` must equal the last axis extent of the input.
  explicit BiasLayer(std::size_t channels);

  LayerKind kind() const override { return LayerKind::kBias; }
  Shape OutputShape(const Shape& input) const override;
  Tensor Forward(const Tensor& input) const override;
  // The bias broadcast keys off the trailing channel axis, which a leading
  // batch axis does not disturb — the unbatched kernel applies as-is.
  Tensor ForwardBatch(const Tensor& input) const override {
    return Forward(input);
  }
  Tensor Backward(const Tensor& x, const Tensor& y, const Tensor& dy,
                  std::span<float> dparams) const override;
  // dparams[c] sums dy over all positions with i % channels == c; flat
  // iteration over the batched tensor visits those positions in the same
  // order as the per-sample loop, so the sums are bit-identical.
  Tensor BackwardBatch(const Tensor& xb, const Tensor& yb, const Tensor& dyb,
                       std::span<float> dparams) const override {
    return Backward(xb, yb, dyb, dparams);
  }
  std::span<float> Params() override { return bias_.flat(); }
  std::span<const float> Params() const override { return bias_.flat(); }

  std::size_t channels() const { return bias_.size(); }
  const Tensor& bias() const { return bias_; }
  Tensor& bias() { return bias_; }

 private:
  void CheckShape(const Shape& input) const;
  Tensor bias_;  // rank-1 (channels)
};

}  // namespace milr::nn
