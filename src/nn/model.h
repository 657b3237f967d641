// Sequential CNN model: an ordered list of layers with a fixed input shape.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/layer.h"
#include "nn/pool.h"
#include "obs/profile.h"

namespace milr::nn {

class Model {
 public:
  explicit Model(Shape input_shape) : input_shape_(std::move(input_shape)) {}

  // Models own layers and are move-only.
  Model(const Model&) = delete;
  Model& operator=(const Model&) = delete;
  Model(Model&&) = default;
  Model& operator=(Model&&) = default;

  /// Appends a layer; returns a reference for chaining. Throws if the layer
  /// cannot accept the current output shape.
  Model& Add(std::unique_ptr<Layer> layer);

  // Convenience builders.
  Model& AddConv(std::size_t filter_size, std::size_t out_channels,
                 Padding padding);
  Model& AddDense(std::size_t out_features);
  Model& AddBias();
  Model& AddReLU();
  Model& AddMaxPool(std::size_t pool_size = 2);
  Model& AddAvgPool(std::size_t pool_size = 2);
  Model& AddFlatten();
  Model& AddDropout(float rate = 0.5f);
  Model& AddZeroPad(std::size_t pad);

  std::size_t LayerCount() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_.at(i); }
  const Layer& layer(std::size_t i) const { return *layers_.at(i); }

  /// GEMM tier for the batched (serving) forward path; propagated to every
  /// layer, including layers added later. kExact (the default) keeps
  /// PredictBatch bit-identical to per-sample Predict under the reference
  /// kernels; kFast serves from the packed k-blocked kernels and is only
  /// tolerance-equivalent; kInt8 serves dense AND conv layers from
  /// quantized int8 weight/filter replicas (see nn/kernel_config.h). MILR
  /// init/detect/recover always run exact (they use the per-sample
  /// Layer::Forward entry points), so protection semantics do not depend
  /// on this setting. Not thread-safe against in-flight predictions —
  /// configure before serving starts.
  void set_kernel_config(KernelConfig config);
  KernelConfig kernel_config() const { return kernel_config_; }

  /// Per-layer kernel descriptions ("dense_2: int8[...]"), one entry per
  /// layer, so the registry's kernel plans are observable (the telemetry
  /// exposition labels each layer with the same Layer::KernelDescription).
  std::vector<std::string> KernelDescriptions() const;

  const Shape& input_shape() const { return input_shape_; }
  /// Activation shape entering layer i (i == LayerCount() gives the output).
  const Shape& ShapeAt(std::size_t i) const { return shapes_.at(i); }
  const Shape& output_shape() const { return shapes_.back(); }

  /// Full forward pass on one sample — the B = 1 case of PredictBatch.
  Tensor Predict(const Tensor& input) const;

  /// Batched forward pass: `batch` is (B, input_shape...) and the result is
  /// (B, output_shape...). Bit-identical to running Predict per sample; the
  /// serving engine's micro-batcher is built on this entry point. Taken by
  /// value: move the batch in to skip the initial copy.
  Tensor PredictBatch(Tensor batch) const;

  /// Convenience overload: stacks per-sample tensors (each `input_shape`),
  /// runs one batched pass, and splits the outputs back per sample.
  std::vector<Tensor> PredictBatch(const std::vector<Tensor>& inputs) const;

  /// Forward pass that also returns every intermediate activation;
  /// activations[i] is the input of layer i, activations[LayerCount()] the
  /// final output.
  std::vector<Tensor> ForwardCollect(const Tensor& input) const;

  /// Batched ForwardCollect: `batch` is (B, input_shape...) and
  /// activations[i] is the batched input of layer i. Runs the layers'
  /// ForwardBatch kernels, so a whole training shard moves through each
  /// GEMM as one stacked product; bit-identical per sample to
  /// ForwardCollect at the exact tier.
  std::vector<Tensor> ForwardCollectBatch(Tensor batch) const;

  /// argmax of Predict — the predicted class for classification heads.
  std::size_t Classify(const Tensor& input) const;

  /// Total parameter count across layers.
  std::size_t TotalParams() const;

  /// Total parameter bytes (the fault domain size).
  std::size_t TotalParamBytes() const { return TotalParams() * sizeof(float); }

  /// Applies fn to every layer that has parameters (index, layer).
  void ForEachParamLayer(
      const std::function<void(std::size_t, Layer&)>& fn);

  /// Deep copy of all parameters (for golden snapshots in tests/benches).
  std::vector<std::vector<float>> SnapshotParams() const;
  void RestoreParams(const std::vector<std::vector<float>>& snapshot);

  /// Per-layer service-time accumulators, fed by PredictBatch when layer
  /// profiling is on (obs::Tracer profile bit); one slot per layer,
  /// re-sized on Add. The exposition layer reads these for its
  /// milr_layer_* series.
  const obs::LayerProfiler& profiler() const { return profiler_; }

 private:
  Shape input_shape_;
  std::vector<Shape> shapes_{input_shape_};  // shapes_[i] = input of layer i
  std::vector<std::unique_ptr<Layer>> layers_;
  KernelConfig kernel_config_ = KernelConfig::kExact;
  // mutable: PredictBatch is const; the profiler's relaxed adds are the
  // observability side-channel, not model state.
  mutable obs::LayerProfiler profiler_;
};

}  // namespace milr::nn
