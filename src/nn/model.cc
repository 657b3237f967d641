#include "nn/model.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/trace.h"

namespace milr::nn {

Model& Model::Add(std::unique_ptr<Layer> layer) {
  const Shape out = layer->OutputShape(shapes_.back());
  layer->set_name(std::string(LayerKindName(layer->kind())) + "_" +
                  std::to_string(layers_.size()));
  layer->set_kernel_config(kernel_config_);
  layers_.push_back(std::move(layer));
  shapes_.push_back(out);
  profiler_.Reset(layers_.size());
  return *this;
}

void Model::set_kernel_config(KernelConfig config) {
  kernel_config_ = config;
  for (const auto& layer : layers_) layer->set_kernel_config(config);
}

std::vector<std::string> Model::KernelDescriptions() const {
  std::vector<std::string> out;
  out.reserve(layers_.size());
  for (const auto& layer : layers_) {
    out.push_back(layer->name() + ": " + layer->KernelDescription());
  }
  return out;
}

Model& Model::AddConv(std::size_t filter_size, std::size_t out_channels,
                      Padding padding) {
  const Shape& in = shapes_.back();
  if (in.rank() != 3) {
    throw std::invalid_argument("AddConv: expected rank-3 input, have " +
                                in.ToString());
  }
  return Add(std::make_unique<Conv2DLayer>(filter_size, in[2], out_channels,
                                           padding));
}

Model& Model::AddDense(std::size_t out_features) {
  const Shape& in = shapes_.back();
  if (in.rank() != 1) {
    throw std::invalid_argument("AddDense: expected rank-1 input, have " +
                                in.ToString() + " (add Flatten first)");
  }
  return Add(std::make_unique<DenseLayer>(in[0], out_features));
}

Model& Model::AddBias() {
  const Shape& in = shapes_.back();
  return Add(std::make_unique<BiasLayer>(in[in.rank() - 1]));
}

Model& Model::AddReLU() { return Add(std::make_unique<ReLULayer>()); }

Model& Model::AddMaxPool(std::size_t pool_size) {
  return Add(std::make_unique<MaxPool2DLayer>(pool_size));
}

Model& Model::AddAvgPool(std::size_t pool_size) {
  return Add(std::make_unique<AvgPool2DLayer>(pool_size));
}

Model& Model::AddFlatten() { return Add(std::make_unique<FlattenLayer>()); }

Model& Model::AddDropout(float rate) {
  return Add(std::make_unique<DropoutLayer>(rate));
}

Model& Model::AddZeroPad(std::size_t pad) {
  return Add(std::make_unique<ZeroPad2DLayer>(pad));
}

Tensor Model::Predict(const Tensor& input) const {
  // Single-sample inference is served by the batched path with B = 1; the
  // layers' ForwardBatch implementations are bit-identical to Forward.
  // Rvalue reshapes keep this copy-free beyond the one input copy the
  // pre-batching Predict also made.
  Tensor out = PredictBatch(Tensor(input).Reshaped(
      WithBatchAxis(1, input.shape())));
  const Shape sample_out = StripBatchAxis(out.shape());
  return std::move(out).Reshaped(sample_out);
}

Tensor Model::PredictBatch(Tensor batch) const {
  Tensor current = std::move(batch);
  // One relaxed load decides between the bare loop and the instrumented
  // one, so the serving hot path pays nothing while observability is off.
  const unsigned bits = obs::InstrumentationBits();
  if (bits == 0) {
    for (const auto& layer : layers_) current = layer->ForwardBatch(current);
    return current;
  }
  const std::uint32_t rows =
      current.shape().rank() > 0 ? static_cast<std::uint32_t>(current.shape()[0])
                                 : 1u;
  const std::uint16_t track = obs::CurrentTrack();
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    const Layer& layer = *layers_[i];
    const std::uint64_t t0 = obs::TraceNowNanos();
    current = layer.ForwardBatch(current);
    const std::uint64_t t1 = obs::TraceNowNanos();
    if ((bits & obs::kProfileBit) != 0) profiler_.Record(i, t1 - t0, rows);
    if ((bits & obs::kTraceBit) != 0) {
      // name = layer kind, cat = kernel tier; a = layer index, b = batch.
      obs::Tracer::Get().EmitSpan(LayerKindName(layer.kind()),
                                  KernelConfigName(layer.kernel_config()), t0,
                                  t1 - t0, i, rows, track);
    }
  }
  return current;
}

std::vector<Tensor> Model::PredictBatch(
    const std::vector<Tensor>& inputs) const {
  if (inputs.empty()) return {};
  const std::size_t sample_size = inputs.front().size();
  Tensor packed(WithBatchAxis(inputs.size(), inputs.front().shape()));
  for (std::size_t s = 0; s < inputs.size(); ++s) {
    if (!(inputs[s].shape() == inputs.front().shape())) {
      throw std::invalid_argument(
          "PredictBatch: mixed sample shapes " +
          inputs.front().shape().ToString() + " vs " +
          inputs[s].shape().ToString());
    }
    std::copy_n(inputs[s].data(), sample_size,
                packed.data() + s * sample_size);
  }
  const Tensor out = PredictBatch(packed);
  const Shape sample_out = StripBatchAxis(out.shape());
  const std::size_t out_stride = sample_out.NumElements();
  std::vector<Tensor> results;
  results.reserve(inputs.size());
  for (std::size_t s = 0; s < inputs.size(); ++s) {
    Tensor one(sample_out);
    std::copy_n(out.data() + s * out_stride, out_stride, one.data());
    results.push_back(std::move(one));
  }
  return results;
}

std::vector<Tensor> Model::ForwardCollect(const Tensor& input) const {
  std::vector<Tensor> activations;
  activations.reserve(layers_.size() + 1);
  activations.push_back(input);
  for (const auto& layer : layers_) {
    activations.push_back(layer->Forward(activations.back()));
  }
  return activations;
}

std::vector<Tensor> Model::ForwardCollectBatch(Tensor batch) const {
  std::vector<Tensor> activations;
  activations.reserve(layers_.size() + 1);
  activations.push_back(std::move(batch));
  for (const auto& layer : layers_) {
    activations.push_back(layer->ForwardBatch(activations.back()));
  }
  return activations;
}

std::size_t Model::Classify(const Tensor& input) const {
  const Tensor out = Predict(input);
  std::size_t best = 0;
  for (std::size_t i = 1; i < out.size(); ++i) {
    if (out[i] > out[best]) best = i;
  }
  return best;
}

std::size_t Model::TotalParams() const {
  std::size_t total = 0;
  for (const auto& layer : layers_) total += layer->ParamCount();
  return total;
}

void Model::ForEachParamLayer(
    const std::function<void(std::size_t, Layer&)>& fn) {
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    if (layers_[i]->ParamCount() > 0) fn(i, *layers_[i]);
  }
}

std::vector<std::vector<float>> Model::SnapshotParams() const {
  std::vector<std::vector<float>> snapshot;
  snapshot.reserve(layers_.size());
  for (const auto& layer : layers_) {
    const auto params = layer->Params();
    snapshot.emplace_back(params.begin(), params.end());
  }
  return snapshot;
}

void Model::RestoreParams(const std::vector<std::vector<float>>& snapshot) {
  if (snapshot.size() != layers_.size()) {
    throw std::invalid_argument("RestoreParams: snapshot layer count");
  }
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    auto params = layers_[i]->Params();
    if (snapshot[i].size() != params.size()) {
      throw std::invalid_argument("RestoreParams: size mismatch at layer " +
                                  std::to_string(i));
    }
    std::copy(snapshot[i].begin(), snapshot[i].end(), params.begin());
  }
}

}  // namespace milr::nn
