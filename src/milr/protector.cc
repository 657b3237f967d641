#include "milr/protector.h"

#include <algorithm>
#include <cmath>

#include "support/prng.h"

namespace milr::core {
namespace {

constexpr std::uint64_t kCanonicalStream = 1;
constexpr std::uint64_t kDetectStreamBase = 1000;
constexpr std::uint64_t kSolveStreamBase = 2000;
constexpr std::uint64_t kDummyStreamBase = 3000;
constexpr std::uint64_t kSegmentStreamBase = 4000;

/// Overwrites `dst` with `src`, returning how many values actually changed
/// (the fixpoint signal for multi-pass recovery).
std::size_t CopyCountingChanges(std::span<const float> src,
                                std::span<float> dst) {
  std::size_t changed = 0;
  for (std::size_t i = 0; i < src.size(); ++i) {
    if (dst[i] != src[i]) {
      dst[i] = src[i];
      ++changed;
    }
  }
  return changed;
}

double SumParams(std::span<const float> params) {
  double sum = 0.0;
  for (const float v : params) sum += static_cast<double>(v);
  return sum;
}

}  // namespace

MilrProtector::MilrProtector(nn::Model& model, MilrConfig config)
    : model_(&model), config_(config), plan_(BuildPlan(model, config)) {
  Initialize();
}

Tensor MilrProtector::CanonicalInput() const {
  Prng prng(DeriveSeed(config_.master_seed, kCanonicalStream));
  return RandomTensor(model_->input_shape(), prng, -config_.random_input_limit,
                      config_.random_input_limit);
}

Tensor MilrProtector::LinearizedForward(std::size_t layer_index,
                                        const Tensor& x) const {
  const nn::Layer& layer = model_->layer(layer_index);
  // Activations are treated as linear during init/recovery (Section IV-D).
  if (layer.kind() == nn::LayerKind::kReLU) return x;
  return layer.Forward(x);
}

void MilrProtector::Initialize() {
  const std::size_t layer_count = model_->LayerCount();
  golden_.resize(layer_count);

  // One linearized forward pass records the golden data. At every full
  // checkpoint boundary the propagated activation is stored (it anchors
  // backward propagation of the *previous* segment) and then replaced by a
  // fresh seeded PRNG tensor: each segment gets white-noise input. This
  // keeps every layer's recovery system well conditioned — activations
  // propagated through several conv layers are spatially smoothed, and
  // their im2col systems amplify the float32 rounding of stored golden
  // values into weight-scale errors. Storage cost is identical (one stored
  // tensor per boundary); the segment inputs are regenerated from seeds,
  // matching how the paper's detection phase already feeds each layer its
  // own PRNG input (Fig. 2).
  Tensor activation = CanonicalInput();
  for (std::size_t i = 0; i < layer_count; ++i) {
    if (plan_.layers[i].input_checkpoint) {
      checkpoints_.emplace(i, activation);
      activation = SegmentInput(i);
    }
    const Tensor next = LinearizedForward(i, activation);

    LayerGolden& gold = golden_[i];
    gold.detect_seed = DeriveSeed(config_.master_seed, kDetectStreamBase + i);
    gold.solve_seed = DeriveSeed(config_.master_seed, kSolveStreamBase + i);
    gold.dummy_seed = DeriveSeed(config_.master_seed, kDummyStreamBase + i);
    const LayerPlan& lp = plan_.layers[i];
    const nn::Layer& layer = model_->layer(i);

    switch (lp.solve) {
      case SolveMode::kNone:
        break;
      case SolveMode::kBias:
        gold.bias_sum = SumParams(layer.Params());
        break;
      case SolveMode::kDense: {
        const auto& dense = static_cast<const nn::DenseLayer&>(layer);
        if (config_.self_contained_dense) {
          gold.stored_weights = dense.weights();
        } else if (lp.solve_dummy_rows > 0) {
          const Tensor rows = MakeDenseDummyRows(
              lp.solve_dummy_rows, dense.in_features(), gold.solve_seed);
          gold.dense_solve_outputs = dense.Forward(rows);
        }
        if (lp.backward == BackwardMode::kDenseAugmented) {
          // Golden outputs of the dummy parameter columns for the canonical
          // activation: y_d[c] = Σ_r x[r]·D[r,c].
          const Tensor dummy = MakeDenseDummyColumns(
              dense.in_features(), lp.dummy_count, gold.dummy_seed);
          Tensor outputs(Shape{lp.dummy_count});
          for (std::size_t c = 0; c < lp.dummy_count; ++c) {
            double acc = 0.0;
            for (std::size_t r = 0; r < dense.in_features(); ++r) {
              acc += static_cast<double>(activation[r]) *
                     static_cast<double>(dummy.at(r, c));
            }
            outputs[c] = static_cast<float>(acc);
          }
          gold.backward_dummy_outputs = std::move(outputs);
        }
        break;
      }
      case SolveMode::kConvFull:
      case SolveMode::kConvPartial: {
        const auto& conv = static_cast<const nn::Conv2DLayer&>(layer);
        if (lp.solve == SolveMode::kConvPartial &&
            config_.conv_partial_recovery) {
          gold.crc = ecc::ComputeCrc2d(conv.filters(), config_.crc_group);
        }
        if (lp.backward == BackwardMode::kConvAugmented) {
          // Golden outputs of the dummy filters on the canonical input:
          // (G², α) = Patches(x)·W_dummy.
          const Tensor dummy =
              MakeConvDummyFilters(conv, lp.dummy_count, gold.dummy_seed);
          const Tensor patches = conv.BuildPatchMatrix(activation);
          const std::size_t g2 = patches.shape()[0];
          const std::size_t unknowns = patches.shape()[1];
          Tensor outputs(Shape{g2, lp.dummy_count});
          for (std::size_t pix = 0; pix < g2; ++pix) {
            for (std::size_t c = 0; c < lp.dummy_count; ++c) {
              double acc = 0.0;
              for (std::size_t u = 0; u < unknowns; ++u) {
                acc += static_cast<double>(
                           patches[pix * unknowns + u]) *
                       static_cast<double>(dummy[u * lp.dummy_count + c]);
              }
              outputs.at(pix, c) = static_cast<float>(acc);
            }
          }
          gold.backward_dummy_outputs = std::move(outputs);
        }
        break;
      }
    }
    gold.signature = ComputeSignature(i);
    activation = next;
  }
  final_output_ = std::move(activation);
}

std::vector<float> MilrProtector::ComputeSignature(
    std::size_t layer_index) const {
  const nn::Layer& layer = model_->layer(layer_index);
  const LayerGolden& gold = golden_[layer_index];
  switch (layer.kind()) {
    case nn::LayerKind::kDense: {
      // One stored output per parameter column (Section IV-A c): the full
      // output row of a private PRNG input row.
      const auto& dense = static_cast<const nn::DenseLayer&>(layer);
      Prng prng(gold.detect_seed);
      const Tensor input = RandomTensor(Shape{dense.in_features()}, prng);
      const Tensor out = dense.Forward(input);
      return {out.flat().begin(), out.flat().end()};
    }
    case nn::LayerKind::kConv2D: {
      // One stored output per filter (Section IV-B c): every filter applied
      // to one private PRNG patch r of length F²Z, signature[k] =
      // Σ_u r[u]·W[u,k], at F²Z·Y multiply-adds whatever the input extent.
      // The patch is drawn, not cut from an input image: on a same-padded
      // conv whose input is smaller than its filter, every image patch is
      // partly zero padding, which hides the weights under it. Serial sums
      // in ascending u, in double, keep the exact compare reproducible.
      const auto& conv = static_cast<const nn::Conv2DLayer&>(layer);
      const std::size_t filters = conv.out_channels();
      Prng prng(gold.detect_seed);
      const Tensor patch = RandomTensor(Shape{conv.PatchLength()}, prng);
      std::vector<double> acc(filters, 0.0);
      for (std::size_t u = 0; u < patch.size(); ++u) {
        const double r = patch[u];
        const float* w = conv.filters().data() + u * filters;
        for (std::size_t k = 0; k < filters; ++k) acc[k] += r * w[k];
      }
      return {acc.begin(), acc.end()};
    }
    case nn::LayerKind::kBias: {
      // Sum checksum (Section IV-E c), kept in double for determinism.
      return {static_cast<float>(SumParams(layer.Params()))};
    }
    default:
      return {};
  }
}

DetectionReport MilrProtector::Detect() const {
  DetectionReport report;
  const float tol = config_.detect_relative_tolerance;
  for (std::size_t i = 0; i < model_->LayerCount(); ++i) {
    if (model_->layer(i).ParamCount() == 0) continue;
    const std::vector<float> current = ComputeSignature(i);
    bool mismatch;
    if (tol <= 0.0f) {
      mismatch = current != golden_[i].signature;  // paper: exact compare
    } else {
      mismatch = false;
      const auto& stored = golden_[i].signature;
      for (std::size_t k = 0; k < current.size(); ++k) {
        const float scale =
            std::max({1.0f, std::abs(current[k]), std::abs(stored[k])});
        if (!(std::abs(current[k] - stored[k]) <= tol * scale)) {
          mismatch = true;  // NaN compares false -> flagged, as it must be
          break;
        }
      }
    }
    if (mismatch) report.flagged_layers.push_back(i);
  }
  return report;
}

Tensor MilrProtector::SegmentInput(std::size_t boundary_index) const {
  Prng prng(DeriveSeed(config_.master_seed,
                       kSegmentStreamBase + boundary_index));
  return RandomTensor(model_->ShapeAt(boundary_index), prng,
                      -config_.random_input_limit,
                      config_.random_input_limit);
}

Tensor MilrProtector::GoldenInputOf(std::size_t layer_index) const {
  // Nearest segment boundary at or before the layer; every boundary's input
  // is a seeded PRNG tensor (index 0 is the canonical input), so nothing
  // needs to be read from storage — just regenerate and propagate forward.
  std::size_t start = 0;
  Tensor activation;
  bool found = false;
  for (std::size_t j = layer_index + 1; j-- > 0;) {
    if (checkpoints_.count(j) > 0) {
      start = j;
      activation = SegmentInput(j);
      found = true;
      break;
    }
    if (j == 0) break;
  }
  if (!found) activation = CanonicalInput();
  for (std::size_t t = start; t < layer_index; ++t) {
    activation = LinearizedForward(t, activation);
  }
  return activation;
}

Result<Tensor> MilrProtector::BackwardThrough(std::size_t t,
                                              const Tensor& y) const {
  const nn::Layer& layer = model_->layer(t);
  const LayerPlan& lp = plan_.layers[t];
  const LayerGolden& gold = golden_[t];
  switch (lp.backward) {
    case BackwardMode::kIdentity:
      return y;
    case BackwardMode::kReshape:
      return y.Reshaped(model_->ShapeAt(t));
    case BackwardMode::kCrop:
      return static_cast<const nn::ZeroPad2DLayer&>(layer).Crop(y);
    case BackwardMode::kBiasSubtract:
      return BiasBackward(static_cast<const nn::BiasLayer&>(layer), y);
    case BackwardMode::kDenseExact:
    case BackwardMode::kDenseAugmented:
      return DenseBackward(static_cast<const nn::DenseLayer&>(layer), y,
                           lp.dummy_count, gold.dummy_seed,
                           gold.backward_dummy_outputs.flat());
    case BackwardMode::kConvExact:
    case BackwardMode::kConvAugmented:
      return ConvBackward(static_cast<const nn::Conv2DLayer&>(layer), y,
                          model_->ShapeAt(t)[0], lp.dummy_count,
                          gold.dummy_seed, gold.backward_dummy_outputs);
    case BackwardMode::kBlocked:
      return Status(StatusCode::kFailedPrecondition,
                    "backward pass blocked at layer " + std::to_string(t));
  }
  return Status(StatusCode::kInternal, "unhandled backward mode");
}

Result<Tensor> MilrProtector::GoldenOutputOf(std::size_t layer_index) const {
  // Nearest checkpoint strictly after the layer; the stored final output
  // anchors the tail of the network.
  std::size_t anchor = model_->LayerCount();
  for (std::size_t k = layer_index + 1; k < model_->LayerCount(); ++k) {
    if (checkpoints_.count(k) > 0) {
      anchor = k;
      break;
    }
  }
  Tensor value = anchor == model_->LayerCount() ? final_output_
                                                : checkpoints_.at(anchor);
  for (std::size_t t = anchor; t-- > layer_index + 1;) {
    auto stepped = BackwardThrough(t, value);
    if (!stepped.ok()) return stepped.status();
    value = std::move(stepped).value();
  }
  return value;
}

LayerRecovery MilrProtector::RecoverLayer(std::size_t layer_index) {
  LayerRecovery recovery;
  recovery.layer_index = layer_index;
  const LayerPlan& lp = plan_.layers[layer_index];
  const LayerGolden& gold = golden_[layer_index];
  recovery.mode = lp.solve;
  nn::Layer& layer = model_->layer(layer_index);

  if (lp.solve == SolveMode::kDense && config_.self_contained_dense) {
    // Self-contained mode: the stored copy is the golden W, bit for bit.
    recovery.weights_changed =
        CopyCountingChanges(gold.stored_weights.flat(), layer.Params());
    recovery.weights_written = gold.stored_weights.size();
    return recovery;
  }

  const Tensor x = GoldenInputOf(layer_index);
  auto y = GoldenOutputOf(layer_index);
  if (!y.ok()) {
    recovery.status = y.status();
    return recovery;
  }

  switch (lp.solve) {
    case SolveMode::kNone:
      recovery.status =
          Status(StatusCode::kInvalidArgument, "layer has no parameters");
      return recovery;
    case SolveMode::kBias: {
      auto& bias = static_cast<nn::BiasLayer&>(layer);
      const Tensor params = BiasSolveParams(x, y.value(), bias.channels());
      recovery.weights_changed =
          CopyCountingChanges(params.flat(), bias.Params());
      recovery.weights_written = params.size();
      return recovery;
    }
    case SolveMode::kDense: {
      auto& dense = static_cast<nn::DenseLayer&>(layer);
      auto solved =
          DenseSolveParams(dense, x, y.value(), lp.solve_dummy_rows,
                           gold.solve_seed, gold.dense_solve_outputs);
      if (!solved.ok()) {
        recovery.status = solved.status();
        return recovery;
      }
      recovery.weights_changed =
          CopyCountingChanges(solved.value().flat(), dense.Params());
      recovery.weights_written = solved.value().size();
      return recovery;
    }
    case SolveMode::kConvFull: {
      auto& conv = static_cast<nn::Conv2DLayer&>(layer);
      auto solved = ConvSolveParamsFull(conv, x, y.value());
      if (!solved.ok()) {
        recovery.status = solved.status();
        return recovery;
      }
      recovery.weights_changed =
          CopyCountingChanges(solved.value().flat(), conv.Params());
      recovery.weights_written = solved.value().size();
      return recovery;
    }
    case SolveMode::kConvPartial: {
      auto& conv = static_cast<nn::Conv2DLayer&>(layer);
      const std::vector<std::size_t> suspects =
          ecc::LocalizeErrors(conv.filters(), gold.crc);
      if (suspects.empty()) {
        recovery.status = Status(
            StatusCode::kDataLoss,
            "signature mismatch but 2-D CRC localization found no suspects");
        return recovery;
      }
      recovery.exact_system =
          suspects.size() <= lp.conv_g * lp.conv_g * conv.out_channels();
      auto solved = ConvSolveParamsPartial(conv, x, y.value(), suspects,
                                           &recovery.partial);
      if (!solved.ok()) {
        recovery.status = solved.status();
        return recovery;
      }
      // A filter with more suspects than G² equations was solved in the
      // least-squares sense only.
      recovery.exact_system = recovery.partial.least_squares_filters == 0;
      recovery.weights_changed =
          CopyCountingChanges(solved.value().flat(), conv.Params());
      recovery.weights_written = recovery.partial.solved_weights;
      if (recovery.partial.unsolved_filters > 0) {
        recovery.status =
            Status(StatusCode::kUnsolvable,
                   std::to_string(recovery.partial.unsolved_filters) +
                       " filters remained unsolvable");
      }
      return recovery;
    }
  }
  recovery.status = Status(StatusCode::kInternal, "unhandled solve mode");
  return recovery;
}

RecoveryReport MilrProtector::Recover(const DetectionReport& report) {
  RecoveryReport out;
  // Ascending order: forward propagation below a layer then uses
  // already-recovered parameters ("applied in sequential order", §V-A).
  std::vector<std::size_t> order = report.flagged_layers;
  std::sort(order.begin(), order.end());
  std::vector<bool> handled(model_->LayerCount(), false);
  for (const std::size_t index : order) {
    if (handled[index]) continue;
    // Extension: a conv and its adjacent bias both flagged would each feed
    // on the other's corrupted parameters — solve the pair jointly.
    const LayerPlan& lp = plan_.layers[index];
    if (lp.has_joint_bias() &&
        std::find(order.begin(), order.end(), lp.joint_bias) != order.end()) {
      RecoverConvBiasJointly(index, lp.joint_bias, out);
      handled[lp.joint_bias] = true;
      continue;
    }
    out.layers.push_back(RecoverLayer(index));
  }
  return out;
}

void MilrProtector::RecoverConvBiasJointly(std::size_t conv_index,
                                           std::size_t bias_index,
                                           RecoveryReport& out) {
  LayerRecovery conv_recovery;
  conv_recovery.layer_index = conv_index;
  conv_recovery.mode = SolveMode::kConvFull;
  LayerRecovery bias_recovery;
  bias_recovery.layer_index = bias_index;
  bias_recovery.mode = SolveMode::kBias;

  const Tensor x = GoldenInputOf(conv_index);
  auto y = GoldenOutputOf(bias_index);  // output *after* the bias
  if (!y.ok()) {
    conv_recovery.status = y.status();
    bias_recovery.status = y.status();
    out.layers.push_back(conv_recovery);
    out.layers.push_back(bias_recovery);
    return;
  }
  auto& conv = static_cast<nn::Conv2DLayer&>(model_->layer(conv_index));
  auto solved = ConvBiasSolveJoint(conv, x, y.value());
  if (!solved.ok()) {
    conv_recovery.status = solved.status();
    bias_recovery.status = solved.status();
  } else {
    conv_recovery.weights_changed = CopyCountingChanges(
        solved.value().filters.flat(), conv.Params());
    bias_recovery.weights_changed = CopyCountingChanges(
        solved.value().bias.flat(), model_->layer(bias_index).Params());
    conv_recovery.weights_written = solved.value().filters.size();
    bias_recovery.weights_written = solved.value().bias.size();
  }
  out.layers.push_back(conv_recovery);
  out.layers.push_back(bias_recovery);
}

RecoveryReport MilrProtector::DetectAndRecover() {
  RecoveryReport combined;
  combined.passes = 0;
  const std::size_t max_passes = std::max<std::size_t>(
      1, config_.max_recovery_passes);
  for (std::size_t pass = 0; pass < max_passes; ++pass) {
    const DetectionReport report = Detect();
    if (!report.any()) break;
    RecoveryReport round = Recover(report);
    ++combined.passes;
    std::size_t changed = 0;
    for (auto& layer : round.layers) {
      changed += layer.weights_changed;
      combined.layers.push_back(std::move(layer));
    }
    // Fixpoint: a pass that rewrote every flagged layer to the values it
    // already held cannot make further headway (the residual flags are
    // float-rounding artifacts or an unrecoverable segment).
    if (changed == 0) break;
  }
  if (combined.passes == 0) combined.passes = 1;  // clean detect counts
  return combined;
}

StorageBreakdown MilrProtector::Storage() const {
  StorageBreakdown storage;
  for (const auto& [index, tensor] : checkpoints_) {
    (void)index;
    storage.checkpoint_bytes += tensor.SizeBytes();
  }
  storage.final_output_bytes = final_output_.SizeBytes();
  storage.seed_bytes = sizeof(std::uint64_t);  // the master seed
  for (std::size_t i = 0; i < golden_.size(); ++i) {
    const LayerGolden& gold = golden_[i];
    storage.signature_bytes += gold.signature.size() * sizeof(float);
    storage.dense_solve_bytes +=
        gold.dense_solve_outputs.SizeBytes() + gold.stored_weights.SizeBytes();
    storage.dummy_output_bytes += gold.backward_dummy_outputs.SizeBytes();
    storage.crc_bytes += gold.crc.SizeBytes();
  }
  return storage;
}

}  // namespace milr::core
