#include "milr/plan.h"

#include <sstream>

namespace milr::core {

const char* SolveModeName(SolveMode mode) {
  switch (mode) {
    case SolveMode::kNone: return "none";
    case SolveMode::kDense: return "dense";
    case SolveMode::kConvFull: return "conv-full";
    case SolveMode::kConvPartial: return "conv-partial";
    case SolveMode::kBias: return "bias";
  }
  return "unknown";
}

const char* BackwardModeName(BackwardMode mode) {
  switch (mode) {
    case BackwardMode::kIdentity: return "identity";
    case BackwardMode::kReshape: return "reshape";
    case BackwardMode::kCrop: return "crop";
    case BackwardMode::kDenseExact: return "dense-exact";
    case BackwardMode::kDenseAugmented: return "dense-augmented";
    case BackwardMode::kConvExact: return "conv-exact";
    case BackwardMode::kConvAugmented: return "conv-augmented";
    case BackwardMode::kBiasSubtract: return "bias-subtract";
    case BackwardMode::kBlocked: return "blocked";
  }
  return "unknown";
}

namespace {

LayerPlan PlanDense(const nn::DenseLayer& dense, bool canonical_input,
                    const MilrConfig& config) {
  LayerPlan plan;
  const std::size_t n = dense.in_features();
  const std::size_t p = dense.out_features();
  plan.solve = SolveMode::kDense;
  if (config.self_contained_dense) {
    // Extension (see MilrConfig::self_contained_dense): a copy of W, N·P
    // floats, one row more than paper mode's N−1 dummy-row outputs; recovery
    // is a bit-exact copy. Checkpointing the input (N floats) makes the
    // layer a segment boundary, so no repair solves backward through its
    // weights. The network's first layer reads the seed-regenerated
    // canonical input and needs no checkpoint.
    plan.planned_bytes += n * p * sizeof(float);
    plan.backward = BackwardMode::kBlocked;
    if (!canonical_input) {
      plan.input_checkpoint = true;
      plan.planned_bytes += n * sizeof(float);
    }
    return plan;
  }
  // Parameter solving needs M ≥ N equations; the canonical recovery pass
  // contributes one real row, the rest are PRNG dummy rows whose golden
  // outputs must be stored (Section IV-A b).
  plan.solve_dummy_rows = n > 0 ? n - 1 : 0;
  plan.planned_bytes += plan.solve_dummy_rows * p * sizeof(float);

  if (p >= n) {
    plan.backward = BackwardMode::kDenseExact;
    return plan;
  }
  // α dummy parameter columns make the system square; their single-row
  // golden outputs (α = N − P floats) cost slightly less than an N-float
  // checkpoint, but inverting the augmented system is an O(N³) solve
  // through the layer's own (possibly corrupted) weights. Within the
  // configured slack, prefer the checkpoint.
  const std::size_t dummy_cost = (n - p) * sizeof(float);
  const std::size_t checkpoint_cost = n * sizeof(float);
  const bool checkpoint_competitive =
      static_cast<double>(checkpoint_cost) <=
      static_cast<double>(dummy_cost) * (1.0 + config.checkpoint_cost_slack);
  if (config.allow_dummy_augmentation && !checkpoint_competitive) {
    plan.backward = BackwardMode::kDenseAugmented;
    plan.dummy_count = n - p;
    plan.planned_bytes += dummy_cost;
  } else {
    plan.backward = BackwardMode::kBlocked;
    plan.input_checkpoint = true;
    plan.planned_bytes += checkpoint_cost;
  }
  return plan;
}

LayerPlan PlanConv(const nn::Conv2DLayer& conv, const Shape& input,
                   const MilrConfig& config) {
  LayerPlan plan;
  const std::size_t g = conv.OutputExtent(input[0]);
  const std::size_t unknowns = conv.PatchLength();  // F²Z
  const std::size_t y = conv.out_channels();
  plan.conv_g = g;
  plan.conv_unknowns = unknowns;

  if (g * g >= unknowns) {
    plan.solve = SolveMode::kConvFull;
  } else {
    // G² < F²Z: the paper's partial recoverability — 2-D CRC codes locate
    // erroneous weights so the recovery system only has those unknowns.
    plan.solve = SolveMode::kConvPartial;
    if (config.conv_partial_recovery) {
      const std::size_t f2 = conv.filter_size() * conv.filter_size();
      const std::size_t z = conv.in_channels();
      const std::size_t group = config.crc_group;
      const std::size_t row_codes = f2 * z * ((y + group - 1) / group);
      const std::size_t col_codes = f2 * y * ((z + group - 1) / group);
      plan.planned_bytes += row_codes + col_codes;  // one CRC-8 byte each
    }
  }

  if (y >= unknowns) {
    plan.backward = BackwardMode::kConvExact;
  } else {
    const std::size_t alpha = unknowns - y;
    const std::size_t dummy_cost = alpha * g * g * sizeof(float);
    const std::size_t checkpoint_cost = input.NumElements() * sizeof(float);
    const bool checkpoint_competitive =
        static_cast<double>(checkpoint_cost) <=
        static_cast<double>(dummy_cost) *
            (1.0 + config.checkpoint_cost_slack);
    if (config.allow_dummy_augmentation && !checkpoint_competitive) {
      plan.backward = BackwardMode::kConvAugmented;
      plan.dummy_count = alpha;
      plan.planned_bytes += dummy_cost;
    } else {
      plan.backward = BackwardMode::kBlocked;
      plan.input_checkpoint = true;
      plan.planned_bytes += checkpoint_cost;
    }
  }
  return plan;
}

}  // namespace

ProtectionPlan BuildPlan(const nn::Model& model, const MilrConfig& config) {
  ProtectionPlan plan;
  plan.layers.reserve(model.LayerCount());
  for (std::size_t i = 0; i < model.LayerCount(); ++i) {
    const nn::Layer& layer = model.layer(i);
    const Shape& input = model.ShapeAt(i);
    LayerPlan lp;
    switch (layer.kind()) {
      case nn::LayerKind::kReLU:
      case nn::LayerKind::kDropout:
        break;  // identity / no parameters
      case nn::LayerKind::kFlatten:
        lp.backward = BackwardMode::kReshape;
        break;
      case nn::LayerKind::kZeroPad2D:
        // Adds only zeros: backward pass crops them off (§IV-E d).
        lp.backward = BackwardMode::kCrop;
        break;
      case nn::LayerKind::kAvgPool2D:
      case nn::LayerKind::kMaxPool2D:
        // Non-invertible and parameter-free: checkpoint the input
        // (Section IV-C).
        lp.backward = BackwardMode::kBlocked;
        lp.input_checkpoint = true;
        lp.planned_bytes += input.NumElements() * sizeof(float);
        break;
      case nn::LayerKind::kBias:
        lp.solve = SolveMode::kBias;
        lp.backward = BackwardMode::kBiasSubtract;
        break;
      case nn::LayerKind::kDense:
        lp = PlanDense(static_cast<const nn::DenseLayer&>(layer), i == 0,
                       config);
        break;
      case nn::LayerKind::kConv2D: {
        const auto& conv = static_cast<const nn::Conv2DLayer&>(layer);
        lp = PlanConv(conv, input, config);
        // Joint conv+bias recovery: possible when the next layer is the
        // conv's bias and one extra unknown per filter still fits in G²
        // equations.
        if (config.joint_conv_bias && lp.solve == SolveMode::kConvFull &&
            i + 1 < model.LayerCount() &&
            model.layer(i + 1).kind() == nn::LayerKind::kBias &&
            model.layer(i + 1).ParamCount() == conv.out_channels() &&
            lp.conv_g * lp.conv_g >= lp.conv_unknowns + 1) {
          lp.joint_bias = i + 1;
        }
        break;
      }
    }
    if (lp.input_checkpoint) plan.checkpoint_indices.push_back(i);
    plan.layers.push_back(lp);
  }
  return plan;
}

std::string PlanToString(const nn::Model& model, const ProtectionPlan& plan) {
  std::ostringstream out;
  out << "idx  layer         params     solve         backward         ckpt  bytes\n";
  for (std::size_t i = 0; i < plan.layers.size(); ++i) {
    const auto& lp = plan.layers[i];
    char line[160];
    std::snprintf(line, sizeof(line), "%-4zu %-13s %-10zu %-13s %-16s %-5s %zu\n",
                  i, model.layer(i).name().c_str(),
                  model.layer(i).ParamCount(), SolveModeName(lp.solve),
                  BackwardModeName(lp.backward),
                  lp.input_checkpoint ? "yes" : "no", lp.planned_bytes);
    out << line;
  }
  return out.str();
}

}  // namespace milr::core
