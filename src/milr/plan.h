// Protection planning: structural analysis of a model deciding, per layer,
// how MILR will detect, invert and solve it (Sections III-IV of the paper).
//
// The planner is pure structure — it looks only at shapes, never at weight
// values — so it is unit-testable against the paper's published layer
// tables, and MilrProtector fills in the golden data afterwards.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ecc/crc2d.h"
#include "milr/config.h"
#include "nn/model.h"

namespace milr::core {

/// How parameters of a layer are recovered.
enum class SolveMode {
  kNone,         // no parameters (relu / pool / flatten)
  kDense,        // paper: golden pair + N−1 PRNG rows, LU (Section IV-A);
                 // self-contained: copy of the stored weights
  kConvFull,     // G² ≥ F²Z: full filter re-solve (Section IV-B)
  kConvPartial,  // G² < F²Z: 2-D CRC localization + reduced system
  kBias,         // subtract input from output (Section IV-E)
};

/// How a golden output is moved backward *through* a layer.
enum class BackwardMode {
  kIdentity,       // relu (treated as linear during recovery), dropout
  kReshape,        // flatten
  kCrop,           // zero padding (lossless shape adapter, §IV-E d)
  kDenseExact,     // P ≥ N: right-solve with the layer's own weights
  kDenseAugmented, // P < N: PRNG dummy parameter columns + stored outputs
  kConvExact,      // Y ≥ F²Z: patch systems solvable from real filters
  kConvAugmented,  // Y < F²Z: PRNG dummy filters + stored outputs
  kBiasSubtract,   // bias: output − parameters
  kBlocked,        // non-invertible (pooling, or checkpoint chosen instead)
};

const char* SolveModeName(SolveMode mode);
const char* BackwardModeName(BackwardMode mode);

/// Structural plan for one layer.
struct LayerPlan {
  SolveMode solve = SolveMode::kNone;
  BackwardMode backward = BackwardMode::kIdentity;

  /// Whether the golden input activation of this layer is checkpointed.
  bool input_checkpoint = false;

  /// Dummy augmentation width: dense → α parameter columns (N−P);
  /// conv → α extra filters (F²Z−Y). Zero when not augmented.
  std::size_t dummy_count = 0;

  /// Dense solving in paper mode: PRNG input rows added to the single
  /// canonical recovery row so M ≥ N (N−1). Zero in self-contained mode,
  /// which stores the weights instead.
  std::size_t solve_dummy_rows = 0;

  /// Conv geometry captured at planning time.
  std::size_t conv_g = 0;        // output extent G
  std::size_t conv_unknowns = 0; // F²Z

  /// Estimated reliable-storage bytes this layer's plan costs (golden data
  /// only; see StorageBreakdown for the full accounting).
  std::size_t planned_bytes = 0;

  /// Extension (MilrConfig::joint_conv_bias): index of the adjacent bias
  /// layer this conv can be solved jointly with, or SIZE_MAX.
  std::size_t joint_bias = static_cast<std::size_t>(-1);

  bool has_joint_bias() const {
    return joint_bias != static_cast<std::size_t>(-1);
  }
};

/// Whole-network plan.
struct ProtectionPlan {
  std::vector<LayerPlan> layers;
  /// Indices (into model layers) whose *input* activation is checkpointed.
  /// The canonical network input (index 0) is free — regenerated from the
  /// master seed — and the final output is always stored.
  std::vector<std::size_t> checkpoint_indices;
};

/// Builds the structural plan for `model` under `config`.
ProtectionPlan BuildPlan(const nn::Model& model, const MilrConfig& config);

/// Renders a human-readable plan table (used by examples and DESIGN docs).
std::string PlanToString(const nn::Model& model, const ProtectionPlan& plan);

}  // namespace milr::core
