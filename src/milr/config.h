// MILR configuration knobs.
#pragma once

#include <cstdint>

namespace milr::core {

struct MilrConfig {
  /// Master seed: the only secret MILR must remember to regenerate every
  /// detection input, dummy parameter and dummy input stream.
  std::uint64_t master_seed = 0x4d494c52u;  // "MILR"

  /// Parameters per CRC code in the 2-D localization grid (paper: 4).
  std::size_t crc_group = 4;

  /// When true (default) the planner may replace a full input checkpoint
  /// with PRNG dummy filters/columns where that is cheaper, as Section III
  /// describes. Disabling forces checkpoints everywhere a layer is
  /// non-invertible — the ablation baseline.
  bool allow_dummy_augmentation = true;

  /// When true, convolution layers with G² < F²Z use 2-D-CRC partial
  /// recoverability instead of dummy-input padding (the paper's choice for
  /// all three evaluation networks).
  bool conv_partial_recovery = true;

  /// Range of the canonical PRNG tensors ([-limit, limit)). Kept at O(1) so
  /// activations stay in a numerically friendly range for the solvers.
  float random_input_limit = 1.0f;

  // ----- Extensions beyond the paper (both default OFF = paper-faithful) --

  /// Paper mode (false): dense solving uses the canonical golden pair plus
  /// N−1 PRNG dummy rows, so its result is poisoned when a *neighboring*
  /// layer in the same checkpoint segment is also erroneous (§V-A's
  /// multi-erroneous-layer limitation).
  /// Extension (true): store a copy of each dense layer's W — the N·P
  /// floats the paper's N−1 stored output rows nearly take anyway — and
  /// checkpoint every dense layer's input (N floats; the network's first
  /// layer reads the seed-regenerated canonical input instead). Recovery
  /// is a bit-exact copy with no solve, and since every dense layer is a
  /// segment boundary, no other layer's repair solves backward through
  /// dense weights.
  bool self_contained_dense = false;

  /// Number of detect→recover iterations DetectAndRecover may run. The
  /// paper does one. Further passes let bias / conv layers re-solve against
  /// neighbors healed in the previous pass, healing many
  /// multi-erroneous-layer segments the single pass cannot.
  std::size_t max_recovery_passes = 1;

  /// Extension (false = paper): when a fully-solvable conv layer and its
  /// adjacent bias are BOTH corrupted (one plaintext block can straddle
  /// their boundary), solve them jointly — append a ones column to the
  /// im2col matrix so each filter's system has F²Z+1 unknowns [W; b],
  /// solvable when G² ≥ F²Z+1. Without this, each layer's recovery feeds on
  /// the other's corrupted parameters and both fail.
  bool joint_conv_bias = false;

  /// Extension (0 = paper-exact comparison): relative tolerance for the
  /// detection signature compare. MILR's solves round through float32, so
  /// a recovered layer's signature differs from golden at rounding scale;
  /// with exact comparison it stays flagged forever and repeated recovery
  /// passes can poison healthy neighbors. A small tolerance ignores
  /// rounding-scale residue; genuinely harmful errors sit orders of
  /// magnitude above it. (The paper's detector likewise only sees errors
  /// "significant enough to detect", §V-B.)
  float detect_relative_tolerance = 0.0f;

  /// When choosing between dummy-stream augmentation and a full input
  /// checkpoint for a non-invertible layer, prefer the checkpoint if its
  /// storage is within (1 + slack) of the dummy data's. A dense layer's
  /// augmented inverse costs an O(N³) solve through possibly-corrupted
  /// weights at every recovery, while a checkpoint is free to read — for a
  /// few percent of storage the checkpoint is strictly better. 0 restores
  /// the paper's pure-storage comparison.
  float checkpoint_cost_slack = 0.15f;
};

/// Convenience preset: all documented extensions on (see the ablation
/// bench for what each contributes).
inline MilrConfig ExtendedMilrConfig() {
  MilrConfig config;
  config.self_contained_dense = true;
  config.max_recovery_passes = 3;
  config.joint_conv_bias = true;
  config.detect_relative_tolerance = 1e-4f;
  return config;
}

}  // namespace milr::core
