// MilrProtector: the three MILR phases over a live model (Section III).
//
//  * Initialization — one linearized forward pass on the canonical seeded
//    PRNG input records full checkpoints (where the plan demands), partial
//    checkpoints (detection signatures), dummy-stream golden outputs, 2-D
//    CRC tables and the final output; in self-contained mode, a copy of
//    each dense layer's weights. Runs once, when the network is deployed.
//  * Error detection — regenerates each layer's private PRNG input, applies
//    the layer's parameters to it and compares the partial checkpoint.
//    Mismatching layers are flagged. Each parameter is read once: a dense
//    layer multiplies one PRNG row through its weights (N·P), a conv layer
//    one PRNG patch through its filters (F²Z·Y, independent of the image
//    extent), a bias layer sums its values. That is cheaper than one
//    prediction, whose convs cost G²·F²Z·Y each (Table X reports the
//    paper's detection time).
//  * Error recovery — for each flagged layer, the golden input is propagated
//    forward from the nearest preceding checkpoint and the golden output
//    backward from the nearest succeeding checkpoint (through invertible /
//    dummy-augmented layers), then the layer's parameter-solving function
//    recomputes and overwrites its weights.
//
// Guarantee boundary (same as the paper's): any number of weight errors in a
// single layer between two checkpoints is recoverable; two or more erroneous
// layers in one segment degrade recovery because the propagated golden pair
// itself passes through corrupted parameters. In the preset
// (MilrConfig::self_contained_dense) every dense layer is a segment
// boundary and is restored from its stored weights without a solve, so a
// corrupted dense layer never poisons a neighbor's recovery.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "milr/algebra.h"
#include "milr/config.h"
#include "milr/plan.h"
#include "nn/model.h"
#include "support/status.h"

namespace milr::core {

struct DetectionReport {
  std::vector<std::size_t> flagged_layers;  // ascending model indices
  bool any() const { return !flagged_layers.empty(); }
};

struct LayerRecovery {
  std::size_t layer_index = 0;
  SolveMode mode = SolveMode::kNone;
  Status status;                    // OK even for approximate recovery
  bool exact_system = true;         // false when least-squares fallback used
  std::size_t weights_written = 0;
  std::size_t weights_changed = 0;  // written values that differ from before
  PartialSolveStats partial;        // conv-partial details
};

struct RecoveryReport {
  std::vector<LayerRecovery> layers;
  std::size_t passes = 1;  // detect→recover iterations actually run
  bool all_ok() const {
    for (const auto& l : layers) {
      if (!l.status.ok()) return false;
    }
    return true;
  }
};

/// Reliable-storage accounting for Tables V / VII / IX.
struct StorageBreakdown {
  std::size_t checkpoint_bytes = 0;    // full input checkpoints
  std::size_t final_output_bytes = 0;  // golden network output Y
  std::size_t signature_bytes = 0;     // partial checkpoints + bias sums
  std::size_t dense_solve_bytes = 0;   // dense recovery data: golden outputs
                                       // of N−1 dummy input rows (paper) or
                                       // the stored weights (self-contained)
  std::size_t dummy_output_bytes = 0;  // golden outputs of dummy cols/filters
  std::size_t crc_bytes = 0;           // 2-D CRC tables
  std::size_t seed_bytes = 0;          // PRNG seeds

  std::size_t total() const {
    return checkpoint_bytes + final_output_bytes + signature_bytes +
           dense_solve_bytes + dummy_output_bytes + crc_bytes + seed_bytes;
  }
};

class MilrProtector {
 public:
  /// Plans and initializes protection for `model` (which must be in its
  /// golden state and outlive the protector).
  explicit MilrProtector(nn::Model& model, MilrConfig config = {});

  /// Error-detection phase over all parameterized layers.
  DetectionReport Detect() const;

  /// Error-recovery phase for the layers in `report`, in ascending order.
  RecoveryReport Recover(const DetectionReport& report);

  /// Convenience: Detect, then Recover if anything was flagged.
  RecoveryReport DetectAndRecover();

  const ProtectionPlan& plan() const { return plan_; }
  const MilrConfig& config() const { return config_; }
  StorageBreakdown Storage() const;

  /// The canonical recovery input (regenerated from the master seed).
  Tensor CanonicalInput() const;

  /// Golden input activation of layer `i` — either a stored checkpoint or
  /// recomputed by forward propagation (exposed for tests).
  Tensor GoldenInputOf(std::size_t layer_index) const;

 private:
  struct LayerGolden {
    std::vector<float> signature;       // detection partial checkpoint
    double bias_sum = 0.0;              // bias layers only
    Tensor dense_solve_outputs;         // paper mode: (solve_dummy_rows, P)
    Tensor stored_weights;              // self-contained dense: W (N, P)
    Tensor backward_dummy_outputs;      // dense: (α), conv: (G²,α)
    ecc::Crc2dCodes crc;                // conv-partial layers only
    std::uint64_t detect_seed = 0;
    std::uint64_t solve_seed = 0;
    std::uint64_t dummy_seed = 0;
  };

  void Initialize();
  /// Fresh PRNG input for the segment starting at checkpoint boundary
  /// `boundary_index` (regenerated from a derived seed).
  Tensor SegmentInput(std::size_t boundary_index) const;
  std::vector<float> ComputeSignature(std::size_t layer_index) const;
  /// Linearized single-layer forward (ReLU = identity) for recovery flows.
  Tensor LinearizedForward(std::size_t layer_index, const Tensor& x) const;
  /// Moves a golden output value backward through layer `t`.
  Result<Tensor> BackwardThrough(std::size_t t, const Tensor& y) const;
  /// Golden output for layer `i` via backward propagation from the nearest
  /// succeeding checkpoint.
  Result<Tensor> GoldenOutputOf(std::size_t layer_index) const;
  LayerRecovery RecoverLayer(std::size_t layer_index);
  /// Extension: solves a flagged conv and its flagged adjacent bias as one
  /// augmented system (MilrConfig::joint_conv_bias).
  void RecoverConvBiasJointly(std::size_t conv_index, std::size_t bias_index,
                              RecoveryReport& out);

  nn::Model* model_;
  MilrConfig config_;
  ProtectionPlan plan_;
  std::vector<LayerGolden> golden_;
  std::unordered_map<std::size_t, Tensor> checkpoints_;  // input of layer i
  Tensor final_output_;
};

}  // namespace milr::core
