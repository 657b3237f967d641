// Shared experiment plumbing for the paper's evaluation (Section V).
//
// A trial = restore golden weights → inject faults → apply a protection
// scheme → measure normalized accuracy (accuracy / clean accuracy, the
// quantity every figure in the paper plots) → restore.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "apps/networks.h"
#include "memory/ecc_memory.h"
#include "memory/fault_injector.h"
#include "milr/availability.h"
#include "milr/protector.h"
#include "runtime/engine.h"
#include "runtime/fault_drive.h"

namespace milr::apps {

/// The four protection schemes compared in Figs. 5/7/9.
enum class Scheme { kNoRecovery, kEcc, kMilr, kEccMilr };

const char* SchemeName(Scheme scheme);

/// Box-plot statistics as the paper's figures report them.
struct BoxStats {
  double median = 0.0;
  double q25 = 0.0;
  double q75 = 0.0;
  double min = 0.0;
  double max = 0.0;

  static BoxStats Of(std::vector<double> values);
};

/// Number of repetitions per experiment point (paper: 40). Default 3 for CI
/// speed; override with the MILR_RUNS environment variable.
std::size_t RunsPerPoint();

/// Test-set size cap used when evaluating accuracy inside sweeps; override
/// with MILR_EVAL.
std::size_t EvalCap();

struct TrialResult {
  double normalized_accuracy = 0.0;
  std::size_t injected_weights = 0;
  std::size_t touched_layers = 0;
  std::size_t flagged_layers = 0;
  bool all_layers_detected = true;  // MILR detection coverage (§V-B/§V-C)
};

/// Wraps one trained network with its golden snapshot, a MILR protector and
/// an ECC baseline, and runs fault-injection trials against it.
class ExperimentContext {
 public:
  /// By default experiments run the robust-recovery preset
  /// (core::ExtendedMilrConfig): self-contained dense layers (stored
  /// weights and checkpointed inputs, so recovery is a copy), joint
  /// conv+bias solving and multi-pass recovery. The paper's text-literal
  /// recovery dataflow (propagated real pairs, single pass) cannot
  /// reproduce the paper's own figures — a corrupted neighbor poisons the
  /// square dense system — which the ablation_recovery bench demonstrates;
  /// the authors' implementation must have behaved like the preset.
  explicit ExperimentContext(NetworkBundle& bundle,
                             core::MilrConfig config =
                                 core::ExtendedMilrConfig());

  NetworkBundle& bundle() { return *bundle_; }
  core::MilrProtector& protector() { return *protector_; }
  memory::EccProtectedModel& ecc() { return *ecc_; }

  void RestoreGolden();

  /// Accuracy of the model as it currently stands, normalized to clean
  /// accuracy (capped test subset, parallel).
  double NormalizedAccuracy();

  /// Experiment (1): random bit flips at `rber` under `scheme`.
  TrialResult RunRberTrial(Scheme scheme, double rber, std::uint64_t seed);

  /// Experiment (2): whole-weight (all-32-bit) errors at rate `q`.
  TrialResult RunWholeWeightTrial(Scheme scheme, double q, std::uint64_t seed);

  /// Experiment (3): whole-layer corruption, one row per parameterized
  /// layer (Tables IV/VI/VIII).
  struct LayerTrialRow {
    std::size_t layer_index = 0;
    std::string layer_name;
    bool partial_recovery = false;  // conv with G² < F²Z ("N/A*" rows)
    double none_accuracy = 0.0;
    double milr_accuracy = 0.0;
    bool recovered_clean = false;   // recovery status OK and exact
  };
  std::vector<LayerTrialRow> RunWholeLayerSweep(std::uint64_t seed);

  /// Fig. 11: injects exactly `errors` whole-weight faults and times
  /// detect+recover. Returns seconds.
  double TimedRecovery(std::size_t errors, std::uint64_t seed);

 private:
  TrialResult ApplySchemeAndMeasure(Scheme scheme,
                                    const memory::InjectionReport& report);

  NetworkBundle* bundle_;
  std::vector<std::vector<float>> golden_;
  std::unique_ptr<core::MilrProtector> protector_;
  std::unique_ptr<memory::EccProtectedModel> ecc_;
};

/// Formats one sweep row: "rate  median q25 q75 min max".
std::string FormatBoxRow(const std::string& label, const BoxStats& stats);

// ------------------------------------------------------------- live runtime

/// Configuration for a live availability trial: how long to serve, how much
/// client pressure, how the engine is tuned, and the fault-arrival process.
struct LiveServingOptions {
  double duration_seconds = 2.0;
  std::size_t client_threads = 2;
  runtime::EngineConfig engine;
  runtime::FaultCampaign campaign;
  bool inject_faults = true;
};

struct LiveServingResult {
  runtime::MetricsSnapshot metrics;  // measured by the engine itself
  double wall_seconds = 0.0;
  std::size_t fault_events = 0;
};

/// The live counterpart of the paper's analytic availability model: serves
/// the bundle's test set through an InferenceEngine while a FaultDrive
/// campaign attacks parameter memory and the background scrubber repairs it
/// online. The bundle's weights are restored to golden before returning.
LiveServingResult RunLiveServingTrial(NetworkBundle& bundle,
                                      const LiveServingOptions& options);

/// Measures the recovery-time curve Tr(n) on a live engine: for each count
/// in `error_counts`, injects that many exact weight errors, times the
/// quarantined detect+recover cycle, and restores `golden`. Throws
/// std::invalid_argument if the engine's background scrubber is enabled —
/// it would race the timed cycles and silently zero out points.
core::RecoveryTimeModel MeasureRecoveryCurve(
    runtime::InferenceEngine& engine,
    const std::vector<std::vector<float>>& golden,
    const std::vector<double>& error_counts, std::uint64_t seed);

}  // namespace milr::apps
