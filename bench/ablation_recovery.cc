// Ablation of the recovery-engine design choices DESIGN.md documents:
//
//   paper-literal : dense solving uses the propagated golden pair plus
//                   N−1 dummy rows; single recovery pass; exact detection
//                   compare; zero checkpoint slack (pure-storage choice).
//   +checkpoints  : checkpoint-cost slack (dense inputs checkpointed
//                   instead of O(N³) augmented inverses).
//   robust preset : + self-contained dense layers (stored weights,
//                   checkpointed inputs), joint conv+bias solving,
//                   multi-pass recovery, rounding-tolerant detection
//                   (what the figure benches run).
//
// The point the paper's own figures imply: once two layers of one
// checkpoint segment are corrupted — routine at the plotted error rates —
// the literal dataflow cannot restore accuracy, so the authors'
// implementation must have behaved like the robust preset.
#include <cstdio>

#include "bench_common.h"

int main() {
  using namespace milr;
  const double whole_weight_rate = 5e-4;
  const std::size_t runs = std::max<std::size_t>(3, apps::RunsPerPoint());

  struct Variant {
    const char* name;
    core::MilrConfig config;
  };
  core::MilrConfig paper_literal;
  paper_literal.checkpoint_cost_slack = 0.0f;
  core::MilrConfig with_checkpoints;  // library defaults
  const std::vector<Variant> variants = {
      {"paper-literal", paper_literal},
      {"+checkpoints", with_checkpoints},
      {"robust preset", core::ExtendedMilrConfig()},
  };

  std::printf("ablation_recovery: cifar_small, whole-weight errors at "
              "q=%.0e, %zu runs\n", whole_weight_rate, runs);
  auto bundle = apps::LoadOrTrain(apps::kCifarSmall);
  for (const auto& variant : variants) {
    apps::ExperimentContext context(bundle, variant.config);
    std::vector<double> accs;
    for (std::size_t run = 0; run < runs; ++run) {
      accs.push_back(context
                         .RunWholeWeightTrial(apps::Scheme::kMilr,
                                              whole_weight_rate,
                                              0xf000 + run * 977)
                         .normalized_accuracy);
    }
    std::printf("  %-15s %s\n", variant.name,
                apps::FormatBoxRow("", apps::BoxStats::Of(accs)).c_str());
    std::fflush(stdout);
  }
  return 0;
}
