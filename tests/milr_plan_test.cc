#include <gtest/gtest.h>

#include "apps/networks.h"
#include "milr/plan.h"
#include "nn/model.h"

namespace milr::core {
namespace {

TEST(PlanTest, PoolingForcesCheckpoint) {
  nn::Model model(Shape{8, 8, 2});
  model.AddMaxPool(2);
  const auto plan = BuildPlan(model, {});
  EXPECT_TRUE(plan.layers[0].input_checkpoint);
  EXPECT_EQ(plan.layers[0].backward, BackwardMode::kBlocked);
  EXPECT_EQ(plan.layers[0].planned_bytes, 8u * 8u * 2u * 4u);
  ASSERT_EQ(plan.checkpoint_indices.size(), 1u);
  EXPECT_EQ(plan.checkpoint_indices[0], 0u);
}

TEST(PlanTest, WideDenseIsExactlyInvertible) {
  nn::Model model(Shape{4});
  model.AddDense(9);  // P ≥ N
  const auto plan = BuildPlan(model, {});
  EXPECT_EQ(plan.layers[0].solve, SolveMode::kDense);
  EXPECT_EQ(plan.layers[0].backward, BackwardMode::kDenseExact);
  EXPECT_EQ(plan.layers[0].dummy_count, 0u);
  // Solving still needs N−1 dummy rows, each storing P outputs.
  EXPECT_EQ(plan.layers[0].solve_dummy_rows, 3u);
  EXPECT_EQ(plan.layers[0].planned_bytes, 3u * 9u * 4u);
}

TEST(PlanTest, NarrowDenseGetsDummyColumns) {
  nn::Model model(Shape{10});
  model.AddDense(4);  // P < N → α = 6
  const auto plan = BuildPlan(model, {});
  EXPECT_EQ(plan.layers[0].backward, BackwardMode::kDenseAugmented);
  EXPECT_EQ(plan.layers[0].dummy_count, 6u);
  EXPECT_FALSE(plan.layers[0].input_checkpoint);
}

TEST(PlanTest, NarrowDenseWithoutAugmentationCheckpoints) {
  nn::Model model(Shape{10});
  model.AddDense(4);
  MilrConfig config;
  config.allow_dummy_augmentation = false;
  const auto plan = BuildPlan(model, config);
  EXPECT_EQ(plan.layers[0].backward, BackwardMode::kBlocked);
  EXPECT_TRUE(plan.layers[0].input_checkpoint);
}

TEST(PlanTest, ConvInvertibleWhenFiltersOutnumberPatch) {
  nn::Model model(Shape{10, 10, 1});
  model.AddConv(3, 16, nn::Padding::kValid);  // Y=16 ≥ F²Z=9
  const auto plan = BuildPlan(model, {});
  EXPECT_EQ(plan.layers[0].solve, SolveMode::kConvFull);  // G²=64 ≥ 9
  EXPECT_EQ(plan.layers[0].backward, BackwardMode::kConvExact);
}

TEST(PlanTest, ConvPartialWhenOutputTooSmall) {
  nn::Model model(Shape{6, 6, 32});
  model.AddConv(3, 64, nn::Padding::kValid);  // G²=16 < F²Z=288
  const auto plan = BuildPlan(model, {});
  EXPECT_EQ(plan.layers[0].solve, SolveMode::kConvPartial);
  EXPECT_GT(plan.layers[0].planned_bytes, 0u);  // CRC tables
}

TEST(PlanTest, ConvBackwardPicksCheaperOption) {
  // Y=4 < F²Z=9, dummy cost α·G² = 5·36·4B = 720B < checkpoint 8·8·1·4B =
  // 256B? No — checkpoint is cheaper here, so expect a checkpoint.
  nn::Model model(Shape{8, 8, 1});
  model.AddConv(3, 4, nn::Padding::kValid);
  const auto plan = BuildPlan(model, {});
  EXPECT_EQ(plan.layers[0].backward, BackwardMode::kBlocked);
  EXPECT_TRUE(plan.layers[0].input_checkpoint);
}

TEST(PlanTest, ConvBackwardPrefersDummiesWhenCheaper) {
  // Z large relative to filter growth: Y=60 < F²Z=64, α=4 dummies cost
  // 4·G²·4B = 4·36·4 = 576B < checkpoint 8·8·16·4 = 4096B.
  nn::Model model(Shape{8, 8, 16});
  model.AddConv(2, 60, nn::Padding::kValid);  // G = 7 → G²=49; α=4
  const auto plan = BuildPlan(model, {});
  EXPECT_EQ(plan.layers[0].backward, BackwardMode::kConvAugmented);
  EXPECT_EQ(plan.layers[0].dummy_count, 4u);
}

TEST(PlanTest, MnistNetworkPlanMatchesPaperStructure) {
  const nn::Model model = apps::BuildMnistNetwork();
  const auto plan = BuildPlan(model, {});
  // Layers: 0 conv, 1 bias, 2 relu, 3 conv, 4 bias, 5 relu, 6 pool,
  //         7 conv, 8 bias, 9 relu, 10 flatten, 11 dense, 12 bias,
  //         13 relu, 14 dense, 15 bias.
  EXPECT_EQ(plan.layers[0].solve, SolveMode::kConvFull);   // G²=676 ≥ 9
  EXPECT_EQ(plan.layers[3].solve, SolveMode::kConvFull);   // G²=576 ≥ 288
  EXPECT_EQ(plan.layers[7].solve, SolveMode::kConvPartial); // G²=100 < 288
  EXPECT_EQ(plan.layers[11].solve, SolveMode::kDense);
  EXPECT_EQ(plan.layers[14].solve, SolveMode::kDense);
  // Pool forces a checkpoint.
  EXPECT_TRUE(plan.layers[6].input_checkpoint);
  // Dense layers (6400→256 and 256→10, both narrow): the default config's
  // checkpoint slack turns their backward into input checkpoints — an
  // N-float checkpoint costs a few % more than the α-float dummy outputs
  // but avoids an O(N³) solve through possibly-corrupted weights.
  EXPECT_EQ(plan.layers[11].backward, BackwardMode::kBlocked);
  EXPECT_TRUE(plan.layers[11].input_checkpoint);
  EXPECT_EQ(plan.layers[14].backward, BackwardMode::kBlocked);
}

TEST(PlanTest, PaperStrictCostComparisonUsesDummyColumns) {
  // With zero slack the paper's pure-storage comparison picks the dummy
  // parameter columns (α = N − P < N).
  const nn::Model model = apps::BuildMnistNetwork();
  MilrConfig config;
  config.checkpoint_cost_slack = 0.0f;
  const auto plan = BuildPlan(model, config);
  EXPECT_EQ(plan.layers[11].backward, BackwardMode::kDenseAugmented);
  EXPECT_EQ(plan.layers[11].dummy_count, 6400u - 256u);
  EXPECT_EQ(plan.layers[14].backward, BackwardMode::kDenseAugmented);
}

TEST(PlanTest, CifarSmallPartialConvsMatchTableVI) {
  const nn::Model model = apps::BuildCifarSmallNetwork();
  const auto plan = BuildPlan(model, {});
  std::vector<SolveMode> conv_modes;
  for (std::size_t i = 0; i < model.LayerCount(); ++i) {
    if (model.layer(i).kind() == nn::LayerKind::kConv2D) {
      conv_modes.push_back(plan.layers[i].solve);
    }
  }
  ASSERT_EQ(conv_modes.size(), 7u);
  // Section IV-B criterion (G² ≥ F²Z): the two 32×32-output convs are fully
  // solvable (G²=1024 ≥ 27 and ≥ 288); partial recoverability starts at the
  // 16×16 stage (256 < 288). Note: the paper's Table VI conservatively
  // marks every conv after the first N/A*; our planner follows the paper's
  // *stated* criterion, which recovers strictly more (see EXPERIMENTS.md).
  EXPECT_EQ(conv_modes[0], SolveMode::kConvFull);
  EXPECT_EQ(conv_modes[1], SolveMode::kConvFull);
  for (std::size_t i = 2; i < conv_modes.size(); ++i) {
    EXPECT_EQ(conv_modes[i], SolveMode::kConvPartial) << "conv " << i;
  }
}

TEST(PlanTest, CifarLargeAllConvsPartial) {
  // Table VIII: every conv row is N/A* (5×5 filters, F²Z ≥ 1600 > G²).
  const nn::Model model = apps::BuildCifarLargeNetwork();
  const auto plan = BuildPlan(model, {});
  int full = 0, partial = 0;
  for (std::size_t i = 0; i < model.LayerCount(); ++i) {
    if (model.layer(i).kind() != nn::LayerKind::kConv2D) continue;
    if (plan.layers[i].solve == SolveMode::kConvPartial) {
      ++partial;
    } else {
      ++full;
    }
  }
  EXPECT_EQ(partial, 5);
  EXPECT_EQ(full, 1);  // the first conv (32×32 out, F²Z=75 < 1024) is full
}

TEST(PlanTest, PresetCheckpointsDenseInputsInsteadOfInvertingDense) {
  // The serving MLP: Dense 256→320→320→320→256→10, each with a bias, ReLU
  // between. Dense layers sit at 0, 3, 6, 9 and 12.
  nn::Model model(Shape{256});
  model.AddDense(320).AddBias().AddReLU();
  model.AddDense(320).AddBias().AddReLU();
  model.AddDense(320).AddBias().AddReLU();
  model.AddDense(256).AddBias().AddReLU();
  model.AddDense(10).AddBias();

  const auto preset = BuildPlan(model, ExtendedMilrConfig());
  for (std::size_t i = 0; i < model.LayerCount(); ++i) {
    EXPECT_NE(preset.layers[i].backward, BackwardMode::kDenseExact) << i;
    EXPECT_NE(preset.layers[i].backward, BackwardMode::kDenseAugmented) << i;
  }
  EXPECT_EQ(preset.checkpoint_indices,
            (std::vector<std::size_t>{3, 6, 9, 12}));
  // The stored weights plus, past the first layer, the input checkpoint.
  EXPECT_EQ(preset.layers[0].planned_bytes, 256u * 320u * 4u);
  EXPECT_EQ(preset.layers[3].planned_bytes, (320u * 320u + 320u) * 4u);
  EXPECT_EQ(preset.layers[3].solve_dummy_rows, 0u);

  // Paper mode keeps its plan.
  const auto paper = BuildPlan(model, {});
  for (const std::size_t i : {0u, 3u, 6u}) {
    EXPECT_EQ(paper.layers[i].backward, BackwardMode::kDenseExact) << i;
  }
  EXPECT_EQ(paper.layers[9].backward, BackwardMode::kDenseAugmented);
  EXPECT_EQ(paper.checkpoint_indices, std::vector<std::size_t>{12});
}

TEST(PlanTest, PlanToStringMentionsEveryLayer) {
  const nn::Model model = apps::BuildMnistNetwork();
  const auto plan = BuildPlan(model, {});
  const std::string text = PlanToString(model, plan);
  for (std::size_t i = 0; i < model.LayerCount(); ++i) {
    EXPECT_NE(text.find(model.layer(i).name()), std::string::npos);
  }
}

}  // namespace
}  // namespace milr::core
