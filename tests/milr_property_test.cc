// Property-style sweeps over layer geometry and random architectures: the
// algebraic invariants MILR rests on must hold for *every* shape, not just
// the paper's three networks.
#include <gtest/gtest.h>

#include <cstring>
#include <tuple>

#include "memory/fault_injector.h"
#include "milr/algebra.h"
#include "milr/protector.h"
#include "nn/init.h"
#include "nn/model.h"
#include "support/prng.h"

namespace milr::core {
namespace {

Tensor RandomT(Shape shape, std::uint64_t seed) {
  Prng prng(seed);
  return RandomTensor(std::move(shape), prng);
}

// ---------------------------------------------------------------- dense

// (N, P) sweep: R(x, f(x,p)) == p whenever M ≥ N.
class DenseSolveProperty
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
};

TEST_P(DenseSolveProperty, SolveRecoversParameters) {
  const auto [n, p] = GetParam();
  nn::DenseLayer dense(n, p);
  dense.weights() = RandomT(Shape{n, p}, 17 * n + p);
  const Tensor golden = dense.weights();
  const Tensor rows = MakeDenseDummyRows(n, n, 31 * n + p);
  const Tensor outputs = dense.Forward(rows);
  dense.weights().Fill(0.0f);
  auto solved = DenseSolveParams(dense, Tensor(Shape{n}), Tensor(Shape{p}),
                                 n, 31 * n + p, outputs);
  ASSERT_TRUE(solved.ok()) << solved.status().ToString();
  EXPECT_LT(MaxAbsDiff(solved.value(), golden), 1e-4f)
      << "N=" << n << " P=" << p;
}

TEST_P(DenseSolveProperty, BackwardInvertsForward) {
  const auto [n, p] = GetParam();
  nn::DenseLayer dense(n, p);
  dense.weights() = RandomT(Shape{n, p}, 41 * n + p);
  const Tensor x = RandomT(Shape{n}, 43 * n + p);
  const Tensor y = dense.Forward(x);
  if (p >= n) {
    auto back = DenseBackward(dense, y, 0, 0, {});
    ASSERT_TRUE(back.ok());
    EXPECT_LT(MaxAbsDiff(back.value(), x), 1e-3f) << "N=" << n << " P=" << p;
  } else {
    // Augment with α dummy columns and their golden outputs.
    const std::size_t alpha = n - p;
    const std::uint64_t seed = 47 * n + p;
    const Tensor dummy = MakeDenseDummyColumns(n, alpha, seed);
    std::vector<float> dummy_outputs(alpha);
    for (std::size_t c = 0; c < alpha; ++c) {
      double acc = 0.0;
      for (std::size_t r = 0; r < n; ++r) {
        acc += static_cast<double>(x[r]) * static_cast<double>(dummy.at(r, c));
      }
      dummy_outputs[c] = static_cast<float>(acc);
    }
    auto back = DenseBackward(dense, y, alpha, seed, dummy_outputs);
    ASSERT_TRUE(back.ok());
    EXPECT_LT(MaxAbsDiff(back.value(), x), 1e-3f) << "N=" << n << " P=" << p;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DenseSolveProperty,
    ::testing::Values(std::make_tuple(1, 1), std::make_tuple(2, 7),
                      std::make_tuple(7, 2), std::make_tuple(16, 16),
                      std::make_tuple(33, 5), std::make_tuple(5, 33),
                      std::make_tuple(64, 10), std::make_tuple(100, 100)));

// ----------------------------------------------------------------- conv

// (F, Z, Y, M, padding) sweep of the conv invariants.
struct ConvCase {
  std::size_t f, z, y, m;
  nn::Padding padding;
};

class ConvProperty : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvProperty, SolveRecoversFiltersWhenDetermined) {
  const auto c = GetParam();
  nn::Conv2DLayer conv(c.f, c.z, c.y, c.padding);
  const std::size_t g = conv.OutputExtent(c.m);
  if (g * g < conv.PatchLength()) GTEST_SKIP() << "partial-recovery regime";
  conv.filters() = RandomT(conv.filters().shape(), 3 * c.f + c.z + c.y);
  const Tensor golden = conv.filters();
  const Tensor x = RandomT(Shape{c.m, c.m, c.z}, 5 * c.f + c.z);
  const Tensor y_out = conv.Forward(x);
  conv.filters().Fill(0.5f);
  auto solved = ConvSolveParamsFull(conv, x, y_out);
  ASSERT_TRUE(solved.ok()) << solved.status().ToString();
  EXPECT_LT(MaxAbsDiff(solved.value(), golden), 1e-3f);
}

TEST_P(ConvProperty, BackwardInvertsForwardWhenDetermined) {
  const auto c = GetParam();
  nn::Conv2DLayer conv(c.f, c.z, c.y, c.padding);
  if (c.y < conv.PatchLength()) GTEST_SKIP() << "needs dummy filters";
  conv.filters() = RandomT(conv.filters().shape(), 7 * c.f + c.z + c.y);
  const Tensor x = RandomT(Shape{c.m, c.m, c.z}, 11 * c.f + c.m);
  const Tensor y_out = conv.Forward(x);
  auto back = ConvBackward(conv, y_out, c.m, 0, 0, Tensor{});
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_LT(MaxAbsDiff(back.value(), x), 1e-3f);
}

TEST_P(ConvProperty, PartialSolveRepairsSparseErrors) {
  const auto c = GetParam();
  nn::Conv2DLayer conv(c.f, c.z, c.y, c.padding);
  conv.filters() = RandomT(conv.filters().shape(), 13 * c.f + c.z + c.y);
  const Tensor golden = conv.filters();
  const Tensor x = RandomT(Shape{c.m, c.m, c.z}, 17 * c.f + c.m);
  const Tensor y_out = conv.Forward(x);
  // Corrupt a handful of weights — fewer than G² per filter.
  Prng prng(19 * c.f + c.y);
  std::vector<std::size_t> victims;
  const std::size_t count = std::min<std::size_t>(4, golden.size());
  while (victims.size() < count) {
    const std::size_t v = prng.NextBelow(golden.size());
    if (std::find(victims.begin(), victims.end(), v) == victims.end()) {
      victims.push_back(v);
      conv.filters()[v] += 3.0f;
    }
  }
  PartialSolveStats stats;
  auto solved = ConvSolveParamsPartial(conv, x, y_out, victims, &stats);
  ASSERT_TRUE(solved.ok()) << solved.status().ToString();
  EXPECT_LT(MaxAbsDiff(solved.value(), golden), 1e-3f);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvProperty,
    ::testing::Values(ConvCase{1, 1, 1, 4, nn::Padding::kValid},
                      ConvCase{1, 3, 5, 6, nn::Padding::kValid},
                      ConvCase{3, 1, 9, 8, nn::Padding::kValid},
                      ConvCase{3, 1, 12, 7, nn::Padding::kSame},
                      ConvCase{3, 2, 20, 9, nn::Padding::kValid},
                      ConvCase{5, 1, 25, 11, nn::Padding::kSame},
                      ConvCase{3, 4, 8, 10, nn::Padding::kValid},
                      ConvCase{5, 2, 50, 12, nn::Padding::kValid},
                      // cifar_small's second conv: a 1024×288 full solve.
                      ConvCase{3, 32, 32, 32, nn::Padding::kSame}));

// -------------------------------------------- random architecture sweep

/// Builds a random small CNN from a seed (structure varies: conv counts,
/// filter sizes, pooling flavor, aux layers).
nn::Model RandomModel(std::uint64_t seed) {
  Prng prng(seed);
  const std::size_t input = 8 + 2 * prng.NextBelow(3);  // 8/10/12
  nn::Model model(Shape{input, input, 1 + prng.NextBelow(2)});
  if (prng.NextBool(0.3)) model.AddZeroPad(1);
  const std::size_t convs = 1 + prng.NextBelow(2);
  for (std::size_t i = 0; i < convs; ++i) {
    model.AddConv(3, 6 + 2 * prng.NextBelow(4), nn::Padding::kSame);
    model.AddBias();
    model.AddReLU();
  }
  if (prng.NextBool(0.5)) {
    model.AddMaxPool(2);
  } else {
    model.AddAvgPool(2);
  }
  if (prng.NextBool(0.3)) model.AddDropout(0.2f);
  model.AddFlatten();
  model.AddDense(4 + prng.NextBelow(8)).AddBias().AddReLU();
  model.AddDense(3).AddBias();
  nn::InitHeUniform(model, seed * 31 + 1);
  return model;
}

class RandomArchitecture : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomArchitecture, AnyErrorsInOneLayerHeal) {
  // The paper's guarantee: ANY number of weight errors within a single
  // layer per checkpoint segment is recoverable. Sweep it per layer over
  // random architectures (conv+bias pairs in the same segment are covered
  // by the joint-solve extension below).
  nn::Model model = RandomModel(GetParam());
  const auto golden = model.SnapshotParams();
  MilrProtector protector(model, ExtendedMilrConfig());

  for (std::size_t i = 0; i < model.LayerCount(); ++i) {
    if (model.layer(i).ParamCount() == 0) continue;
    if (protector.plan().layers[i].solve == SolveMode::kConvPartial) {
      continue;  // whole-layer corruption exceeds the G² budget by design
    }
    Prng prng(GetParam() * 101 + i);
    memory::CorruptWholeLayer(model, i, prng);
    protector.DetectAndRecover();
    auto params = model.layer(i).Params();
    if (model.layer(i).kind() == nn::LayerKind::kDense) {
      // The preset restores dense layers from their stored weights.
      EXPECT_EQ(std::memcmp(params.data(), golden[i].data(),
                            params.size_bytes()),
                0)
          << "arch seed " << GetParam() << " layer " << i;
    } else {
      for (std::size_t p = 0; p < params.size(); ++p) {
        EXPECT_NEAR(params[p], golden[i][p], 5e-3f)
            << "arch seed " << GetParam() << " layer " << i << " param " << p;
      }
    }
    model.RestoreParams(golden);
  }
}

TEST(RandomArchitectureStats, SparseErrorScatterHealsMostArchitectures) {
  // A light scatter of whole-weight errors across the whole network heals
  // an architecture fully unless two mutually-dependent layers of one
  // segment were hit (the paper's stated limit, partially lifted by the
  // joint/multi-pass extensions). Per architecture that is all-or-nothing,
  // so the meaningful property is the success rate across architectures.
  int healed = 0;
  const std::uint64_t archs = 12;
  for (std::uint64_t seed = 1; seed <= archs; ++seed) {
    nn::Model model = RandomModel(seed);
    const auto golden = model.SnapshotParams();
    MilrProtector protector(model, ExtendedMilrConfig());
    Prng prng(seed * 211 + 3);
    memory::InjectExactWeightErrors(model, 6, prng);
    protector.DetectAndRecover();

    nn::Model reference = RandomModel(seed);
    reference.RestoreParams(golden);
    Prng probe_prng(5);
    bool all_close = true;
    for (int probe = 0; probe < 4; ++probe) {
      const Tensor x = RandomTensor(model.input_shape(), probe_prng);
      if (MaxAbsDiff(model.Predict(x), reference.Predict(x)) >= 0.05f) {
        all_close = false;
      }
    }
    if (all_close) ++healed;
  }
  EXPECT_GE(healed, 9) << "healed " << healed << "/" << archs;
}

TEST_P(RandomArchitecture, CleanDetectIsSilent) {
  nn::Model model = RandomModel(GetParam());
  MilrProtector protector(model);
  EXPECT_FALSE(protector.Detect().any());
}

TEST_P(RandomArchitecture, StorageNeverExceedsThreeBackups) {
  // Sanity bound: MILR's reliable storage stays within a small multiple of
  // the network itself for arbitrary small architectures.
  nn::Model model = RandomModel(GetParam());
  MilrProtector protector(model);
  EXPECT_LT(protector.Storage().total(), 3 * model.TotalParamBytes() + 65536);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomArchitecture,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace milr::core
