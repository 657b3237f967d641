// Tests for the kernel registry (nn/kernel_registry.h): one plan per
// machine (the same plan after every Reset, the kernels the ISA allows,
// nothing measured), plan caching, the planned fast kernels against the
// exact tier on the served shapes, ISA micro-kernels against their oracles
// (clean skips off-ISA), transposed fast kernels against double
// references, and batched backward bit-identity.
#include <cmath>
#include <cstdint>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "nn/gemm.h"
#include "nn/kernel_registry.h"
#include "nn/model.h"
#include "nn/train.h"
#include "quant/gemm_int8.h"
#include "quant/quantize.h"
#include "support/prng.h"

namespace milr::nn {
namespace {

/// Every test starts and ends with an empty plan cache.
class KernelRegistryTest : public ::testing::Test {
 protected:
  void SetUp() override { KernelRegistry::Get().Reset(); }
  void TearDown() override { KernelRegistry::Get().Reset(); }
};

void FillRandom(float* data, std::size_t count, std::uint64_t seed) {
  Prng prng(seed);
  for (std::size_t i = 0; i < count; ++i) {
    data[i] = prng.NextFloat(-0.5f, 0.5f);
  }
}

bool PlansEqual(const GemmPlan& a, const GemmPlan& b) {
  return a.thin == b.thin && a.direct == b.direct && a.packed == b.packed &&
         a.kc == b.kc && a.int8 == b.int8 && a.ta == b.ta && a.tb == b.tb;
}

/// (k, n) weight shapes the benchmark serves: steady_mlp's five dense
/// layers (four distinct shapes), then cifar_small's convs as (F²Z, Y)
/// and its two dense layers.
constexpr std::pair<std::size_t, std::size_t> kServedShapes[] = {
    {256, 320}, {320, 320},  {320, 256},  {256, 10},  // steady_mlp
    {27, 32},   {288, 32},   {288, 64},   {576, 64},  // cifar_small
    {576, 128}, {1152, 128}, {2048, 128}, {128, 10},
};

TEST_F(KernelRegistryTest, PlanDependsOnlyOnTheMachine) {
  std::vector<GemmPlan> first;
  for (const auto& [k, n] : kServedShapes) {
    first.push_back(KernelRegistry::Get().PlanFor(k, n));
  }
  for (int round = 0; round < 3; ++round) {
    KernelRegistry::Get().Reset();
    for (std::size_t s = 0; s < first.size(); ++s) {
      const auto [k, n] = kServedShapes[s];
      const GemmPlan again = KernelRegistry::Get().PlanFor(k, n);
      EXPECT_TRUE(PlansEqual(first[s], again))
          << k << "x" << n << ": " << DescribeGemmPlan(first[s]) << " vs "
          << DescribeGemmPlan(again);
    }
    const KernelRegistry::Stats stats = KernelRegistry::Get().stats();
    EXPECT_EQ(stats.plans, std::size(kServedShapes));
    EXPECT_EQ(stats.total_tune_ms, 0.0);
  }

  for (std::size_t s = 0; s < first.size(); ++s) {
    const auto [k, n] = kServedShapes[s];
    const GemmPlan& plan = first[s];
    EXPECT_EQ(plan.k, k);
    EXPECT_EQ(plan.n, n);
#ifdef MILR_GEMM_HAVE_AVX512
    if (gemm_detail::HasAvx512f()) {
      EXPECT_EQ(plan.packed, FastKernel::kAvx512Packed) << k << "x" << n;
      EXPECT_EQ(plan.kc, k > 256 ? 512u : 256u) << k << "x" << n;
    }
#endif
#ifdef MILR_GEMM_HAVE_AVX2
    if (gemm_detail::HasAvx2Fma()) {
      EXPECT_EQ(plan.thin, FastKernel::kAvx2Row) << k << "x" << n;
      EXPECT_EQ(plan.direct, FastKernel::kAvx2Direct) << k << "x" << n;
      EXPECT_EQ(plan.int8, quant::Int8Kernel::kAvx2) << k << "x" << n;
    }
#endif
  }

  // A whole model serves the same kernels after a fresh set-up.
  Model mlp(Shape{256});
  mlp.AddDense(320).AddBias().AddReLU().AddDense(320).AddBias().AddReLU();
  mlp.AddDense(320).AddBias().AddReLU().AddDense(256).AddBias().AddReLU();
  mlp.AddDense(10).AddBias();
  mlp.set_kernel_config(KernelConfig::kFast);
  const std::vector<std::string> descriptions = mlp.KernelDescriptions();
  KernelRegistry::Get().Reset();
  mlp.set_kernel_config(KernelConfig::kFast);
  EXPECT_EQ(mlp.KernelDescriptions(), descriptions);
}

TEST_F(KernelRegistryTest, PlansAreCachedPerShapeAndStatsCount) {
  (void)KernelRegistry::Get().PlanFor(128, 64);
  (void)KernelRegistry::Get().PlanFor(128, 64);
  (void)KernelRegistry::Get().PlanFor(64, 128);
  const KernelRegistry::Stats stats = KernelRegistry::Get().stats();
  EXPECT_EQ(stats.plans, 2u);
  EXPECT_EQ(stats.total_tune_ms, 0.0);  // nothing is measured
}

TEST_F(KernelRegistryTest, PlannedFastGemmMatchesExactForAllRowClasses) {
  // An odd shape plus the served ones: 2048 deep is four k-blocks at the
  // AVX-512 kc, 256x10 is narrower than one register tile.
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {96, 80}, {256, 320}, {320, 320}, {320, 256},
      {256, 10}, {27, 32}, {2048, 128},
  };
  for (const auto& [k, n] : shapes) {
    const GemmPlan plan = KernelRegistry::Get().PlanFor(k, n);
    std::vector<float> b(k * n);
    FillRandom(b.data(), b.size(), 7 + k + n);
    std::vector<float> bpack(PackedBSize(k, n, plan.kc));
    PackBPanels(b.data(), k, n, bpack.data(), plan.kc);
    // Thin (m=2), direct and packed-prepacked (m=8, 32), packed on the
    // fly (m=160 > kDirectMaxRows) all must agree with the exact tier.
    for (const std::size_t m : {std::size_t{2}, std::size_t{8},
                                std::size_t{32}, std::size_t{160}}) {
      std::vector<float> a(m * k), want(m * n, 0.0f);
      FillRandom(a.data(), a.size(), 100 + m);
      GemmAccumulate(a.data(), b.data(), want.data(), m, k, n);
      std::vector<float> got(m * n, 0.0f);
      RunFastGemm(&plan, a.data(), b.data(), nullptr, got.data(), m, k, n);
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_NEAR(got[i], want[i], 1e-3f * (1.0f + std::fabs(want[i])))
            << k << "x" << n << " m=" << m << " i=" << i;
      }
      if (m >= 4) {
        std::vector<float> got2(m * n, 0.0f);
        RunFastGemm(&plan, a.data(), b.data(), bpack.data(), got2.data(), m,
                    k, n);
        for (std::size_t i = 0; i < got2.size(); ++i) {
          ASSERT_NEAR(got2[i], want[i], 1e-3f * (1.0f + std::fabs(want[i])))
              << k << "x" << n << " prepacked m=" << m << " i=" << i;
        }
      }
    }
  }
}

TEST_F(KernelRegistryTest, Avx512KernelsMatchDoubleOracle) {
#ifdef MILR_GEMM_HAVE_AVX512
  if (!gemm_detail::HasAvx512f()) {
    GTEST_SKIP() << "no AVX-512F on this machine";
  }
  const std::size_t m = 13, k = 517, n = 37;  // odd everything
  std::vector<float> a(m * k), b(k * n), c0(m * n);
  FillRandom(a.data(), a.size(), 1);
  FillRandom(b.data(), b.size(), 2);
  FillRandom(c0.data(), c0.size(), 3);
  std::vector<double> ref(m * n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = c0[i * n + j];
      for (std::size_t p = 0; p < k; ++p) {
        acc += static_cast<double>(a[i * k + p]) *
               static_cast<double>(b[p * n + j]);
      }
      ref[i * n + j] = acc;
    }
  }
  std::vector<float> c(c0);
  gemm_detail::PackedGemm(a.data(), b.data(), c.data(), m, k, n, 192,
                          [](const float* ap, const float* bp,
                             std::size_t kc, float* cacc) {
                            gemm_detail::MicroKernelAvx512(ap, bp, kc, cacc);
                          });
  for (std::size_t i = 0; i < c.size(); ++i) {
    ASSERT_NEAR(c[i], ref[i], 1e-3 * (1.0 + std::fabs(ref[i])))
        << "packed i=" << i;
  }
#else
  GTEST_SKIP() << "built without AVX-512 support";
#endif
}

TEST_F(KernelRegistryTest, TransposedFastKernelsMatchDoubleOracle) {
  const std::size_t m = 48, k = 200, n = 33;
  // dW: C(m,n) += Aᵀ·B with A stored (k, m).
  {
    std::vector<float> at(k * m), b(k * n), c(m * n);
    FillRandom(at.data(), at.size(), 6);
    FillRandom(b.data(), b.size(), 7);
    FillRandom(c.data(), c.size(), 8);
    std::vector<double> ref(m * n);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        double acc = c[i * n + j];
        for (std::size_t p = 0; p < k; ++p) {
          acc += static_cast<double>(at[p * m + i]) *
                 static_cast<double>(b[p * n + j]);
        }
        ref[i * n + j] = acc;
      }
    }
    GemmTransposedAAccumulateFast(at.data(), b.data(), c.data(), m, k, n);
    for (std::size_t i = 0; i < c.size(); ++i) {
      ASSERT_NEAR(c[i], ref[i], 1e-3 * (1.0 + std::fabs(ref[i])))
          << "ta i=" << i;
    }
  }
  // dX: C(m,n) += A·Bᵀ with B stored (n, k).
  {
    std::vector<float> a(m * k), bt(n * k), c(m * n);
    FillRandom(a.data(), a.size(), 9);
    FillRandom(bt.data(), bt.size(), 10);
    FillRandom(c.data(), c.size(), 11);
    std::vector<double> ref(m * n);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        double acc = c[i * n + j];
        for (std::size_t p = 0; p < k; ++p) {
          acc += static_cast<double>(a[i * k + p]) *
                 static_cast<double>(bt[j * k + p]);
        }
        ref[i * n + j] = acc;
      }
    }
    GemmTransposedBAccumulateFast(a.data(), bt.data(), c.data(), m, k, n);
    for (std::size_t i = 0; i < c.size(); ++i) {
      ASSERT_NEAR(c[i], ref[i], 1e-3 * (1.0 + std::fabs(ref[i])))
          << "tb i=" << i;
    }
  }
}

TEST_F(KernelRegistryTest, BatchedBackwardBitIdenticalAtExactTier) {
  Model model(Shape{24});
  model.AddDense(16).AddBias().AddReLU().AddDense(10);
  Prng prng(31);
  model.ForEachParamLayer([&](std::size_t, Layer& layer) {
    auto params = layer.Params();
    for (float& p : params) {
      p = prng.NextFloat(-0.5f, 0.5f);
    }
  });

  const std::size_t batch = 5;
  Tensor xb(Shape{batch, 24});
  Tensor dyb(Shape{batch, 10});
  FillRandom(xb.data(), xb.size(), 14);
  FillRandom(dyb.data(), dyb.size(), 15);

  // Reference: per-sample ForwardCollect + Backward, accumulating grads.
  std::vector<std::vector<float>> want_grads(model.LayerCount());
  for (std::size_t li = 0; li < model.LayerCount(); ++li) {
    want_grads[li].assign(model.layer(li).ParamCount(), 0.0f);
  }
  Tensor want_dx(xb.shape());
  for (std::size_t s = 0; s < batch; ++s) {
    Tensor x(Shape{24});
    std::copy_n(xb.data() + s * 24, 24, x.data());
    const auto acts = model.ForwardCollect(x);
    Tensor grad(Shape{10});
    std::copy_n(dyb.data() + s * 10, 10, grad.data());
    for (std::size_t li = model.LayerCount(); li-- > 0;) {
      grad = model.layer(li).Backward(acts[li], acts[li + 1], grad,
                                      want_grads[li]);
    }
    std::copy_n(grad.data(), 24, want_dx.data() + s * 24);
  }

  // Batched: ForwardCollectBatch + BackwardBatch.
  std::vector<std::vector<float>> got_grads(model.LayerCount());
  for (std::size_t li = 0; li < model.LayerCount(); ++li) {
    got_grads[li].assign(model.layer(li).ParamCount(), 0.0f);
  }
  const auto acts = model.ForwardCollectBatch(xb);
  Tensor grad = dyb;
  for (std::size_t li = model.LayerCount(); li-- > 0;) {
    grad = model.layer(li).BackwardBatch(acts[li], acts[li + 1], grad,
                                         got_grads[li]);
  }
  for (std::size_t li = 0; li < model.LayerCount(); ++li) {
    ASSERT_EQ(got_grads[li].size(), want_grads[li].size());
    for (std::size_t p = 0; p < got_grads[li].size(); ++p) {
      // Bit-identical, not merely close: the batched kernels accumulate
      // in the per-sample loop's element order.
      ASSERT_EQ(got_grads[li][p], want_grads[li][p])
          << "layer " << li << " param " << p;
    }
  }
  for (std::size_t i = 0; i < grad.size(); ++i) {
    ASSERT_EQ(grad[i], want_dx[i]) << "dx " << i;
  }
}

TEST_F(KernelRegistryTest, TrainingStillLearnsWithBatchedBackward) {
  Model model(Shape{16});
  model.AddDense(24).AddBias().AddReLU().AddDense(4);
  Prng prng(77);
  model.ForEachParamLayer([&](std::size_t, Layer& layer) {
    auto params = layer.Params();
    for (float& p : params) {
      p = prng.NextFloat(-0.2f, 0.2f);
    }
  });
  Dataset data;
  for (std::size_t i = 0; i < 64; ++i) {
    Tensor image(Shape{16});
    const std::size_t label = i % 4;
    for (std::size_t j = 0; j < 16; ++j) {
      image[j] = (j % 4 == label ? 1.0f : 0.0f) +
                 prng.NextFloat(-0.05f, 0.05f);
    }
    data.images.push_back(std::move(image));
    data.labels.push_back(label);
  }
  TrainConfig config;
  config.epochs = 8;
  config.batch_size = 16;
  config.learning_rate = 0.1f;
  const auto history = Fit(model, data, config);
  EXPECT_LT(history.back().mean_loss, history.front().mean_loss);
  EXPECT_GT(Evaluate(model, data), 0.9);
}

}  // namespace
}  // namespace milr::nn
