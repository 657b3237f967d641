// Unit tests for the int8 quantized serving tier (src/quant/) and its
// DenseLayer and Conv2DLayer integration: numerics of the quantizer, the
// packed layout, AVX2-vs-generic bit-equality, error bounds against the
// fp32 oracle, cache invalidation, the depth guard's fast fallback, and
// end-to-end fast and int8 top-1 agreement with exact on He-init and
// trained nets.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/init.h"
#include "nn/model.h"
#include "nn/train.h"
#include "quant/gemm_int8.h"
#include "quant/quantize.h"
#include "support/prng.h"
#include "tensor/tensor.h"

namespace milr::quant {
namespace {

std::vector<float> RandomMatrix(std::size_t rows, std::size_t cols,
                                Prng& prng, float lo = -1.0f,
                                float hi = 1.0f) {
  std::vector<float> m(rows * cols);
  for (float& v : m) v = prng.NextFloat(lo, hi);
  return m;
}

// ------------------------------------------------------------- quantizer

TEST(QuantizeWeights, RoundTripErrorBoundedByHalfScale) {
  Prng prng(7);
  const std::size_t k = 37, n = 19;
  const auto w = RandomMatrix(k, n, prng, -3.0f, 3.0f);
  const QuantizedWeights q = QuantizeWeights(w.data(), k, n);
  std::vector<float> back(k * n);
  DequantizeWeights(q, back.data());
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t p = 0; p < k; ++p) {
      EXPECT_NEAR(back[p * n + j], w[p * n + j], q.scales[j] * 0.5f + 1e-7f)
          << "p=" << p << " j=" << j;
    }
  }
}

TEST(QuantizeWeights, SymmetricSaturationAtMaxabs) {
  // Column 0 spans [-4, 4]; the maxabs elements must land exactly on
  // +/-kWeightQuantMax and nothing may exceed it.
  const std::size_t k = 4, n = 1;
  const float w[] = {4.0f, -4.0f, 2.0f, -0.5f};
  const QuantizedWeights q = QuantizeWeights(w, k, n);
  EXPECT_FLOAT_EQ(q.scales[0], 4.0f / 127.0f);
  EXPECT_EQ(q.values[0], 127);
  EXPECT_EQ(q.values[1], -127);
  for (std::size_t p = 0; p < k; ++p) {
    EXPECT_LE(std::abs(static_cast<int>(q.values[p])), kWeightQuantMax);
  }
}

TEST(QuantizeWeights, NonFiniteWeightsQuantizeToZeroAndKeepScaleSane) {
  // The Inf/NaN weights map to 0 and must not poison the column scale:
  // the finite 1.0 still quantizes to full range.
  const std::size_t k = 3, n = 1;
  const float w[] = {std::numeric_limits<float>::infinity(),
                     std::numeric_limits<float>::quiet_NaN(), 1.0f};
  const QuantizedWeights q = QuantizeWeights(w, k, n);
  EXPECT_FLOAT_EQ(q.scales[0], 1.0f / 127.0f);
  EXPECT_EQ(q.values[0], 0);
  EXPECT_EQ(q.values[1], 0);
  EXPECT_EQ(q.values[2], 127);
}

TEST(QuantizeWeights, AllZeroColumnGetsUnitScale) {
  const std::size_t k = 2, n = 2;
  const float w[] = {0.0f, 1.0f, 0.0f, -1.0f};
  const QuantizedWeights q = QuantizeWeights(w, k, n);
  EXPECT_FLOAT_EQ(q.scales[0], 1.0f);
  EXPECT_EQ(q.values[0], 0);
  EXPECT_EQ(q.values[2], 0);
}

TEST(QuantizeActivationRow, SymmetricTwelveBitRoundTrip) {
  const std::size_t k = 5;
  const float a[] = {-2.0f, 0.0f, 1.0f, 3.0f, -0.5f};
  std::int16_t out[5];
  const float scale = QuantizeActivationRow(a, k, out);
  EXPECT_FLOAT_EQ(scale, 3.0f / 2047.0f);
  for (std::size_t p = 0; p < k; ++p) {
    EXPECT_LE(std::abs(static_cast<int>(out[p])), kActivationQuantMax);
    EXPECT_NEAR(scale * static_cast<float>(out[p]), a[p],
                scale * 0.5f + 1e-7f);
  }
  // Zero is exactly representable by symmetry.
  EXPECT_EQ(out[1], 0);
}

TEST(QuantizeActivationRow, ConstantAndNonFiniteRows) {
  std::int16_t out[3];
  const float zeros[] = {0.0f, 0.0f, 0.0f};
  float scale = QuantizeActivationRow(zeros, 3, out);
  EXPECT_FLOAT_EQ(scale, 1.0f);
  EXPECT_EQ(out[0], 0);

  const float bad[] = {std::numeric_limits<float>::quiet_NaN(), 2.0f,
                       -std::numeric_limits<float>::infinity()};
  scale = QuantizeActivationRow(bad, 3, out);
  // Non-finite values dequantize to 0; the finite 2.0 uses the range.
  EXPECT_EQ(out[0], 0);
  EXPECT_EQ(out[2], 0);
  EXPECT_NEAR(scale * static_cast<float>(out[1]), 2.0f,
              scale * 0.5f + 1e-6f);
}

// ----------------------------------------------------------- packed GEMM

/// Straight dequant reference: C += dequant(A) * dequant(B) done in
/// double, computed from the QUANTIZED operands — the exact answer the
/// integer pipeline must reproduce (up to the fp32 epilogue rounding).
std::vector<double> DequantReference(const std::vector<std::int16_t>& aq,
                                     std::size_t astride,
                                     const std::vector<float>& row_scales,
                                     const QuantizedWeights& q,
                                     std::size_t m) {
  std::vector<double> c(m * q.n, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < q.n; ++j) {
      double acc = 0.0;
      for (std::size_t p = 0; p < q.k; ++p) {
        acc += static_cast<double>(aq[i * astride + p]) *
               static_cast<double>(q.values[p * q.n + j]);
      }
      c[i * q.n + j] = static_cast<double>(row_scales[i]) *
                       static_cast<double>(q.scales[j]) * acc;
    }
  }
  return c;
}

struct QuantizedGemmInputs {
  std::vector<std::int16_t> aq;
  std::vector<float> row_scales;
  std::size_t astride = 0;
  QuantizedWeights qw;
  std::vector<std::int8_t> bpack;
};

QuantizedGemmInputs MakeInputs(const std::vector<float>& a,
                               const std::vector<float>& b, std::size_t m,
                               std::size_t k, std::size_t n) {
  QuantizedGemmInputs in;
  in.astride = Int8PaddedDepth(k);
  in.aq.assign(m * in.astride, 0);
  in.row_scales.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    in.row_scales[i] = QuantizeActivationRow(
        a.data() + i * k, k, in.aq.data() + i * in.astride);
  }
  in.qw = QuantizeWeights(b.data(), k, n);
  in.bpack.resize(PackedInt8BSize(k, n));
  PackInt8BPanels(in.qw.values.data(), k, n, in.bpack.data());
  return in;
}

TEST(GemmInt8, MatchesDequantReferenceAcrossShapes) {
  Prng prng(11);
  // Odd shapes exercise every tail: k % 2, n % 16, m % 4.
  const struct { std::size_t m, k, n; } shapes[] = {
      {1, 8, 16}, {3, 7, 5}, {4, 64, 32}, {5, 33, 17},
      {8, 256, 48}, {13, 130, 94},
  };
  for (const auto& s : shapes) {
    const auto a = RandomMatrix(s.m, s.k, prng, -2.0f, 2.0f);
    const auto b = RandomMatrix(s.k, s.n, prng, -1.5f, 1.5f);
    const auto in = MakeInputs(a, b, s.m, s.k, s.n);
    std::vector<float> c(s.m * s.n, 0.0f);
    GemmInt8Dequant(in.aq.data(), in.astride, in.row_scales.data(),
                    in.bpack.data(), in.qw.scales.data(), c.data(), s.m,
                    s.k, s.n);
    const auto ref =
        DequantReference(in.aq, in.astride, in.row_scales, in.qw, s.m);
    for (std::size_t i = 0; i < s.m * s.n; ++i) {
      // The integer pipeline is exact; only the fp32 epilogue rounds.
      EXPECT_NEAR(c[i], ref[i], 1e-4 + 1e-5 * std::fabs(ref[i]))
          << "m=" << s.m << " k=" << s.k << " n=" << s.n << " i=" << i;
    }
  }
}

TEST(GemmInt8, DispatchIsBitIdenticalToGenericKernel) {
  Prng prng(23);
  const std::size_t m = 9, k = 77, n = 41;
  const auto a = RandomMatrix(m, k, prng);
  const auto b = RandomMatrix(k, n, prng);
  const auto in = MakeInputs(a, b, m, k, n);
  std::vector<float> dispatched(m * n, 0.0f), generic(m * n, 0.0f);
  GemmInt8Dequant(in.aq.data(), in.astride, in.row_scales.data(),
                  in.bpack.data(), in.qw.scales.data(), dispatched.data(),
                  m, k, n);
  GemmInt8DequantGeneric(in.aq.data(), in.astride, in.row_scales.data(),
                         in.bpack.data(), in.qw.scales.data(),
                         generic.data(), m, k, n);
  for (std::size_t i = 0; i < m * n; ++i) {
    // Exact equality: integer accumulation is order-independent and the
    // float epilogue is the same expression in both kernels. This is the
    // tier's dispatch-invariance contract, not a tolerance check.
    EXPECT_EQ(dispatched[i], generic[i]) << "i=" << i;
  }
}

/// True when the dispatched quantizer returns the scalar oracle's scale and
/// int16 values bit for bit, and neither writes past out[k).
bool QuantizerMatchesGeneric(const std::vector<float>& row) {
  const std::size_t k = row.size();
  std::vector<std::int16_t> got(k + 1, 0x5555), want(k + 1, 0x5555);
  const float got_scale = QuantizeActivationRow(row.data(), k, got.data());
  const float want_scale =
      QuantizeActivationRowGeneric(row.data(), k, want.data());
  return std::bit_cast<std::uint32_t>(got_scale) ==
             std::bit_cast<std::uint32_t>(want_scale) &&
         got == want && got[k] == 0x5555;
}

TEST(QuantizeActivationRow, DispatchIsBitIdenticalToGeneric) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
  constexpr float kMax = std::numeric_limits<float>::max();
  constexpr float kDenorm = std::numeric_limits<float>::denorm_min();
  // Each pattern tiles across the row, so its special values land in
  // vector lanes and in the scalar tail alike.
  const std::vector<std::vector<float>> patterns = {
      {0.25f, -1.0f, kNaN, 0.5f, kInf, -0.75f, -kInf, 3e-39f, -0.0f, 2.0f},
      {0.0f, -0.0f},                    // all zero
      {kNaN, kInf, -kInf, -kNaN},       // all non-finite
      {kMax, -kMax, kMax / 3.0f, -1.0f, 0.0f, kMax * 0.999f},
      // Max-abs 2047 makes the scale exactly 1, so every x.5 is a tie that
      // must round to even.
      {2047.0f, 0.5f, 1.5f, 2.5f, -0.5f, -1.5f, -2.5f, 1000.5f, -2046.5f},
      // Scale exactly 2: the odd integers divide to ties.
      {4094.0f, 1.0f, 3.0f, 5.0f, -1.0f, -7.0f, 4093.0f},
      // A denormal scale (3000 dm / 2047 rounds to 1 dm): quotients above
      // 2047 clamp.
      {3000 * kDenorm, -3000 * kDenorm, 1500 * kDenorm, kDenorm, -kDenorm},
      // max-abs / 2047 underflows to 0, so the row takes the unit scale.
      {1000 * kDenorm, -kDenorm, 500 * kDenorm, 0.0f},
  };
  for (const std::size_t k : {1, 7, 8, 15, 16, 17, 27, 288, 577, 1152}) {
    for (std::size_t i = 0; i < patterns.size(); ++i) {
      std::vector<float> row(k);
      for (std::size_t p = 0; p < k; ++p) {
        row[p] = patterns[i][p % patterns[i].size()];
      }
      EXPECT_TRUE(QuantizerMatchesGeneric(row)) << "pattern " << i
                                                << " k=" << k;
    }
  }
  std::int16_t unit_out[4];
  EXPECT_EQ(QuantizeActivationRow(patterns.back().data(), 4, unit_out), 1.0f);

  // Random rows shaped like conv patch rows, over 41 binades, half of
  // them post-ReLU. A reciprocal multiply in place of the division
  // changes roughly one row in a hundred.
  Prng prng(29);
  std::size_t mismatched_rows = 0;
  std::vector<float> row(288);
  for (int r = 0; r < 4000; ++r) {
    const float magnitude =
        std::ldexp(1.0f, static_cast<int>(prng.NextBelow(41)) - 20);
    const bool relu = prng.NextBool(0.5);
    for (float& v : row) {
      v = prng.NextFloat(-1.0f, 1.0f) * magnitude;
      if (relu) v = std::max(v, 0.0f);
    }
    if (!QuantizerMatchesGeneric(row)) ++mismatched_rows;
  }
  EXPECT_EQ(mismatched_rows, 0u);
}

TEST(GemmInt8, AccumulatesIntoC) {
  Prng prng(31);
  const std::size_t m = 2, k = 16, n = 16;
  const auto a = RandomMatrix(m, k, prng);
  const auto b = RandomMatrix(k, n, prng);
  const auto in = MakeInputs(a, b, m, k, n);
  std::vector<float> once(m * n, 1.0f), zero(m * n, 0.0f);
  GemmInt8Dequant(in.aq.data(), in.astride, in.row_scales.data(),
                  in.bpack.data(), in.qw.scales.data(), once.data(), m, k,
                  n);
  GemmInt8Dequant(in.aq.data(), in.astride, in.row_scales.data(),
                  in.bpack.data(), in.qw.scales.data(), zero.data(), m, k,
                  n);
  for (std::size_t i = 0; i < m * n; ++i) {
    EXPECT_FLOAT_EQ(once[i], zero[i] + 1.0f);
  }
}

TEST(GemmInt8, ExtremeOperandsStayExact) {
  // Worst-case magnitudes: every activation at +/-maxabs (quantizes to
  // +/-2047), weights alternating +/-127, k near the depth bound's shape
  // in this repo. The AVX2 madd path must agree bit-for-bit with the
  // (unconditionally exact) generic kernel — there is no saturating step
  // anywhere in the pipeline.
  const std::size_t m = 4, k = 1536, n = 16;
  std::vector<float> a(m * k);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = (i % 2 == 0) ? 100.0f : -100.0f;
  }
  std::vector<float> b(k * n);
  for (std::size_t p = 0; p < k; ++p) {
    for (std::size_t j = 0; j < n; ++j) {
      b[p * n + j] = (p % 2 == 0) ? 4.0f : -4.0f;
    }
  }
  const auto in = MakeInputs(a, b, m, k, n);
  std::vector<float> dispatched(m * n, 0.0f), generic(m * n, 0.0f);
  GemmInt8Dequant(in.aq.data(), in.astride, in.row_scales.data(),
                  in.bpack.data(), in.qw.scales.data(), dispatched.data(),
                  m, k, n);
  GemmInt8DequantGeneric(in.aq.data(), in.astride, in.row_scales.data(),
                         in.bpack.data(), in.qw.scales.data(),
                         generic.data(), m, k, n);
  for (std::size_t i = 0; i < m * n; ++i) {
    EXPECT_EQ(dispatched[i], generic[i]) << "i=" << i;
  }
}

// --------------------------------------------------- DenseLayer int8 tier

TEST(DenseInt8, ForwardBatchMatchesExactWithinQuantTolerance) {
  Prng prng(3);
  const std::size_t k = 64, n = 48, rows = 6;
  nn::DenseLayer layer(k, n);
  auto w = RandomMatrix(k, n, prng);
  std::copy(w.begin(), w.end(), layer.Params().begin());
  layer.set_kernel_config(nn::KernelConfig::kInt8);
  EXPECT_TRUE(layer.int8_weights_valid());

  Tensor batch(Shape{rows, k});
  for (auto& v : batch.flat()) v = prng.NextFloat(-1.0f, 1.0f);
  const Tensor got = layer.ForwardBatch(batch);

  layer.set_kernel_config(nn::KernelConfig::kExact);
  const Tensor want = layer.ForwardBatch(batch);
  // Analytic quantization error bound per output (i, j): each operand
  // rounds by at most half a step, so
  //   |err| <= sa/2 * sum_p|w[p][j]| + sw[j]/2 * sum_p|a[i][p]|
  //            + k * sa/2 * sw[j]/2
  // with sa = the row's activation step and sw[j] the column's weight
  // step. Tighter than any hand-picked constant and still fails on a real
  // kernel bug (which breaks by whole quantization steps, not halves).
  std::vector<float> col_abs(n, 0.0f);
  for (std::size_t p = 0; p < k; ++p) {
    for (std::size_t j = 0; j < n; ++j) {
      col_abs[j] += std::fabs(w[p * n + j]);
    }
  }
  const QuantizedWeights qw = QuantizeWeights(w.data(), k, n);
  for (std::size_t i = 0; i < rows; ++i) {
    std::vector<std::int16_t> scratch(Int8PaddedDepth(k));
    const float sa =
        QuantizeActivationRow(batch.data() + i * k, k, scratch.data());
    float row_abs = 0.0f;
    for (std::size_t p = 0; p < k; ++p) {
      row_abs += std::fabs(batch[i * k + p]);
    }
    for (std::size_t j = 0; j < n; ++j) {
      const float bound = 0.5f * sa * col_abs[j] +
                          0.5f * qw.scales[j] * row_abs +
                          0.25f * k * sa * qw.scales[j] + 1e-5f;
      EXPECT_NEAR(got[i * n + j], want[i * n + j], bound)
          << "i=" << i << " j=" << j;
    }
  }
}

TEST(DenseInt8, PerSampleForwardStaysExactUnderInt8Config) {
  Prng prng(5);
  nn::DenseLayer layer(32, 16);
  auto w = RandomMatrix(32, 16, prng);
  std::copy(w.begin(), w.end(), layer.Params().begin());

  Tensor x(Shape{32});
  for (auto& v : x.flat()) v = prng.NextFloat(-1.0f, 1.0f);
  const Tensor exact = layer.Forward(x);
  layer.set_kernel_config(nn::KernelConfig::kInt8);
  const Tensor still_exact = layer.Forward(x);
  for (std::size_t i = 0; i < exact.size(); ++i) {
    // MILR's init/detect/recover contract: per-sample Forward is
    // bit-identical no matter the serving tier.
    EXPECT_EQ(exact[i], still_exact[i]);
  }
}

TEST(DenseInt8, MutationInvalidatesAndRequantizes) {
  Prng prng(9);
  nn::DenseLayer layer(16, 16);
  auto w = RandomMatrix(16, 16, prng);
  std::copy(w.begin(), w.end(), layer.Params().begin());
  layer.set_kernel_config(nn::KernelConfig::kInt8);
  ASSERT_TRUE(layer.int8_weights_valid());

  Tensor x(Shape{2, 16});
  for (auto& v : x.flat()) v = prng.NextFloat(-1.0f, 1.0f);
  const Tensor before = layer.ForwardBatch(x);

  // Mutate through the fault-domain span: the cache must invalidate and
  // the next serve must requantize from the new weights.
  layer.Params()[0] += 2.0f;
  EXPECT_FALSE(layer.int8_weights_valid());
  const Tensor after = layer.ForwardBatch(x);
  EXPECT_TRUE(layer.int8_weights_valid());
  EXPECT_NE(before[0], after[0]);

  // And weights() invalidates too (the other mutable accessor).
  layer.weights();
  EXPECT_FALSE(layer.int8_weights_valid());
}

TEST(DenseInt8, DeterministicAcrossBatchSplits) {
  // Bit-stability across row blocking: serving the same sample alone or
  // inside a large batch must produce identical floats (integer
  // accumulation + fixed-order epilogue). The fp32 fast tier cannot make
  // this promise; the int8 tier's requantization test relies on it.
  Prng prng(13);
  nn::DenseLayer layer(96, 32);
  auto w = RandomMatrix(96, 32, prng);
  std::copy(w.begin(), w.end(), layer.Params().begin());
  layer.set_kernel_config(nn::KernelConfig::kInt8);

  const std::size_t big = 48;  // crosses the rows>=32 ParallelFor path
  Tensor batch(Shape{big, 96});
  for (auto& v : batch.flat()) v = prng.NextFloat(-2.0f, 2.0f);
  const Tensor all = layer.ForwardBatch(batch);
  for (std::size_t s : {std::size_t{0}, std::size_t{17}, big - 1}) {
    Tensor one(Shape{1, 96});
    std::copy_n(batch.data() + s * 96, 96, one.data());
    const Tensor single = layer.ForwardBatch(one);
    for (std::size_t j = 0; j < 32; ++j) {
      EXPECT_EQ(single[j], all[s * 32 + j]) << "s=" << s << " j=" << j;
    }
  }
}

// -------------------------------------------------- Conv2DLayer int8 tier

/// Random filters through Params() — the same fault-domain span every
/// other writer uses. (Conv2DLayer owns a mutex, so no factory-by-value.)
void FillConv(nn::Conv2DLayer& layer, Prng& prng) {
  for (float& v : layer.Params()) v = prng.NextFloat(-1.0f, 1.0f);
}

/// The conv int8 oracle: per sample, im2col the input with the layer's own
/// BuildPatchMatrix, quantize each patch row exactly like the serving path
/// (12-bit per-row scales, padded int16 depth), and run the generic int8
/// GEMM against freshly quantized+packed filters. The serving path must
/// reproduce this BIT-FOR-BIT: integer accumulation is order-independent,
/// the epilogue is one expression, and dispatch (AVX2/VNNI/generic) is
/// bit-invariant by contract.
Tensor ConvInt8Oracle(const nn::Conv2DLayer& layer, const Tensor& batch) {
  const std::size_t b = batch.shape()[0];
  const std::size_t m_ext = batch.shape()[1];
  const std::size_t g = layer.OutputExtent(m_ext);
  const std::size_t plen = layer.PatchLength();
  const std::size_t y = layer.out_channels();
  const std::size_t astride = Int8PaddedDepth(plen);
  const std::size_t sample = m_ext * m_ext * layer.in_channels();

  const QuantizedWeights qw =
      QuantizeWeights(layer.filters().data(), plen, y);
  std::vector<std::int8_t> bpack(PackedInt8BSize(plen, y));
  PackInt8BPanels(qw.values.data(), plen, y, bpack.data());

  Tensor out(Shape{b, g, g, y});
  for (std::size_t s = 0; s < b; ++s) {
    Tensor one(Shape{m_ext, m_ext, layer.in_channels()});
    std::copy_n(batch.data() + s * sample, sample, one.data());
    const Tensor patches = layer.BuildPatchMatrix(one);
    const std::size_t rows = g * g;
    std::vector<std::int16_t> aq(rows * astride, 0);
    std::vector<float> row_scales(rows);
    for (std::size_t r = 0; r < rows; ++r) {
      row_scales[r] = QuantizeActivationRow(patches.data() + r * plen,
                                            plen, aq.data() + r * astride);
    }
    GemmInt8DequantGeneric(aq.data(), astride, row_scales.data(),
                           bpack.data(), qw.scales.data(),
                           out.data() + s * rows * y, rows, plen, y);
  }
  return out;
}

TEST(ConvInt8, ForwardBatchMatchesDequantOracleBitExact) {
  Prng prng(41);
  // Edge cases by construction: kSame padding (zero patch cells), out
  // channels off the 16-wide panel (5, 17, 7), F=1 pointwise conv, and a
  // G=1 output (kValid with M == F) where one patch row IS the input.
  const struct {
    std::size_t f, z, y, m, b;
    nn::Padding pad;
  } cases[] = {
      {3, 3, 5, 6, 2, nn::Padding::kValid},
      {3, 2, 17, 5, 3, nn::Padding::kSame},
      {1, 5, 7, 4, 2, nn::Padding::kValid},
      {3, 4, 16, 3, 1, nn::Padding::kValid},
  };
  for (const auto& c : cases) {
    nn::Conv2DLayer layer(c.f, c.z, c.y, c.pad);
    FillConv(layer, prng);
    layer.set_kernel_config(nn::KernelConfig::kInt8);
    ASSERT_TRUE(layer.int8_filters_valid())
        << "f=" << c.f << " z=" << c.z << " y=" << c.y;
    Tensor batch(Shape{c.b, c.m, c.m, c.z});
    for (auto& v : batch.flat()) v = prng.NextFloat(-2.0f, 2.0f);
    const Tensor got = layer.ForwardBatch(batch);
    const Tensor want = ConvInt8Oracle(layer, batch);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], want[i])
          << "f=" << c.f << " z=" << c.z << " y=" << c.y << " m=" << c.m
          << " pad=" << (c.pad == nn::Padding::kSame ? "same" : "valid")
          << " i=" << i;
    }
  }
}

TEST(ConvInt8, ForwardBatchMatchesExactWithinQuantTolerance) {
  // Sanity on the actual numbers (the oracle test would pass even if both
  // sides shared a scale bug): int8 conv output stays within quantization
  // distance of the exact fp32 tier.
  Prng prng(43);
  nn::Conv2DLayer layer(3, 4, 12, nn::Padding::kSame);
  FillConv(layer, prng);
  Tensor batch(Shape{2, 8, 8, 4});
  for (auto& v : batch.flat()) v = prng.NextFloat(-1.0f, 1.0f);
  const Tensor want = layer.ForwardBatch(batch);
  layer.set_kernel_config(nn::KernelConfig::kInt8);
  const Tensor got = layer.ForwardBatch(batch);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], want[i], 5e-2f) << "i=" << i;
  }
}

TEST(ConvInt8, PerSampleForwardStaysExactUnderInt8Config) {
  Prng prng(47);
  nn::Conv2DLayer layer(3, 2, 6, nn::Padding::kValid);
  FillConv(layer, prng);
  Tensor x(Shape{5, 5, 2});
  for (auto& v : x.flat()) v = prng.NextFloat(-1.0f, 1.0f);
  const Tensor exact = layer.Forward(x);
  layer.set_kernel_config(nn::KernelConfig::kInt8);
  const Tensor still_exact = layer.Forward(x);
  for (std::size_t i = 0; i < exact.size(); ++i) {
    // MILR's init/detect/recover contract holds for conv too: per-sample
    // Forward is bit-identical no matter the serving tier.
    EXPECT_EQ(exact[i], still_exact[i]);
  }
}

TEST(ConvInt8, MutationInvalidatesAndRequantizes) {
  Prng prng(53);
  nn::Conv2DLayer layer(3, 2, 8, nn::Padding::kValid);
  FillConv(layer, prng);
  layer.set_kernel_config(nn::KernelConfig::kInt8);
  ASSERT_TRUE(layer.int8_filters_valid());

  Tensor x(Shape{2, 5, 5, 2});
  for (auto& v : x.flat()) v = prng.NextFloat(-1.0f, 1.0f);
  const Tensor before = layer.ForwardBatch(x);

  // Mutate through the fault-domain span: the packed panels must
  // invalidate and the next serve must requantize from the new filters.
  layer.Params()[0] += 2.0f;
  EXPECT_FALSE(layer.int8_filters_valid());
  const Tensor after = layer.ForwardBatch(x);
  EXPECT_TRUE(layer.int8_filters_valid());
  EXPECT_NE(before[0], after[0]);

  // And the mutable filters() accessor invalidates too.
  layer.filters();
  EXPECT_FALSE(layer.int8_filters_valid());
}

TEST(ConvInt8, StreamedAndMaterializedPathsAreBitIdentical) {
  // A 1-byte budget forces per-row-block streaming; 0 restores the
  // derived default (materialized here — the operand is tiny). Per-row
  // activation scales depend only on the row and integer accumulation is
  // order-independent, so the streamed GEMM must reproduce the
  // materialized bits exactly.
  Prng prng(59);
  nn::Conv2DLayer layer(3, 3, 10, nn::Padding::kSame);
  FillConv(layer, prng);
  layer.set_kernel_config(nn::KernelConfig::kInt8);
  Tensor batch(Shape{4, 7, 7, 3});
  for (auto& v : batch.flat()) v = prng.NextFloat(-2.0f, 2.0f);

  nn::SetPatchMatrixBudgetBytes(1);
  const Tensor streamed = layer.ForwardBatch(batch);
  nn::SetPatchMatrixBudgetBytes(0);
  const Tensor materialized = layer.ForwardBatch(batch);
  ASSERT_EQ(streamed.size(), materialized.size());
  for (std::size_t i = 0; i < streamed.size(); ++i) {
    EXPECT_EQ(streamed[i], materialized[i]) << "i=" << i;
  }
}

// ------------------------------------------------------- int8 depth guard

// Past quant::kInt8MaxDepth the int32 accumulator could overflow, so an
// int8 setting resolves to fast when the layer is configured: the layer
// reports fast (the per-layer trace span and the telemetry kernel label
// read it) and serves the fast tier's bits.
void ExpectInt8SettingServesFast(nn::Layer& layer, const Tensor& batch) {
  layer.set_kernel_config(nn::KernelConfig::kInt8);
  EXPECT_EQ(layer.kernel_config(), nn::KernelConfig::kFast);
  EXPECT_EQ(layer.KernelDescription().rfind("fast", 0), 0u)
      << layer.KernelDescription();
  const Tensor served = layer.ForwardBatch(batch);
  layer.set_kernel_config(nn::KernelConfig::kFast);
  const Tensor fast = layer.ForwardBatch(batch);
  ASSERT_EQ(served.size(), fast.size());
  for (std::size_t i = 0; i < fast.size(); ++i) {
    EXPECT_EQ(served[i], fast[i]) << "i=" << i;
  }
}

TEST(DenseInt8, DepthPastGuardReportsAndServesFast) {
  Prng prng(67);
  const std::size_t depth = kInt8MaxDepth + 1;
  nn::DenseLayer layer(depth, 2);
  for (float& v : layer.Params()) v = prng.NextFloat(-1.0f, 1.0f);
  ExpectInt8SettingServesFast(layer, RandomTensor(Shape{3, depth}, prng));
  EXPECT_FALSE(layer.int8_weights_valid()) << "no int8 replica is built";
}

TEST(ConvInt8, DepthPastGuardReportsAndServesFast) {
  Prng prng(71);
  const std::size_t depth = kInt8MaxDepth + 1;  // 1x1 conv: F²Z = Z
  nn::Conv2DLayer layer(1, depth, 2, nn::Padding::kValid);
  FillConv(layer, prng);
  ExpectInt8SettingServesFast(layer,
                              RandomTensor(Shape{2, 2, 2, depth}, prng));
  EXPECT_FALSE(layer.int8_filters_valid()) << "no int8 replica is built";
}

// ------------------------------------------------------- top-1 agreement

/// Top-1 class of every sample of `batch`, served at the model's tier.
std::vector<std::size_t> TopOneClasses(const nn::Model& model,
                                       const Tensor& batch) {
  const Tensor out = model.PredictBatch(batch);
  const std::size_t samples = batch.shape()[0];
  const std::size_t classes = out.size() / samples;
  std::vector<std::size_t> top(samples);
  for (std::size_t s = 0; s < samples; ++s) {
    const float* row = out.data() + s * classes;
    top[s] = static_cast<std::size_t>(
        std::max_element(row, row + classes) - row);
  }
  return top;
}

struct TierAgreement {
  double fast = 0.0;
  double int8 = 0.0;
};

/// Share of `batch` on which the fast and the int8 tier pick the exact
/// tier's top-1 class. Leaves the model at the exact tier.
TierAgreement TopOneAgreement(nn::Model& model, const Tensor& batch) {
  model.set_kernel_config(nn::KernelConfig::kExact);
  const std::vector<std::size_t> exact = TopOneClasses(model, batch);
  const auto agreement = [&](nn::KernelConfig tier) {
    model.set_kernel_config(tier);
    const std::vector<std::size_t> served = TopOneClasses(model, batch);
    std::size_t agree = 0;
    for (std::size_t s = 0; s < exact.size(); ++s) {
      agree += served[s] == exact[s] ? 1 : 0;
    }
    return static_cast<double>(agree) / static_cast<double>(exact.size());
  };
  TierAgreement result;
  result.fast = agreement(nn::KernelConfig::kFast);
  result.int8 = agreement(nn::KernelConfig::kInt8);
  model.set_kernel_config(nn::KernelConfig::kExact);
  return result;
}

nn::Model SmallConvNet() {
  nn::Model model(Shape{10, 10, 3});
  model.AddConv(3, 24, nn::Padding::kSame).AddBias().AddReLU();
  model.AddMaxPool(2);
  model.AddFlatten();
  model.AddDense(10).AddBias();
  nn::InitHeUniform(model, /*seed=*/17);
  return model;
}

/// The memory-bound conv net: ~28 MB of filters over a 6x6 extent, so
/// each im2col GEMM has 16 (then 4) patch rows per sample against
/// multi-MB filter panels. F²Z = 4608 stays under quant::kInt8MaxDepth.
nn::Model ConvXlNet() {
  nn::Model model(Shape{6, 6, 512});
  model.AddConv(3, 512, nn::Padding::kValid).AddReLU();   // 6->4, 9.4 MB
  model.AddConv(3, 1024, nn::Padding::kValid).AddReLU();  // 4->2, 18.9 MB
  model.AddFlatten();
  model.AddDense(10).AddBias();
  nn::InitHeUniform(model, /*seed=*/11);
  return model;
}

TEST(ConvInt8, TopOneAgreementOnConvNet) {
  // End-to-end acceptance proxy for the conv tier: He-init conv nets and
  // random probes (no trained margins), fast and int8 top-1 vs exact.
  // Every conv must also dispatch int8 from valid filter panels, so the
  // int8 tier cannot silently serve the fp32 fallback on conv_xl.
  const struct {
    const char* name;
    nn::Model (*build)();
    std::size_t samples;
    std::uint64_t probe_seed;
  } nets[] = {{"small", SmallConvNet, 200, 61},
              {"conv_xl", ConvXlNet, 64, 23}};
  for (const auto& net : nets) {
    nn::Model model = net.build();
    model.set_kernel_config(nn::KernelConfig::kInt8);
    for (std::size_t i = 0; i < model.LayerCount(); ++i) {
      const auto* conv =
          dynamic_cast<const nn::Conv2DLayer*>(&model.layer(i));
      if (conv == nullptr) continue;
      EXPECT_EQ(conv->kernel_config(), nn::KernelConfig::kInt8)
          << net.name << " layer " << i;
      EXPECT_TRUE(conv->int8_filters_valid()) << net.name << " layer " << i;
    }
    Prng prng(net.probe_seed);
    const Tensor batch = RandomTensor(
        WithBatchAxis(net.samples, model.input_shape()), prng);
    const TierAgreement agreement = TopOneAgreement(model, batch);
    EXPECT_GE(agreement.fast, 0.99) << net.name;
    EXPECT_GE(agreement.int8, 0.99) << net.name;
  }
}

TEST(DenseInt8, TopOneAgreementOnServingNet) {
  // End-to-end acceptance proxy: fast and int8 top-1 must track exact
  // >= 99%. A dense MLP with He-init weights and random probes is the
  // adversarial case (no trained margins).
  nn::Model model(Shape{256});
  model.AddDense(320).AddBias().AddReLU();
  model.AddDense(320).AddBias().AddReLU();
  model.AddDense(256).AddBias().AddReLU();
  model.AddDense(10).AddBias();
  nn::InitHeUniform(model, /*seed=*/11);

  Prng prng(29);
  const Tensor batch = RandomTensor(Shape{300, 256}, prng);
  const TierAgreement agreement = TopOneAgreement(model, batch);
  EXPECT_GE(agreement.fast, 0.99);
  EXPECT_GE(agreement.int8, 0.99);
}

// Trained checkpoints have wider logit gaps than He-init weights; these
// pin fast and int8 top-1 on nets trained on the synthetic generator
// (12x12 images, seed 7): 160 samples to train on, the next 64 held out
// as probes. 0.98 allows one disagreement in 64.

struct SyntheticSplit {
  nn::Dataset train;
  Tensor probes;
};

SyntheticSplit TrainAndProbeSplit() {
  data::SyntheticSpec spec;
  spec.image_size = 12;
  spec.seed = 7;
  constexpr std::size_t kTrain = 160, kProbes = 64;
  nn::Dataset all = data::GenerateSynthetic(spec, kTrain + kProbes);
  SyntheticSplit split;
  for (std::size_t i = 0; i < kTrain; ++i) {
    split.train.images.push_back(std::move(all.images[i]));
    split.train.labels.push_back(all.labels[i]);
  }
  const Shape sample = all.images[kTrain].shape();
  const std::size_t stride = sample.NumElements();
  split.probes = Tensor(WithBatchAxis(kProbes, sample));
  for (std::size_t s = 0; s < kProbes; ++s) {
    std::copy_n(all.images[kTrain + s].data(), stride,
                split.probes.data() + s * stride);
  }
  return split;
}

void TrainOnSplit(nn::Model& model, const SyntheticSplit& split) {
  nn::TrainConfig config;
  config.epochs = 2;
  config.batch_size = 32;
  config.learning_rate = 0.05f;
  nn::Fit(model, split.train, config);
  // Well past chance (0.1): the agreement below is on a trained net.
  EXPECT_GT(nn::Evaluate(model, split.train), 0.3);
}

TEST(DenseInt8, TopOneAgreementOnTrainedMlp) {
  const SyntheticSplit split = TrainAndProbeSplit();
  nn::Model model(Shape{12, 12, 1});
  model.AddFlatten();
  model.AddDense(64).AddBias().AddReLU();
  model.AddDense(10).AddBias();
  nn::InitHeUniform(model, /*seed=*/11);
  TrainOnSplit(model, split);

  const TierAgreement agreement = TopOneAgreement(model, split.probes);
  EXPECT_GE(agreement.fast, 0.98);
  EXPECT_GE(agreement.int8, 0.98);
}

TEST(ConvInt8, TopOneAgreementOnTrainedConvNet) {
  const SyntheticSplit split = TrainAndProbeSplit();
  nn::Model model(Shape{12, 12, 1});
  model.AddConv(3, 8, nn::Padding::kSame).AddBias().AddReLU();
  model.AddMaxPool(2);
  model.AddFlatten();
  model.AddDense(32).AddBias().AddReLU();
  model.AddDense(10).AddBias();
  nn::InitHeUniform(model, /*seed=*/13);
  TrainOnSplit(model, split);

  const TierAgreement agreement = TopOneAgreement(model, split.probes);
  EXPECT_GE(agreement.fast, 0.98);
  EXPECT_GE(agreement.int8, 0.98);
}

}  // namespace
}  // namespace milr::quant
