#include "quant/quantize.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "quant/gemm_int8.h"  // int8_detail::HasAvx2, MILR_QUANT_HAVE_AVX2

namespace milr::quant {

QuantizedWeights QuantizeWeights(const float* b, std::size_t k,
                                 std::size_t n) {
  QuantizedWeights q;
  q.k = k;
  q.n = n;
  q.values.resize(k * n);
  q.scales.resize(n);

  // Pass 1: per-output-column maxabs over the finite weights only. A
  // corrupted Inf would otherwise set scale = Inf and quantize the whole
  // column to 0 — saturating the one bad weight keeps the rest faithful.
  for (std::size_t j = 0; j < n; ++j) {
    float maxabs = 0.0f;
    for (std::size_t p = 0; p < k; ++p) {
      const float w = b[p * n + j];
      if (std::isfinite(w)) maxabs = std::max(maxabs, std::fabs(w));
    }
    // Guard on the DIVIDED scale, not maxabs: an all-denormal column has
    // maxabs > 0 but maxabs/127 can underflow to 0, and dividing by that
    // scale below would raise Inf out of lrintf. Unit scale quantizes
    // such a column to all-zero values deterministically.
    const float scale = maxabs / static_cast<float>(kWeightQuantMax);
    q.scales[j] = scale > 0.0f ? scale : 1.0f;
  }

  // Pass 2: round-to-nearest, saturate symmetrically.
  for (std::size_t p = 0; p < k; ++p) {
    for (std::size_t j = 0; j < n; ++j) {
      const float w = b[p * n + j];
      std::int32_t v = 0;
      if (std::isfinite(w)) {
        v = static_cast<std::int32_t>(std::lrintf(w / q.scales[j]));
        v = std::clamp(v, -kWeightQuantMax, kWeightQuantMax);
      }
      q.values[p * n + j] = static_cast<std::int8_t>(v);
    }
  }
  return q;
}

void DequantizeWeights(const QuantizedWeights& q, float* out) {
  for (std::size_t p = 0; p < q.k; ++p) {
    for (std::size_t j = 0; j < q.n; ++j) {
      out[p * q.n + j] =
          static_cast<float>(q.values[p * q.n + j]) * q.scales[j];
    }
  }
}

namespace {

// Shared by both flavours of QuantizeActivationRow, so the scale rule and
// the per-value expression exist once. Same denormal-underflow guard as
// QuantizeWeights: test the divided scale, not maxabs.
float ActivationRowScale(float maxabs) {
  const float divided = maxabs / static_cast<float>(kActivationQuantMax);
  return divided > 0.0f ? divided : 1.0f;
}

std::int16_t QuantizeActivation(float v, float scale) {
  std::int32_t qv = 0;
  if (std::isfinite(v)) {
    qv = std::clamp(static_cast<std::int32_t>(std::lrintf(v / scale)),
                    -kActivationQuantMax, kActivationQuantMax);
  }
  return static_cast<std::int16_t>(qv);
}

#ifdef MILR_QUANT_HAVE_AVX2
// Bit-identical to QuantizeActivationRowGeneric, step for step:
//  * max-abs: |x| masked by an ordered |x| < inf compare, so NaN and Inf
//    lanes contribute 0; max over non-negative values is order-free.
//  * vdivps by the row scale, the same IEEE division as `v / scale`.
//  * vcvtps2dq rounds under MXCSR's default round-to-nearest-even, which
//    is what lrintf does (nothing in the repo changes MXCSR).
//  * clamp to +/-kActivationQuantMax, then zero the non-finite lanes
//    (their Inf quotients convert to INT_MIN, which the mask discards).
__attribute__((target("avx2"))) __m256i QuantizeActivation8(
    const float* a, __m256 scale, __m256 abs_mask, __m256 inf) {
  const __m256 x = _mm256_loadu_ps(a);
  const __m256 finite =
      _mm256_cmp_ps(_mm256_and_ps(x, abs_mask), inf, _CMP_LT_OQ);
  __m256i q = _mm256_cvtps_epi32(_mm256_div_ps(x, scale));
  q = _mm256_max_epi32(q, _mm256_set1_epi32(-kActivationQuantMax));
  q = _mm256_min_epi32(q, _mm256_set1_epi32(kActivationQuantMax));
  return _mm256_and_si256(q, _mm256_castps_si256(finite));
}

__attribute__((target("avx2"))) float QuantizeActivationRowAvx2(
    const float* a, std::size_t k, std::int16_t* out) {
  const __m256 abs_mask =
      _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
  const __m256 inf = _mm256_set1_ps(std::numeric_limits<float>::infinity());
  __m256 vmax = _mm256_setzero_ps();
  std::size_t p = 0;
  for (; p + 8 <= k; p += 8) {
    const __m256 mag = _mm256_and_ps(_mm256_loadu_ps(a + p), abs_mask);
    vmax = _mm256_max_ps(
        vmax, _mm256_and_ps(mag, _mm256_cmp_ps(mag, inf, _CMP_LT_OQ)));
  }
  __m128 m4 = _mm_max_ps(_mm256_castps256_ps128(vmax),
                         _mm256_extractf128_ps(vmax, 1));
  m4 = _mm_max_ps(m4, _mm_movehl_ps(m4, m4));
  m4 = _mm_max_ss(m4, _mm_shuffle_ps(m4, m4, 1));
  float maxabs = _mm_cvtss_f32(m4);
  for (; p < k; ++p) {
    if (std::isfinite(a[p])) maxabs = std::max(maxabs, std::fabs(a[p]));
  }

  const float scale = ActivationRowScale(maxabs);
  const __m256 vscale = _mm256_set1_ps(scale);
  p = 0;
  for (; p + 16 <= k; p += 16) {
    // packs_epi32 interleaves the two inputs per 128-bit lane;
    // permute4x64 0xD8 restores element order. Nothing saturates: every
    // value is already within +/-2047.
    const __m256i packed = _mm256_packs_epi32(
        QuantizeActivation8(a + p, vscale, abs_mask, inf),
        QuantizeActivation8(a + p + 8, vscale, abs_mask, inf));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + p),
                        _mm256_permute4x64_epi64(packed, 0xD8));
  }
  if (p + 8 <= k) {
    const __m256i q = QuantizeActivation8(a + p, vscale, abs_mask, inf);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + p),
                     _mm_packs_epi32(_mm256_castsi256_si128(q),
                                     _mm256_extracti128_si256(q, 1)));
    p += 8;
  }
  for (; p < k; ++p) out[p] = QuantizeActivation(a[p], scale);
  return scale;
}
#endif  // MILR_QUANT_HAVE_AVX2

}  // namespace

float QuantizeActivationRowGeneric(const float* a, std::size_t k,
                                   std::int16_t* out) {
  float maxabs = 0.0f;
  for (std::size_t p = 0; p < k; ++p) {
    const float v = a[p];
    if (std::isfinite(v)) maxabs = std::max(maxabs, std::fabs(v));
  }
  const float scale = ActivationRowScale(maxabs);
  for (std::size_t p = 0; p < k; ++p) out[p] = QuantizeActivation(a[p], scale);
  return scale;
}

float QuantizeActivationRow(const float* a, std::size_t k,
                            std::int16_t* out) {
#ifdef MILR_QUANT_HAVE_AVX2
  if (int8_detail::HasAvx2()) return QuantizeActivationRowAvx2(a, k, out);
#endif
  return QuantizeActivationRowGeneric(a, k, out);
}

}  // namespace milr::quant
