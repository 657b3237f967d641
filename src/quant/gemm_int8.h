// Int8-weight GEMM with int32 accumulation and a dequantizing epilogue —
// the kernel half of the quantized serving tier (numerics: quantize.h).
//
// Shape and layout mirror the fp32 fast tier's pre-packed weight path
// (nn/gemm.h): B is a layer's weight matrix, quantized to int8 and packed
// ONCE per (re)quantization into column panels a micro-kernel can stream
// with contiguous loads; A is the activation micro-batch, quantized per
// row to symmetric int16 by the caller. The GEMM computes the exact int32
// product
//     acc[i][j] = sum_p aq[i][p] * bq[p][j]     (s16 * s8 -> s32)
// and the epilogue reconstructs fp32:
//     C[i][j] += s_a[i] * s_w[j] * acc[i][j]
//
// Packed layout (PackInt8BPanels -> GemmInt8Dequant): columns are split
// into panels of kInt8ColPanel (16); k is padded up to a multiple of
// kInt8KPair (2) with zeros. Panel q holds its 16 columns for ALL of k,
// k-pair-major: pair block t occupies 32 bytes at offset t*32, column j's
// two consecutive k values at bytes 2j, 2j+1. One panel is k2*16 bytes
// (k = 1536 -> 24 KiB), so the inner loop order — panel outer, row tiles
// inner — streams each weight panel from memory exactly once per GEMM and
// reuses it L1/L2-hot across every row of the micro-batch. That single
// pass over 4x fewer weight bytes than fp32 is the entire point of the
// tier in the memory-bound regime.
//
// Two micro-kernels, one result:
//  * AVX2 (runtime-dispatched on x86-64): 16 packed int8 weights widen to
//    int16 (vpmovsxbw), then one _mm256_madd_epi16 against a broadcast
//    activation pair folds byte pairs (2j, 2j+1) — both lanes of column j
//    — into 8 per-column s32 partial dots. madd's s16 x s16 products sum
//    exactly in s32: with |a| <= 2047 and |w| <= 127 nothing can
//    saturate, and the 12-bit activation bound (quantize.h) keeps the
//    full k-sweep accumulator overflow-free up to kInt8MaxDepth.
//  * Generic (everything else): scalar loops over the same packed layout.
// Both produce the same int32 accumulators and run the same float
// epilogue expression, so int8-tier results are bit-identical across
// dispatch, row blocking and thread count. Tests assert this equality.
//
// Serial on purpose, like every kernel in nn/gemm.h: callers parallelize
// across row blocks; the kernels never spawn threads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "quant/quantize.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#endif

namespace milr::quant {

/// Column panel width of the packed int8 B layout.
inline constexpr std::size_t kInt8ColPanel = 16;
/// k-pair depth: the unit the micro-kernels consume (2 int8 per column).
inline constexpr std::size_t kInt8KPair = 2;
/// Largest k the int32 accumulator provably cannot overflow for:
/// k * kActivationQuantMax * kWeightQuantMax <= 2^31 - 1.
inline constexpr std::size_t kInt8MaxDepth =
    static_cast<std::size_t>(2147483647) /
    static_cast<std::size_t>(kActivationQuantMax * kWeightQuantMax);

/// k padded up to a whole number of k-pairs; the A-row stride contract.
inline std::size_t Int8PaddedDepth(std::size_t k) {
  return (k + kInt8KPair - 1) / kInt8KPair * kInt8KPair;
}

/// Bytes PackInt8BPanels needs for a row-major (k, n) quantized B.
inline std::size_t PackedInt8BSize(std::size_t k, std::size_t n) {
  const std::size_t n_panels =
      (n + kInt8ColPanel - 1) / kInt8ColPanel;
  return n_panels * Int8PaddedDepth(k) * kInt8ColPanel;
}

/// Packs row-major quantized B(k, n) into the panel layout documented in
/// the file comment. `out` must hold PackedInt8BSize(k, n) bytes; padding
/// (k tail and column tail) is zero, which contributes nothing to the
/// integer accumulators.
inline void PackInt8BPanels(const std::int8_t* b, std::size_t k,
                            std::size_t n, std::int8_t* out) {
  const std::size_t k2 = Int8PaddedDepth(k);
  const std::size_t n_panels =
      (n + kInt8ColPanel - 1) / kInt8ColPanel;
  for (std::size_t q = 0; q < n_panels; ++q) {
    const std::size_t jc = q * kInt8ColPanel;
    const std::size_t nb =
        n - jc < kInt8ColPanel ? n - jc : kInt8ColPanel;
    std::int8_t* panel = out + q * k2 * kInt8ColPanel;
    for (std::size_t t = 0; t < k2 / kInt8KPair; ++t) {
      std::int8_t* pair = panel + t * kInt8KPair * kInt8ColPanel;
      for (std::size_t j = 0; j < kInt8ColPanel; ++j) {
        for (std::size_t s = 0; s < kInt8KPair; ++s) {
          const std::size_t p = t * kInt8KPair + s;
          pair[j * kInt8KPair + s] =
              (j < nb && p < k) ? b[p * n + jc + j] : std::int8_t{0};
        }
      }
    }
  }
}

/// Everything a layer needs to serve int8 from cached weights: the packed
/// panels plus the per-output-channel scales. This is the int8 analog of
/// DenseLayer's packed fp32 B-panel cache — a DERIVED replica of the
/// MILR-protected fp32 master, rebuilt after every weight mutation.
struct Int8ServingWeights {
  std::vector<std::int8_t> panels;  // PackInt8BPanels layout
  std::vector<float> scales;        // s_w[j]
};

/// Quantizes row-major fp32 B(k, n) and packs it for GemmInt8Dequant in
/// one shot — the layer-facing "requantization" entry point.
inline Int8ServingWeights PrepareInt8ServingWeights(const float* b,
                                                    std::size_t k,
                                                    std::size_t n) {
  QuantizedWeights q = QuantizeWeights(b, k, n);
  Int8ServingWeights out;
  out.panels.resize(PackedInt8BSize(k, n));
  PackInt8BPanels(q.values.data(), k, n, out.panels.data());
  out.scales = std::move(q.scales);
  return out;
}

namespace int8_detail {

/// Shared dequantizing epilogue: one C row slice, one column panel. Both
/// micro-kernels funnel their int32 accumulators through this exact float
/// expression, which is what makes the tier's results dispatch-invariant.
inline void DequantEpilogue(float* crow, const std::int32_t* acc,
                            float row_scale, const float* scales,
                            std::size_t jc, std::size_t nb) {
  for (std::size_t j = 0; j < nb; ++j) {
    crow[jc + j] +=
        row_scale * scales[jc + j] * static_cast<float>(acc[j]);
  }
}

}  // namespace int8_detail

/// Generic int8 GEMM + dequant: the portable fallback AND the equivalence
/// oracle the AVX2 kernel is tested against (bit-identical, see file
/// comment). `aq` is (m, astride) row-major s16 with astride >=
/// Int8PaddedDepth(k) and zero k-padding; `row_scales` holds m per-row
/// scales; `bpack` is PackInt8BPanels layout with `scales` from
/// QuantizedWeights. C(m, n) row-major is accumulated into (+=).
inline void GemmInt8DequantGeneric(
    const std::int16_t* aq, std::size_t astride, const float* row_scales,
    const std::int8_t* bpack, const float* scales, float* c, std::size_t m,
    std::size_t k, std::size_t n) {
  const std::size_t k2 = Int8PaddedDepth(k);
  const std::size_t n_panels =
      (n + kInt8ColPanel - 1) / kInt8ColPanel;
  for (std::size_t q = 0; q < n_panels; ++q) {
    const std::size_t jc = q * kInt8ColPanel;
    const std::size_t nb =
        n - jc < kInt8ColPanel ? n - jc : kInt8ColPanel;
    const std::int8_t* panel = bpack + q * k2 * kInt8ColPanel;
    for (std::size_t i = 0; i < m; ++i) {
      const std::int16_t* arow = aq + i * astride;
      std::int32_t acc[kInt8ColPanel] = {};
      for (std::size_t t = 0; t < k2 / kInt8KPair; ++t) {
        const std::int8_t* pair = panel + t * kInt8KPair * kInt8ColPanel;
        const std::int32_t a0 = arow[t * kInt8KPair + 0];
        const std::int32_t a1 = arow[t * kInt8KPair + 1];
        for (std::size_t j = 0; j < kInt8ColPanel; ++j) {
          acc[j] += a0 * pair[j * kInt8KPair + 0] +
                    a1 * pair[j * kInt8KPair + 1];
        }
      }
      int8_detail::DequantEpilogue(c + i * n, acc, row_scales[i], scales,
                                   jc, nb);
    }
  }
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define MILR_QUANT_HAVE_AVX2 1
#endif

#ifdef MILR_QUANT_HAVE_AVX2
namespace int8_detail {

/// One-time CPUID probe, mirroring gemm_detail::HasAvx2Fma (vpmovsxbw /
/// vpmaddwd only need AVX2; FMA is irrelevant to the integer pipeline).
inline bool HasAvx2() {
  static const bool ok = __builtin_cpu_supports("avx2");
  return ok;
}

/// Widen 16 packed int8 weights (8 columns x 2 k) to int16 and fold them
/// against a broadcast activation pair -> 8 per-column s32 partial dots.
__attribute__((target("avx2"))) inline __m256i PairDot(
    __m256i a_pair_bcast, const std::int8_t* pair16) {
  const __m256i b16 = _mm256_cvtepi8_epi16(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(pair16)));
  return _mm256_madd_epi16(a_pair_bcast, b16);
}

/// AVX2 flavor of GemmInt8DequantGeneric: 4-row register tile, two s32
/// accumulator vectors per row (16 columns), B panels streamed once and
/// reused across every row tile of the micro-batch.
__attribute__((target("avx2"))) inline void GemmInt8DequantAvx2(
    const std::int16_t* aq, std::size_t astride, const float* row_scales,
    const std::int8_t* bpack, const float* scales, float* c, std::size_t m,
    std::size_t k, std::size_t n) {
  constexpr std::size_t kMr = 4;
  const std::size_t k2 = Int8PaddedDepth(k);
  const std::size_t pairs = k2 / kInt8KPair;
  const std::size_t n_panels =
      (n + kInt8ColPanel - 1) / kInt8ColPanel;
  for (std::size_t q = 0; q < n_panels; ++q) {
    const std::size_t jc = q * kInt8ColPanel;
    const std::size_t nb =
        n - jc < kInt8ColPanel ? n - jc : kInt8ColPanel;
    const std::int8_t* panel = bpack + q * k2 * kInt8ColPanel;
    std::size_t i = 0;
    for (; i + kMr <= m; i += kMr) {
      __m256i acc[kMr][2];
      for (std::size_t r = 0; r < kMr; ++r) {
        acc[r][0] = _mm256_setzero_si256();
        acc[r][1] = _mm256_setzero_si256();
      }
      const std::int16_t* arow[kMr];
      for (std::size_t r = 0; r < kMr; ++r) {
        arow[r] = aq + (i + r) * astride;
      }
      for (std::size_t t = 0; t < pairs; ++t) {
        const std::int8_t* pair = panel + t * kInt8KPair * kInt8ColPanel;
        // Hoist the two widened B halves out of the row loop: the whole
        // register tile shares one load+widen per 16 columns.
        const __m256i b_lo = _mm256_cvtepi8_epi16(_mm_loadu_si128(
            reinterpret_cast<const __m128i*>(pair)));  // cols jc..jc+7
        const __m256i b_hi = _mm256_cvtepi8_epi16(_mm_loadu_si128(
            reinterpret_cast<const __m128i*>(pair + 16)));  // jc+8..+15
        for (std::size_t r = 0; r < kMr; ++r) {
          std::int32_t a_word;
          __builtin_memcpy(&a_word, arow[r] + t * kInt8KPair,
                           sizeof(a_word));
          const __m256i a_bcast = _mm256_set1_epi32(a_word);
          acc[r][0] = _mm256_add_epi32(acc[r][0],
                                       _mm256_madd_epi16(a_bcast, b_lo));
          acc[r][1] = _mm256_add_epi32(acc[r][1],
                                       _mm256_madd_epi16(a_bcast, b_hi));
        }
      }
      for (std::size_t r = 0; r < kMr; ++r) {
        alignas(32) std::int32_t lanes[kInt8ColPanel];
        _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc[r][0]);
        _mm256_store_si256(reinterpret_cast<__m256i*>(lanes + 8),
                           acc[r][1]);
        DequantEpilogue(c + (i + r) * n, lanes, row_scales[i + r], scales,
                        jc, nb);
      }
    }
    for (; i < m; ++i) {  // leftover rows: one-row tile, same pipeline
      __m256i acc0 = _mm256_setzero_si256();
      __m256i acc1 = _mm256_setzero_si256();
      const std::int16_t* arow = aq + i * astride;
      for (std::size_t t = 0; t < pairs; ++t) {
        const std::int8_t* pair = panel + t * kInt8KPair * kInt8ColPanel;
        std::int32_t a_word;
        __builtin_memcpy(&a_word, arow + t * kInt8KPair, sizeof(a_word));
        const __m256i a_bcast = _mm256_set1_epi32(a_word);
        acc0 = _mm256_add_epi32(acc0, PairDot(a_bcast, pair));
        acc1 = _mm256_add_epi32(acc1, PairDot(a_bcast, pair + 16));
      }
      alignas(32) std::int32_t lanes[kInt8ColPanel];
      _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc0);
      _mm256_store_si256(reinterpret_cast<__m256i*>(lanes + 8), acc1);
      DequantEpilogue(c + i * n, lanes, row_scales[i], scales, jc, nb);
    }
  }
}

}  // namespace int8_detail
#endif  // MILR_QUANT_HAVE_AVX2

/// Int8-weight GEMM + dequantizing epilogue, runtime-dispatched: AVX2 on
/// capable x86-64, the generic kernel elsewhere — with bit-identical
/// results (see file comment). Contracts: `aq` rows are zero-padded to
/// astride >= Int8PaddedDepth(k); k <= kInt8MaxDepth; C is accumulated
/// into.
inline void GemmInt8Dequant(const std::int16_t* aq, std::size_t astride,
                            const float* row_scales,
                            const std::int8_t* bpack, const float* scales,
                            float* c, std::size_t m, std::size_t k,
                            std::size_t n) {
  if (m == 0 || n == 0 || k == 0) return;
#ifdef MILR_QUANT_HAVE_AVX2
  if (int8_detail::HasAvx2()) {
    int8_detail::GemmInt8DequantAvx2(aq, astride, row_scales, bpack,
                                     scales, c, m, k, n);
    return;
  }
#endif
  GemmInt8DequantGeneric(aq, astride, row_scales, bpack, scales, c, m, k,
                         n);
}

/// The int8 micro-kernels a kernel-registry plan can name. Both are
/// bit-identical (file comment), so the choice is purely a throughput
/// decision and never perturbs served outputs.
enum class Int8Kernel { kGeneric, kAvx2 };

inline const char* Int8KernelName(Int8Kernel which) {
  switch (which) {
    case Int8Kernel::kGeneric: return "generic";
    case Int8Kernel::kAvx2: return "avx2";
  }
  return "?";
}

/// True when `which` can execute on this build + machine.
inline bool Int8KernelSupported(Int8Kernel which) {
  switch (which) {
    case Int8Kernel::kGeneric:
      return true;
    case Int8Kernel::kAvx2:
#ifdef MILR_QUANT_HAVE_AVX2
      return int8_detail::HasAvx2();
#else
      return false;
#endif
  }
  return false;
}

/// Registry-driven entry point: runs a specific (supported) kernel rather
/// than the fixed HasAvx2 heuristic of GemmInt8Dequant. Same contracts.
inline void GemmInt8DequantWith(Int8Kernel which, const std::int16_t* aq,
                                std::size_t astride,
                                const float* row_scales,
                                const std::int8_t* bpack,
                                const float* scales, float* c,
                                std::size_t m, std::size_t k,
                                std::size_t n) {
  if (m == 0 || n == 0 || k == 0) return;
#ifdef MILR_QUANT_HAVE_AVX2
  if (which == Int8Kernel::kAvx2 && int8_detail::HasAvx2()) {
    int8_detail::GemmInt8DequantAvx2(aq, astride, row_scales, bpack,
                                     scales, c, m, k, n);
    return;
  }
#endif
  GemmInt8DequantGeneric(aq, astride, row_scales, bpack, scales, c, m, k,
                         n);
}

}  // namespace milr::quant
