// Row-major float GEMM kernels used by conv (im2col) and dense layers.
//
// Three tiers live here:
//  * The exact production kernels (GemmAccumulate and the transposed
//    variants) are cache-blocked and register-tiled: a 4-row register tile
//    shares every load of a B panel, and the accumulation runs over a
//    contiguous column panel the compiler can vectorize. B traffic drops
//    ~4x versus the naive triple loop, which is what matters for the large
//    dense weight matrices and the batched conv patch GEMMs.
//  * GemmAccumulateFast is the packed-panel tier (KernelConfig::kFast):
//    B is repacked into contiguous (kc, nr) column panels, A into (mr, kc)
//    micro-panels, and an mr×nr register micro-kernel sweeps each k block
//    with all accumulators in registers and every inner load contiguous.
//    k is split into kc blocks, so accumulation order differs from the
//    exact tier — results are tolerance-equivalent, not bit-identical.
//  * The *Reference kernels are the original naive loops, retained as the
//    equivalence oracle for tests (tests/gemm_test.cc).
//
// Every exact-tier kernel — reference and tiled alike — computes the full
// IEEE sum in the same per-element order: k is never split, accumulators
// start from C, terms are added in ascending p, and a == 0 terms are never
// short-circuited (the old kernel's zero-skip would hide 0·Inf/NaN from
// corrupted weights, making single and batched row groupings disagree under
// fault injection). With the project's default flags (no -ffast-math) the
// results are therefore bit-identical for ALL inputs, including non-finite
// ones, and the tests assert exact equality. The fast tier keeps the
// no-short-circuit property (panel padding is additive zeros), so corrupted
// Inf/NaN weights still poison the affected outputs.
//
// Serial on purpose: callers (batched conv, dense, recovery) parallelize
// across row blocks or samples; nesting thread pools would oversubscribe.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "nn/kernel_config.h"

namespace milr::nn {

// ------------------------------------------------------- reference kernels

/// C(m,n) += A(m,k) · B(k,n), all row-major contiguous. Naive oracle.
inline void GemmAccumulateReference(const float* a, const float* b, float* c,
                                    std::size_t m, std::size_t k,
                                    std::size_t n) {
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (std::size_t p = 0; p < k; ++p) {
      const float aval = arow[p];
      const float* brow = b + p * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += aval * brow[j];
    }
  }
}

/// C(m,n) += Aᵀ(m,k)·B(k,n) where A is stored as (k,m) row-major. Oracle.
inline void GemmTransposedAAccumulateReference(const float* a, const float* b,
                                               float* c, std::size_t m,
                                               std::size_t k, std::size_t n) {
  for (std::size_t p = 0; p < k; ++p) {
    const float* arow = a + p * m;
    const float* brow = b + p * n;
    for (std::size_t i = 0; i < m; ++i) {
      const float aval = arow[i];
      float* crow = c + i * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += aval * brow[j];
    }
  }
}

/// C(m,n) += A(m,k)·Bᵀ(k,n) where B is stored as (n,k) row-major. Oracle.
inline void GemmTransposedBAccumulateReference(const float* a, const float* b,
                                               float* c, std::size_t m,
                                               std::size_t k, std::size_t n) {
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      const float* brow = b + j * k;
      float acc = 0.0f;
      for (std::size_t p = 0; p < k; ++p) acc += arow[p] * brow[p];
      crow[j] += acc;
    }
  }
}

// ------------------------------------------------------ production kernels

namespace gemm_detail {
/// Register tile height: rows of A that share one pass over a B panel.
inline constexpr std::size_t kRowTile = 4;
/// Column panel width: the slice of C/B kept hot while sweeping k.
inline constexpr std::size_t kColPanel = 64;
}  // namespace gemm_detail

/// C(m,n) += A(m,k) · B(k,n), all row-major contiguous.
inline void GemmAccumulate(const float* a, const float* b, float* c,
                           std::size_t m, std::size_t k, std::size_t n) {
  using gemm_detail::kColPanel;
  using gemm_detail::kRowTile;
  for (std::size_t jc = 0; jc < n; jc += kColPanel) {
    const std::size_t nb = std::min(kColPanel, n - jc);
    std::size_t i = 0;
    for (; i + kRowTile <= m; i += kRowTile) {
      const float* a0 = a + (i + 0) * k;
      const float* a1 = a + (i + 1) * k;
      const float* a2 = a + (i + 2) * k;
      const float* a3 = a + (i + 3) * k;
      float* c0 = c + (i + 0) * n + jc;
      float* c1 = c + (i + 1) * n + jc;
      float* c2 = c + (i + 2) * n + jc;
      float* c3 = c + (i + 3) * n + jc;
      float acc0[kColPanel], acc1[kColPanel], acc2[kColPanel],
          acc3[kColPanel];
      for (std::size_t j = 0; j < nb; ++j) {
        acc0[j] = c0[j];
        acc1[j] = c1[j];
        acc2[j] = c2[j];
        acc3[j] = c3[j];
      }
      for (std::size_t p = 0; p < k; ++p) {
        const float* brow = b + p * n + jc;
        const float v0 = a0[p];
        const float v1 = a1[p];
        const float v2 = a2[p];
        const float v3 = a3[p];
        for (std::size_t j = 0; j < nb; ++j) {
          acc0[j] += v0 * brow[j];
          acc1[j] += v1 * brow[j];
          acc2[j] += v2 * brow[j];
          acc3[j] += v3 * brow[j];
        }
      }
      for (std::size_t j = 0; j < nb; ++j) {
        c0[j] = acc0[j];
        c1[j] = acc1[j];
        c2[j] = acc2[j];
        c3[j] = acc3[j];
      }
    }
    for (; i < m; ++i) {
      const float* arow = a + i * k;
      float* crow = c + i * n + jc;
      float acc[kColPanel];
      for (std::size_t j = 0; j < nb; ++j) acc[j] = crow[j];
      for (std::size_t p = 0; p < k; ++p) {
        const float aval = arow[p];
        const float* brow = b + p * n + jc;
        for (std::size_t j = 0; j < nb; ++j) acc[j] += aval * brow[j];
      }
      for (std::size_t j = 0; j < nb; ++j) crow[j] = acc[j];
    }
  }
}

/// C(m,n) += Aᵀ(m,k)·B(k,n) where A is stored as (k,m) row-major.
inline void GemmTransposedAAccumulate(const float* a, const float* b, float* c,
                                      std::size_t m, std::size_t k,
                                      std::size_t n) {
  using gemm_detail::kColPanel;
  using gemm_detail::kRowTile;
  for (std::size_t jc = 0; jc < n; jc += kColPanel) {
    const std::size_t nb = std::min(kColPanel, n - jc);
    std::size_t i = 0;
    for (; i + kRowTile <= m; i += kRowTile) {
      float* c0 = c + (i + 0) * n + jc;
      float* c1 = c + (i + 1) * n + jc;
      float* c2 = c + (i + 2) * n + jc;
      float* c3 = c + (i + 3) * n + jc;
      float acc0[kColPanel], acc1[kColPanel], acc2[kColPanel],
          acc3[kColPanel];
      for (std::size_t j = 0; j < nb; ++j) {
        acc0[j] = c0[j];
        acc1[j] = c1[j];
        acc2[j] = c2[j];
        acc3[j] = c3[j];
      }
      for (std::size_t p = 0; p < k; ++p) {
        const float* acol = a + p * m + i;  // 4 consecutive i, one line
        const float* brow = b + p * n + jc;
        const float v0 = acol[0];
        const float v1 = acol[1];
        const float v2 = acol[2];
        const float v3 = acol[3];
        for (std::size_t j = 0; j < nb; ++j) {
          acc0[j] += v0 * brow[j];
          acc1[j] += v1 * brow[j];
          acc2[j] += v2 * brow[j];
          acc3[j] += v3 * brow[j];
        }
      }
      for (std::size_t j = 0; j < nb; ++j) {
        c0[j] = acc0[j];
        c1[j] = acc1[j];
        c2[j] = acc2[j];
        c3[j] = acc3[j];
      }
    }
    for (; i < m; ++i) {
      float* crow = c + i * n + jc;
      float acc[kColPanel];
      for (std::size_t j = 0; j < nb; ++j) acc[j] = crow[j];
      for (std::size_t p = 0; p < k; ++p) {
        const float aval = a[p * m + i];
        const float* brow = b + p * n + jc;
        for (std::size_t j = 0; j < nb; ++j) acc[j] += aval * brow[j];
      }
      for (std::size_t j = 0; j < nb; ++j) crow[j] = acc[j];
    }
  }
}

/// C(m,n) += A(m,k)·Bᵀ(k,n) where B is stored as (n,k) row-major.
/// Dot-product form; a 4x4 register tile reuses each A and B row four times.
inline void GemmTransposedBAccumulate(const float* a, const float* b, float* c,
                                      std::size_t m, std::size_t k,
                                      std::size_t n) {
  using gemm_detail::kRowTile;
  std::size_t i = 0;
  for (; i + kRowTile <= m; i += kRowTile) {
    std::size_t j = 0;
    for (; j + kRowTile <= n; j += kRowTile) {
      float acc[kRowTile][kRowTile] = {};
      const float* arows[kRowTile];
      const float* brows[kRowTile];
      for (std::size_t r = 0; r < kRowTile; ++r) {
        arows[r] = a + (i + r) * k;
        brows[r] = b + (j + r) * k;
      }
      for (std::size_t p = 0; p < k; ++p) {
        const float av0 = arows[0][p], av1 = arows[1][p];
        const float av2 = arows[2][p], av3 = arows[3][p];
        const float bv0 = brows[0][p], bv1 = brows[1][p];
        const float bv2 = brows[2][p], bv3 = brows[3][p];
        acc[0][0] += av0 * bv0; acc[0][1] += av0 * bv1;
        acc[0][2] += av0 * bv2; acc[0][3] += av0 * bv3;
        acc[1][0] += av1 * bv0; acc[1][1] += av1 * bv1;
        acc[1][2] += av1 * bv2; acc[1][3] += av1 * bv3;
        acc[2][0] += av2 * bv0; acc[2][1] += av2 * bv1;
        acc[2][2] += av2 * bv2; acc[2][3] += av2 * bv3;
        acc[3][0] += av3 * bv0; acc[3][1] += av3 * bv1;
        acc[3][2] += av3 * bv2; acc[3][3] += av3 * bv3;
      }
      for (std::size_t r = 0; r < kRowTile; ++r) {
        float* crow = c + (i + r) * n + j;
        for (std::size_t s = 0; s < kRowTile; ++s) crow[s] += acc[r][s];
      }
    }
    for (; j < n; ++j) {  // leftover columns for this row quad
      const float* brow = b + j * k;
      for (std::size_t r = 0; r < kRowTile; ++r) {
        const float* arow = a + (i + r) * k;
        float acc = 0.0f;
        for (std::size_t p = 0; p < k; ++p) acc += arow[p] * brow[p];
        c[(i + r) * n + j] += acc;
      }
    }
  }
  for (; i < m; ++i) {  // leftover rows
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      const float* brow = b + j * k;
      float acc = 0.0f;
      for (std::size_t p = 0; p < k; ++p) acc += arow[p] * brow[p];
      crow[j] += acc;
    }
  }
}

// ----------------------------------------------------- fast (packed) tier
//
// KernelConfig::kFast. The centerpiece is a packed-panel GEMM with
// k-blocking: B is repacked into contiguous (kKc, kNr) column panels, A
// into interleaved (kMr, kKc) micro-panels, and an mr×nr register
// micro-kernel sweeps each panel pair with every accumulator in a vector
// register and every inner load contiguous. Because k is split into kKc
// blocks (and the x86 path contracts to FMA), the summation order differs
// from the exact tier — results are tolerance-equivalent, not bit-exact.
//
// Dispatch, resolved once per call:
//   * x86-64 with AVX2+FMA at runtime — a row-structured AVX2 kernel
//     (exact-tier loop structure, no packing) when the operand is too thin
//     for a 4×16 register tile; the direct-B register-tile kernel for
//     serving-sized m (micro-batches, conv row blocks); the packed
//     k-blocked micro-kernel above kDirectMaxRows, where the repack earns
//     back its copy cost.
//   * other GCC/Clang targets — the packed algorithm with 4-wide generic
//     vectors for m >= 16, the exact tiled kernel below it.
// Panel padding is additive zeros, so corrupted Inf/NaN weights still
// poison the affected outputs exactly like the exact tier.

namespace gemm_detail {
/// Micro-kernel height: rows of packed A per register tile.
inline constexpr std::size_t kMr = 4;
/// Micro-kernel width: one packed B panel (4×4-wide or 2×8-wide vectors).
inline constexpr std::size_t kNr = 16;
/// k-block depth: one (kMr,kKc) A micro-panel is ~4 KiB and one (kKc,kNr)
/// B panel ~16 KiB, so a panel pair stays L1/L2-resident while the
/// micro-kernel sweeps it.
inline constexpr std::size_t kKc = 256;
/// Below this m the packed path's B-repack cost rivals the compute; use
/// the row-structured small-m kernel (or the exact tier) instead.
inline constexpr std::size_t kPackedMinRows = 16;
/// Up to this m the direct-B register-tile kernel beats the packed path
/// (B's per-panel working set stays cache-resident without a repack);
/// above it the packed panels win back their copy cost. 128 matches the
/// conv batched row-block size, so serving GEMMs stay on the direct path.
inline constexpr std::size_t kDirectMaxRows = 128;

/// Grows (never shrinks) a thread-local scratch vector. The packing
/// buffers are per-thread so the engine's workers and ParallelFor row
/// blocks can run fast GEMMs concurrently without sharing state.
inline float* PackScratch(std::vector<float>& buffer, std::size_t size) {
  if (buffer.size() < size) buffer.resize(size);
  return buffer.data();
}

#if defined(__GNUC__) || defined(__clang__)
#define MILR_GEMM_HAVE_VEC 1
typedef float Vec4 __attribute__((vector_size(16)));

inline Vec4 Load4(const float* p) {
  Vec4 v;
  __builtin_memcpy(&v, p, sizeof(v));
  return v;
}
inline void Store4(float* p, Vec4 v) { __builtin_memcpy(p, &v, sizeof(v)); }

/// Generic-vector micro-kernel: cacc is the kMr×kNr accumulator tile
/// (row-major, caller loads/stores C); apack is (kc, kMr) interleaved,
/// bpack is (kc, kNr) contiguous. 16 accumulator vectors stay live in
/// registers for the whole k sweep.
inline void MicroKernelGeneric(const float* __restrict apack,
                               const float* __restrict bpack, std::size_t kc,
                               float* __restrict cacc) {
  Vec4 acc[kMr][kNr / 4];
  for (std::size_t r = 0; r < kMr; ++r) {
    for (std::size_t q = 0; q < kNr / 4; ++q) {
      acc[r][q] = Load4(cacc + r * kNr + q * 4);
    }
  }
  for (std::size_t p = 0; p < kc; ++p) {
    const float* brow = bpack + p * kNr;
    const float* acol = apack + p * kMr;
    const Vec4 b0 = Load4(brow), b1 = Load4(brow + 4);
    const Vec4 b2 = Load4(brow + 8), b3 = Load4(brow + 12);
    for (std::size_t r = 0; r < kMr; ++r) {
      const float av = acol[r];
      const Vec4 avv = {av, av, av, av};
      acc[r][0] += avv * b0;
      acc[r][1] += avv * b1;
      acc[r][2] += avv * b2;
      acc[r][3] += avv * b3;
    }
  }
  for (std::size_t r = 0; r < kMr; ++r) {
    for (std::size_t q = 0; q < kNr / 4; ++q) {
      Store4(cacc + r * kNr + q * 4, acc[r][q]);
    }
  }
}
#endif  // __GNUC__ || __clang__

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define MILR_GEMM_HAVE_AVX2 1
typedef float Vec8 __attribute__((vector_size(32)));

__attribute__((target("avx2,fma"))) inline Vec8 Load8(const float* p) {
  Vec8 v;
  __builtin_memcpy(&v, p, sizeof(v));
  return v;
}
__attribute__((target("avx2,fma"))) inline void Store8(float* p, Vec8 v) {
  __builtin_memcpy(p, &v, sizeof(v));
}

/// One-time CPUID probe; the baseline build stays portable and the AVX2
/// clones below are only ever entered when this returns true.
inline bool HasAvx2Fma() {
  static const bool ok =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return ok;
}

/// AVX2+FMA flavor of MicroKernelGeneric: 8 ymm accumulators, two packed
/// B loads and four FMA pairs per k step.
__attribute__((target("avx2,fma"))) inline void MicroKernelAvx2(
    const float* __restrict apack, const float* __restrict bpack,
    std::size_t kc, float* __restrict cacc) {
  Vec8 acc[kMr][kNr / 8];
  for (std::size_t r = 0; r < kMr; ++r) {
    acc[r][0] = Load8(cacc + r * kNr);
    acc[r][1] = Load8(cacc + r * kNr + 8);
  }
  for (std::size_t p = 0; p < kc; ++p) {
    const float* brow = bpack + p * kNr;
    const float* acol = apack + p * kMr;
    const Vec8 b0 = Load8(brow), b1 = Load8(brow + 8);
    for (std::size_t r = 0; r < kMr; ++r) {
      const float av = acol[r];
      const Vec8 avv = {av, av, av, av, av, av, av, av};
      acc[r][0] += avv * b0;
      acc[r][1] += avv * b1;
    }
  }
  for (std::size_t r = 0; r < kMr; ++r) {
    Store8(cacc + r * kNr, acc[r][0]);
    Store8(cacc + r * kNr + 8, acc[r][1]);
  }
}

/// Register-tiled direct-B kernel: the packed micro-kernel's 4×16 tile
/// applied in place, streaming B rows from their natural layout instead of
/// packed panels. For the serving GEMMs (m up to ~128 rows: micro-batches
/// and conv row blocks) the per-panel B slice (64·k bytes) is already
/// cache-resident, so skipping the repack beats the packed path outright.
/// Requires m >= 4 and n >= 16 from the dispatcher; trailing rows use a
/// single-row vector kernel and trailing columns (n % 16, rare in real
/// layer widths) a scalar dot.
__attribute__((target("avx2,fma"))) inline void DirectTileKernelAvx2(
    const float* a, const float* b, float* c, std::size_t m, std::size_t k,
    std::size_t n) {
  std::size_t jc = 0;
  for (; jc + kNr <= n; jc += kNr) {
    std::size_t i = 0;
    for (; i + kMr <= m; i += kMr) {
      Vec8 acc[kMr][2];
      for (std::size_t r = 0; r < kMr; ++r) {
        acc[r][0] = Load8(c + (i + r) * n + jc);
        acc[r][1] = Load8(c + (i + r) * n + jc + 8);
      }
      const float* a0 = a + (i + 0) * k;
      const float* a1 = a + (i + 1) * k;
      const float* a2 = a + (i + 2) * k;
      const float* a3 = a + (i + 3) * k;
      for (std::size_t p = 0; p < k; ++p) {
        const float* brow = b + p * n + jc;
        const Vec8 b0 = Load8(brow), b1 = Load8(brow + 8);
        const Vec8 v0 = {a0[p], a0[p], a0[p], a0[p], a0[p], a0[p], a0[p],
                         a0[p]};
        const Vec8 v1 = {a1[p], a1[p], a1[p], a1[p], a1[p], a1[p], a1[p],
                         a1[p]};
        const Vec8 v2 = {a2[p], a2[p], a2[p], a2[p], a2[p], a2[p], a2[p],
                         a2[p]};
        const Vec8 v3 = {a3[p], a3[p], a3[p], a3[p], a3[p], a3[p], a3[p],
                         a3[p]};
        acc[0][0] += v0 * b0;
        acc[0][1] += v0 * b1;
        acc[1][0] += v1 * b0;
        acc[1][1] += v1 * b1;
        acc[2][0] += v2 * b0;
        acc[2][1] += v2 * b1;
        acc[3][0] += v3 * b0;
        acc[3][1] += v3 * b1;
      }
      for (std::size_t r = 0; r < kMr; ++r) {
        Store8(c + (i + r) * n + jc, acc[r][0]);
        Store8(c + (i + r) * n + jc + 8, acc[r][1]);
      }
    }
    for (; i < m; ++i) {  // leftover rows: one 16-wide accumulator pair
      Vec8 acc0 = Load8(c + i * n + jc);
      Vec8 acc1 = Load8(c + i * n + jc + 8);
      const float* arow = a + i * k;
      for (std::size_t p = 0; p < k; ++p) {
        const float* brow = b + p * n + jc;
        const float av = arow[p];
        const Vec8 avv = {av, av, av, av, av, av, av, av};
        acc0 += avv * Load8(brow);
        acc1 += avv * Load8(brow + 8);
      }
      Store8(c + i * n + jc, acc0);
      Store8(c + i * n + jc + 8, acc1);
    }
  }
  for (std::size_t i = 0; i < m; ++i) {  // leftover columns: scalar dots
    const float* arow = a + i * k;
    for (std::size_t j = jc; j < n; ++j) {
      float acc = c[i * n + j];
      for (std::size_t p = 0; p < k; ++p) acc += arow[p] * b[p * n + j];
      c[i * n + j] = acc;
    }
  }
}

/// Small-m / narrow-n fast path: a deliberate fork of GemmAccumulate's
/// loop structure (4-row register tile over a 64-column C panel, unsplit
/// k) compiled for AVX2+FMA. The copy is intentional, not an oversight:
/// the exact kernel above is the frozen bit-exact oracle and must never
/// pick up target attributes or FMA contraction, while this fork is free
/// to diverge with fast-tier tuning — the two need not stay in sync. No
/// packing, so it wins when m is too small to amortize a B repack and it
/// handles n < 16 without tail penalties; FMA contraction still makes it
/// tolerance-level, not bit-exact.
__attribute__((target("avx2,fma"))) inline void RowKernelAvx2(
    const float* a, const float* b, float* c, std::size_t m, std::size_t k,
    std::size_t n) {
  using gemm_detail::kColPanel;
  using gemm_detail::kRowTile;
  for (std::size_t jc = 0; jc < n; jc += kColPanel) {
    const std::size_t nb = std::min(kColPanel, n - jc);
    std::size_t i = 0;
    for (; i + kRowTile <= m; i += kRowTile) {
      const float* a0 = a + (i + 0) * k;
      const float* a1 = a + (i + 1) * k;
      const float* a2 = a + (i + 2) * k;
      const float* a3 = a + (i + 3) * k;
      float* c0 = c + (i + 0) * n + jc;
      float* c1 = c + (i + 1) * n + jc;
      float* c2 = c + (i + 2) * n + jc;
      float* c3 = c + (i + 3) * n + jc;
      float acc0[kColPanel], acc1[kColPanel], acc2[kColPanel],
          acc3[kColPanel];
      for (std::size_t j = 0; j < nb; ++j) {
        acc0[j] = c0[j];
        acc1[j] = c1[j];
        acc2[j] = c2[j];
        acc3[j] = c3[j];
      }
      for (std::size_t p = 0; p < k; ++p) {
        const float* brow = b + p * n + jc;
        const float v0 = a0[p];
        const float v1 = a1[p];
        const float v2 = a2[p];
        const float v3 = a3[p];
        for (std::size_t j = 0; j < nb; ++j) {
          acc0[j] += v0 * brow[j];
          acc1[j] += v1 * brow[j];
          acc2[j] += v2 * brow[j];
          acc3[j] += v3 * brow[j];
        }
      }
      for (std::size_t j = 0; j < nb; ++j) {
        c0[j] = acc0[j];
        c1[j] = acc1[j];
        c2[j] = acc2[j];
        c3[j] = acc3[j];
      }
    }
    for (; i < m; ++i) {
      const float* arow = a + i * k;
      float* crow = c + i * n + jc;
      float acc[kColPanel];
      for (std::size_t j = 0; j < nb; ++j) acc[j] = crow[j];
      for (std::size_t p = 0; p < k; ++p) {
        const float aval = arow[p];
        const float* brow = b + p * n + jc;
        for (std::size_t j = 0; j < nb; ++j) acc[j] += aval * brow[j];
      }
      for (std::size_t j = 0; j < nb; ++j) crow[j] = acc[j];
    }
  }
}

#define MILR_GEMM_HAVE_AVX512 1
typedef float Vec16 __attribute__((vector_size(64)));

__attribute__((target("avx512f"))) inline Vec16 Load16(const float* p) {
  Vec16 v;
  __builtin_memcpy(&v, p, sizeof(v));
  return v;
}
__attribute__((target("avx512f"))) inline void Store16(float* p, Vec16 v) {
  __builtin_memcpy(p, &v, sizeof(v));
}
__attribute__((target("avx512f"))) inline Vec16 Bcast16(float v) {
  Vec16 r;
  for (int i = 0; i < 16; ++i) r[i] = v;
  return r;
}

/// One-time CPUID probe for the zmm fp32 kernel below. Like the AVX2
/// probe, the baseline binary stays portable: the avx512f clone is only
/// ever entered behind this check (and, in production, only after the
/// kernel registry has oracle-validated it on this machine).
inline bool HasAvx512f() {
  static const bool ok = __builtin_cpu_supports("avx512f");
  return ok;
}

/// AVX-512 flavor of the packed micro-kernel: kNr (=16) is exactly one zmm
/// lane set, so the packed-panel layout is shared verbatim with the AVX2
/// and generic micro-kernels. One accumulator per tile row leaves
/// registers to unroll the k sweep by two with a second accumulator set
/// (summation order differs from the other micro-kernels; fast tier is
/// tolerance-level anyway).
__attribute__((target("avx512f"))) inline void MicroKernelAvx512(
    const float* __restrict apack, const float* __restrict bpack,
    std::size_t kc, float* __restrict cacc) {
  Vec16 acc[kMr], acc2[kMr];
  for (std::size_t r = 0; r < kMr; ++r) {
    acc[r] = Load16(cacc + r * kNr);
    acc2[r] = Bcast16(0.0f);
  }
  std::size_t p = 0;
  for (; p + 2 <= kc; p += 2) {
    const Vec16 b0 = Load16(bpack + p * kNr);
    const Vec16 b1 = Load16(bpack + (p + 1) * kNr);
    const float* acol0 = apack + p * kMr;
    const float* acol1 = acol0 + kMr;
    for (std::size_t r = 0; r < kMr; ++r) {
      acc[r] += Bcast16(acol0[r]) * b0;
      acc2[r] += Bcast16(acol1[r]) * b1;
    }
  }
  if (p < kc) {
    const Vec16 b0 = Load16(bpack + p * kNr);
    const float* acol = apack + p * kMr;
    for (std::size_t r = 0; r < kMr; ++r) acc[r] += Bcast16(acol[r]) * b0;
  }
  for (std::size_t r = 0; r < kMr; ++r) {
    Store16(cacc + r * kNr, acc[r] + acc2[r]);
  }
}

/// AVX2 dot-form kernel for C(m,n) += A(m,k)·Bᵀ where B is stored (n,k):
/// the fast-tier counterpart of GemmTransposedBAccumulate (training dX).
/// Both operands stream along k, so 8-wide FMA accumulators with one
/// horizontal reduction per output beat any repacking scheme. Tolerance
/// contract, not bit-exact (vector lanes reorder the summation).
__attribute__((target("avx2,fma"))) inline void TransposedBKernelAvx2(
    const float* a, const float* b, float* c, std::size_t m, std::size_t k,
    std::size_t n) {
  constexpr std::size_t kJTile = 4;
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    std::size_t j = 0;
    for (; j + kJTile <= n; j += kJTile) {
      Vec8 acc[kJTile] = {};
      const float* brows[kJTile];
      for (std::size_t s = 0; s < kJTile; ++s) brows[s] = b + (j + s) * k;
      std::size_t p = 0;
      for (; p + 8 <= k; p += 8) {
        const Vec8 av = Load8(arow + p);
        for (std::size_t s = 0; s < kJTile; ++s) {
          acc[s] += av * Load8(brows[s] + p);
        }
      }
      float tail[kJTile] = {};
      for (; p < k; ++p) {
        const float av = arow[p];
        for (std::size_t s = 0; s < kJTile; ++s) tail[s] += av * brows[s][p];
      }
      for (std::size_t s = 0; s < kJTile; ++s) {
        float lanes[8];
        Store8(lanes, acc[s]);
        float sum = tail[s];
        for (int l = 0; l < 8; ++l) sum += lanes[l];
        crow[j + s] += sum;
      }
    }
    for (; j < n; ++j) {  // leftover columns, same shape with one acc
      const float* brow = b + j * k;
      Vec8 acc = {};
      std::size_t p = 0;
      for (; p + 8 <= k; p += 8) acc += Load8(arow + p) * Load8(brow + p);
      float sum = 0.0f;
      for (; p < k; ++p) sum += arow[p] * brow[p];
      float lanes[8];
      Store8(lanes, acc);
      for (int l = 0; l < 8; ++l) sum += lanes[l];
      crow[j] += sum;
    }
  }
}
#endif  // __x86_64__

#ifdef MILR_GEMM_HAVE_VEC
/// Shared inner sweep of the packed drivers (PackedGemm and PackedBGemm):
/// for one k block (depth kc, source column pc) whose B panels are already
/// packed at `bpanels` (n_panels consecutive (kc_stride,kNr) panels, where
/// kc_stride is the block depth the panels were packed with), packs each
/// kMr-row A micro-panel into `apack` (kMr * kc_stride floats of scratch)
/// and invokes `micro` once per (kMr,kNr) C tile, staging C through a
/// zero-padded accumulator so the micro-kernel never branches on edges.
/// Rows/columns past m/n are computed on padding but never stored back.
template <typename MicroFn>
inline void PackedSweepKBlock(const float* a, const float* bpanels, float* c,
                              std::size_t m, std::size_t k, std::size_t n,
                              std::size_t pc, std::size_t kc,
                              std::size_t kc_stride, float* apack,
                              MicroFn micro) {
  const std::size_t n_panels = (n + kNr - 1) / kNr;
  for (std::size_t i = 0; i < m; i += kMr) {
    const std::size_t mb = std::min(kMr, m - i);

    // Pack A rows i..i+mb into an interleaved (kc, kMr) micro-panel so
    // the micro-kernel reads one contiguous quad per k step.
    for (std::size_t p = 0; p < kc; ++p) {
      float* dst = apack + p * kMr;
      for (std::size_t r = 0; r < mb; ++r) {
        dst[r] = a[(i + r) * k + pc + p];
      }
      for (std::size_t r = mb; r < kMr; ++r) dst[r] = 0.0f;
    }

    for (std::size_t q = 0; q < n_panels; ++q) {
      const std::size_t jc = q * kNr;
      const std::size_t nb = std::min(kNr, n - jc);
      float cacc[kMr * kNr];
      for (std::size_t r = 0; r < mb; ++r) {
        const float* crow = c + (i + r) * n + jc;
        for (std::size_t j = 0; j < nb; ++j) cacc[r * kNr + j] = crow[j];
        for (std::size_t j = nb; j < kNr; ++j) cacc[r * kNr + j] = 0.0f;
      }
      for (std::size_t r = mb; r < kMr; ++r) {
        for (std::size_t j = 0; j < kNr; ++j) cacc[r * kNr + j] = 0.0f;
      }
      micro(apack, bpanels + q * kc_stride * kNr, kc, cacc);
      for (std::size_t r = 0; r < mb; ++r) {
        float* crow = c + (i + r) * n + jc;
        for (std::size_t j = 0; j < nb; ++j) crow[j] = cacc[r * kNr + j];
      }
    }
  }
}

/// Packed-panel k-blocked driver shared by the generic and AVX2/AVX-512
/// builds. MicroFn is invoked once per (kMr,kNr) C tile per k block,
/// against the thread-local packed panels. `kc_blk` is the k-block depth
/// (the registry's plan sets it; kKc is the fixed-constant default).
template <typename MicroFn>
inline void PackedGemm(const float* a, const float* b, float* c,
                       std::size_t m, std::size_t k, std::size_t n,
                       std::size_t kc_blk, MicroFn micro) {
  thread_local std::vector<float> a_scratch;
  thread_local std::vector<float> b_scratch;
  const std::size_t n_panels = (n + kNr - 1) / kNr;
  float* bpack = PackScratch(b_scratch, n_panels * kc_blk * kNr);
  float* apack = PackScratch(a_scratch, kMr * kc_blk);

  for (std::size_t pc = 0; pc < k; pc += kc_blk) {
    const std::size_t kc = std::min(kc_blk, k - pc);

    // Pack B(kc, n) into contiguous (kc, kNr) panels; short panels are
    // zero-padded so the micro-kernel never branches on column bounds.
    for (std::size_t q = 0; q < n_panels; ++q) {
      const std::size_t jc = q * kNr;
      const std::size_t nb = std::min(kNr, n - jc);
      float* panel = bpack + q * kc_blk * kNr;
      for (std::size_t p = 0; p < kc; ++p) {
        const float* brow = b + (pc + p) * n + jc;
        float* dst = panel + p * kNr;
        for (std::size_t j = 0; j < nb; ++j) dst[j] = brow[j];
        for (std::size_t j = nb; j < kNr; ++j) dst[j] = 0.0f;
      }
    }

    PackedSweepKBlock(a, bpack, c, m, k, n, pc, kc, kc_blk, apack, micro);
  }
}
template <typename MicroFn>
inline void PackedGemm(const float* a, const float* b, float* c,
                       std::size_t m, std::size_t k, std::size_t n,
                       MicroFn micro) {
  PackedGemm(a, b, c, m, k, n, kKc, micro);
}
#endif  // MILR_GEMM_HAVE_VEC
}  // namespace gemm_detail

// ------------------------------------------------- pre-packed B (weights)
//
// The packed tier above repacks B on every call — right for one-shot GEMMs,
// wasted work when B is a layer's weight matrix that survives thousands of
// forward passes. These entry points split the pack from the multiply so a
// layer can pack its weights once (at Model::set_kernel_config) and serve
// every micro-batch from the cached panels; the cache owner is responsible
// for re-packing whenever the weights change (recovery, fault injection,
// training, deserialization).
//
// Layout contract (PackBPanels -> GemmAccumulateFastPrepacked): for k-block
// t (depth min(kKc, k - t*kKc)) and column panel q (kNr columns), the panel
// starts at (t * ceil(n/kNr) + q) * kKc * kNr floats, rows contiguous and
// zero-padded to the full (kKc, kNr) stride so offsets never depend on the
// tail sizes. Padding is additive zeros — the no-short-circuit / NaN
// poisoning property of the other tiers is preserved.

/// True when this build has a vector micro-kernel that can consume cached
/// packed panels; when false, callers should skip the cache entirely (the
/// fast tier then falls back to the exact tiled kernel anyway).
inline constexpr bool PackedBSupported() {
#ifdef MILR_GEMM_HAVE_VEC
  return true;
#else
  return false;
#endif
}

/// Scratch floats PackBPanels needs for a row-major (k, n) B packed with
/// k-block depth `kc_blk` (defaults to the fixed constant kKc).
inline std::size_t PackedBSize(std::size_t k, std::size_t n,
                               std::size_t kc_blk = gemm_detail::kKc) {
  using gemm_detail::kNr;
  const std::size_t n_panels = (n + kNr - 1) / kNr;
  const std::size_t k_blocks = (k + kc_blk - 1) / kc_blk;
  return k_blocks * n_panels * kc_blk * kNr;
}

/// Packs row-major B(k,n) into the panel layout documented above. `out`
/// must hold PackedBSize(k, n, kc_blk) floats; the consumer must sweep the
/// panels with the same kc_blk.
inline void PackBPanels(const float* b, std::size_t k, std::size_t n,
                        float* out,
                        std::size_t kc_blk = gemm_detail::kKc) {
  using gemm_detail::kNr;
  const std::size_t n_panels = (n + kNr - 1) / kNr;
  std::size_t t = 0;
  for (std::size_t pc = 0; pc < k; pc += kc_blk, ++t) {
    const std::size_t kc = std::min(kc_blk, k - pc);
    for (std::size_t q = 0; q < n_panels; ++q) {
      const std::size_t jc = q * kNr;
      const std::size_t nb = std::min(kNr, n - jc);
      float* panel = out + (t * n_panels + q) * kc_blk * kNr;
      for (std::size_t p = 0; p < kc; ++p) {
        const float* brow = b + (pc + p) * n + jc;
        float* dst = panel + p * kNr;
        for (std::size_t j = 0; j < nb; ++j) dst[j] = brow[j];
        for (std::size_t j = nb; j < kNr; ++j) dst[j] = 0.0f;
      }
      for (std::size_t p = kc; p < kc_blk; ++p) {
        float* dst = panel + p * kNr;
        for (std::size_t j = 0; j < kNr; ++j) dst[j] = 0.0f;
      }
    }
  }
}

#ifdef MILR_GEMM_HAVE_VEC
namespace gemm_detail {
/// PackedGemm minus the B pack: sweeps pre-packed panels (PackBPanels
/// layout with k-block depth kc_blk), packing only the (cheap,
/// activation-sized) A micro-panels per call via PackedSweepKBlock.
template <typename MicroFn>
inline void PackedBGemm(const float* a, const float* bpack, float* c,
                        std::size_t m, std::size_t k, std::size_t n,
                        std::size_t kc_blk, MicroFn micro) {
  thread_local std::vector<float> a_scratch;
  float* apack = PackScratch(a_scratch, kMr * kc_blk);
  const std::size_t n_panels = (n + kNr - 1) / kNr;
  std::size_t t = 0;
  for (std::size_t pc = 0; pc < k; pc += kc_blk, ++t) {
    const std::size_t kc = std::min(kc_blk, k - pc);
    PackedSweepKBlock(a, bpack + t * n_panels * kc_blk * kNr, c, m, k, n,
                      pc, kc, kc_blk, apack, micro);
  }
}
template <typename MicroFn>
inline void PackedBGemm(const float* a, const float* bpack, float* c,
                        std::size_t m, std::size_t k, std::size_t n,
                        MicroFn micro) {
  PackedBGemm(a, bpack, c, m, k, n, kKc, micro);
}
}  // namespace gemm_detail
#endif  // MILR_GEMM_HAVE_VEC

/// Fast-tier C(m,n) += A(m,k)·B(k,n) where `bpack` holds PackBPanels(b)
/// packed with k-block depth `kc_blk`. `b` (the raw matrix) is still
/// required: operands too thin for a packed register tile route to the
/// row-structured kernel, which reads B in its natural layout. Same
/// tolerance contract as GemmAccumulateFast.
inline void GemmAccumulateFastPrepacked(const float* a, const float* b,
                                        const float* bpack, float* c,
                                        std::size_t m, std::size_t k,
                                        std::size_t n,
                                        std::size_t kc_blk
                                        = gemm_detail::kKc) {
  if (m == 0 || n == 0 || k == 0) return;
#ifdef MILR_GEMM_HAVE_AVX2
  if (gemm_detail::HasAvx2Fma()) {
    if (m < gemm_detail::kMr || n < gemm_detail::kNr) {
      // A packed tile would spend up to kMr/m of its FLOPs on padding rows;
      // the row kernel does exactly m rows of work from the raw B.
      gemm_detail::RowKernelAvx2(a, b, c, m, k, n);
    } else {
      gemm_detail::PackedBGemm(a, bpack, c, m, k, n, kc_blk,
                               [](const float* ap, const float* bp,
                                  std::size_t kc, float* cacc) {
                                 gemm_detail::MicroKernelAvx2(ap, bp, kc,
                                                              cacc);
                               });
    }
    return;
  }
#endif
#ifdef MILR_GEMM_HAVE_VEC
  if (m >= gemm_detail::kMr) {
    // With the B repack already paid, the packed path's break-even drops
    // from kPackedMinRows to one register tile of rows.
    gemm_detail::PackedBGemm(a, bpack, c, m, k, n, kc_blk,
                             [](const float* ap, const float* bp,
                                std::size_t kc, float* cacc) {
                               gemm_detail::MicroKernelGeneric(ap, bp, kc,
                                                               cacc);
                             });
    return;
  }
#endif
  (void)bpack;
  (void)kc_blk;
  GemmAccumulate(a, b, c, m, k, n);
}

/// C(m,n) += A(m,k) · B(k,n), all row-major contiguous — the fast tier
/// (see the section comment above for the dispatch rules).
inline void GemmAccumulateFast(const float* a, const float* b, float* c,
                               std::size_t m, std::size_t k, std::size_t n) {
  if (m == 0 || n == 0 || k == 0) return;
#ifdef MILR_GEMM_HAVE_AVX2
  if (gemm_detail::HasAvx2Fma()) {
    if (m < gemm_detail::kMr || n < gemm_detail::kNr) {
      // Too thin for a 4×16 register tile: the row-structured kernel has
      // no tile-shaped tails to pay for.
      gemm_detail::RowKernelAvx2(a, b, c, m, k, n);
    } else if (m <= gemm_detail::kDirectMaxRows) {
      // Serving shapes (micro-batches, conv row blocks): B's working set
      // is cache-resident, so streaming it in place beats repacking.
      gemm_detail::DirectTileKernelAvx2(a, b, c, m, k, n);
    } else {
      gemm_detail::PackedGemm(a, b, c, m, k, n,
                              [](const float* ap, const float* bp,
                                 std::size_t kc, float* cacc) {
                                gemm_detail::MicroKernelAvx2(ap, bp, kc,
                                                             cacc);
                              });
    }
    return;
  }
#endif
#ifdef MILR_GEMM_HAVE_VEC
  if (m >= gemm_detail::kPackedMinRows) {
    gemm_detail::PackedGemm(a, b, c, m, k, n,
                            [](const float* ap, const float* bp,
                               std::size_t kc, float* cacc) {
                              gemm_detail::MicroKernelGeneric(ap, bp, kc,
                                                              cacc);
                            });
    return;
  }
#endif
  // No vector extensions (or m too small off-x86): the exact tiled kernel
  // is the best remaining implementation and trivially within tolerance.
  GemmAccumulate(a, b, c, m, k, n);
}

/// Tier dispatch for the forward-path GEMM: the serving layers route every
/// C += A·B through this overload so EngineConfig/Model can choose the
/// tier. kInt8 lands on the fast fp32 path here: only layers with a
/// dedicated int8 kernel (DenseLayer, via quant/gemm_int8.h) serve
/// quantized; every other GEMM under a kInt8 model falls back to kFast so
/// the setting can never be slower than the fast tier.
inline void GemmAccumulate(KernelConfig config, const float* a,
                           const float* b, float* c, std::size_t m,
                           std::size_t k, std::size_t n) {
  if (config != KernelConfig::kExact) {
    GemmAccumulateFast(a, b, c, m, k, n);
  } else {
    GemmAccumulate(a, b, c, m, k, n);
  }
}

// ------------------------------------------------- fast transposed tier
//
// Training's dW/dX products historically ran only the exact tiled kernels.
// These are their fast-tier counterparts (tolerance contract, like
// GemmAccumulateFast); the kernel registry's plan selects them wherever
// they validate. Per-sample MILR paths never call them.

/// Fast C(m,n) += Aᵀ(m,k)·B(k,n), A stored (k,m) row-major (training dW).
/// Transposes A into thread-local scratch — an O(k·m) copy against the
/// O(m·k·n) multiply — then reuses the whole forward fast-tier dispatch.
inline void GemmTransposedAAccumulateFast(const float* a, const float* b,
                                          float* c, std::size_t m,
                                          std::size_t k, std::size_t n) {
  if (m == 0 || n == 0 || k == 0) return;
  thread_local std::vector<float> at_scratch;
  float* at = gemm_detail::PackScratch(at_scratch, m * k);
  for (std::size_t p = 0; p < k; ++p) {
    const float* arow = a + p * m;
    for (std::size_t i = 0; i < m; ++i) at[i * k + p] = arow[i];
  }
  GemmAccumulateFast(at, b, c, m, k, n);
}

/// Fast C(m,n) += A(m,k)·Bᵀ, B stored (n,k) row-major (training dX).
/// AVX2 dot-form kernel when available, exact tiled kernel otherwise.
inline void GemmTransposedBAccumulateFast(const float* a, const float* b,
                                          float* c, std::size_t m,
                                          std::size_t k, std::size_t n) {
  if (m == 0 || n == 0 || k == 0) return;
#ifdef MILR_GEMM_HAVE_AVX2
  if (gemm_detail::HasAvx2Fma()) {
    gemm_detail::TransposedBKernelAvx2(a, b, c, m, k, n);
    return;
  }
#endif
  GemmTransposedBAccumulate(a, b, c, m, k, n);
}

}  // namespace milr::nn
