// Kernel registry for the serving/training GEMMs: one plan per machine.
//
// nn/gemm.h and quant/gemm_int8.h carry several micro-kernels per tier
// (generic vectors, AVX2+FMA, AVX-512 zmm fp32, AVX2 int8). The registry
// turns them into one plan per GEMM shape:
//
//  * Once per process every ISA kernel must pass CPUID dispatch
//    (compile-guarded code never runs on hardware without the ISA) AND
//    validate against the generic oracles — fp32 kernels to tolerance vs a
//    double-precision reference, int8 kernels bit-exactly vs
//    GemmInt8DequantGeneric. A kernel that fails validation on some
//    machine is never scheduled there.
//  * The plan is a fixed function of which kernels validated:
//      thin    avx2_row                      (else exact_tiled)
//      direct  avx2_direct                   (else exact_tiled)
//      packed  avx512_packed, else avx2_packed, else generic_packed
//      kc      512 for avx512_packed when k > 256, else 256
//      int8    avx2                          (else generic)
//      dW, dX  the fast transposed kernels   (else tiled)
//    so every set-up on a machine serves the same kernels. Nothing is
//    measured at set-up time.
//  * At Model::set_kernel_config time each layer asks for the plan of its
//    actual (k, n) weight shape and persists it by value, so MILR
//    recovery, fault injection and requantization reuse it without a
//    lookup.
//
// Numerics are never at stake: the exact tier bypasses the registry
// entirely, all int8 kernels are bit-identical to each other, and fast
// fp32 kernels share the tier's tolerance contract.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "nn/gemm.h"
#include "quant/gemm_int8.h"

namespace milr::nn {

/// Fast-tier fp32 micro-kernels. "Packed" kernels sweep (kc,16) B panels
/// (pre-packed or packed on the fly); "direct" kernels stream B in its
/// natural layout; "row" keeps the exact tier's loop structure.
enum class FastKernel {
  kExactTiled,     // nn/gemm.h exact tiled kernel (always viable)
  kGenericPacked,  // MicroKernelGeneric over packed panels
  kAvx2Row,        // RowKernelAvx2
  kAvx2Direct,     // DirectTileKernelAvx2
  kAvx2Packed,     // MicroKernelAvx2 over packed panels
  kAvx512Packed,   // MicroKernelAvx512 over packed panels
};

const char* FastKernelName(FastKernel kernel);

/// Transposed-GEMM choice for the training dW/dX products.
enum class TransKernel {
  kTiled,  // exact tiled kernels
  kFast,   // GemmTransposed{A,B}AccumulateFast
};

/// One shape's kernel decisions. Immutable once returned; layers keep a
/// copy so the choice survives weight mutations (recovery, injection,
/// requantization) without consulting the registry again.
struct GemmPlan {
  std::size_t k = 0;  // weight rows (layer input features / patch length)
  std::size_t n = 0;  // weight cols (layer output features/channels)

  // Kernel per serving row-count class (RunFastGemm picks the class).
  FastKernel thin = FastKernel::kExactTiled;    // m < 4 or n < 16
  FastKernel direct = FastKernel::kExactTiled;  // no packed B, m <= 128
  FastKernel packed = FastKernel::kExactTiled;  // packed B or m > 128
  std::size_t kc = gemm_detail::kKc;  // packed kernels' k-block depth

  quant::Int8Kernel int8 = quant::Int8Kernel::kGeneric;

  TransKernel ta = TransKernel::kTiled;  // dW: C += Aᵀ·B
  TransKernel tb = TransKernel::kTiled;  // dX: C += A·Bᵀ
};

/// Compact one-line rendering for telemetry labels.
std::string DescribeGemmPlan(const GemmPlan& plan);

class KernelRegistry {
 public:
  static KernelRegistry& Get();

  /// Plan for GEMMs against a (k, n) weight matrix, cached per shape.
  /// Thread-safe; degenerate shapes get an uncached plan.
  GemmPlan PlanFor(std::size_t k, std::size_t n);

  /// Always 0: plans are not measured. Kept for callers that still report
  /// it next to `Stats::total_tune_ms`.
  double autotune_budget_ms() const { return 0.0; }

  struct Stats {
    std::size_t plans = 0;     // cached plans (distinct shapes)
    double total_tune_ms = 0;  // always 0: plans are not measured
  };
  Stats stats() const;

  /// Drops every cached plan and resets stats (tests/bench only — callers
  /// must re-run Model::set_kernel_config afterwards).
  void Reset();

 private:
  KernelRegistry();
  struct Impl;
  Impl* impl_;  // intentionally leaked singleton state
};

// ---------------------------------------------------------------- execution
//
// Plan-driven entry points the layers call on the hot path. All accept a
// null plan and then reproduce the fixed fast-tier dispatch of gemm.h, so a
// layer that never saw set_kernel_config still serves.

/// Fast-tier C(m,n) += A(m,k)·B(k,n). `bpack` (nullable) holds
/// PackBPanels(b, k, n, plan->kc) when the caller caches packed weights.
void RunFastGemm(const GemmPlan* plan, const float* a, const float* b,
                 const float* bpack, float* c, std::size_t m, std::size_t k,
                 std::size_t n);

/// Int8-tier GEMM + dequant (contracts as GemmInt8Dequant).
void RunInt8Gemm(const GemmPlan* plan, const std::int16_t* aq,
                 std::size_t astride, const float* row_scales,
                 const std::int8_t* bpack, const float* scales, float* c,
                 std::size_t m, std::size_t k, std::size_t n);

/// Training dW: C(m,n) += Aᵀ(m,k)·B(k,n), A stored (k,m). Tiled unless the
/// plan selects the fast transposed path.
void RunTransposedAGemm(const GemmPlan* plan, const float* a, const float* b,
                        float* c, std::size_t m, std::size_t k,
                        std::size_t n);

/// Training dX: C(m,n) += A(m,k)·Bᵀ(k,n), B stored (n,k).
void RunTransposedBGemm(const GemmPlan* plan, const float* a, const float* b,
                        float* c, std::size_t m, std::size_t k,
                        std::size_t n);

}  // namespace milr::nn
