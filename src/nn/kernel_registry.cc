#include "nn/kernel_registry.h"

#include <cmath>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

namespace milr::nn {
namespace {

/// Deterministic operand fill for validation (no global RNG: two processes
/// on the same machine validate against the same inputs).
struct Lcg {
  std::uint64_t state;
  explicit Lcg(std::uint64_t seed) : state(seed * 2862933555777941757ull + 1) {}
  float Next() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<float>((state >> 40) & 0xFFFF) / 65536.0f - 0.5f;
  }
};

void Fill(std::vector<float>& v, std::uint64_t seed) {
  Lcg lcg(seed);
  for (float& x : v) x = lcg.Next();
}

constexpr std::size_t kNumFastKernels = 6;

std::size_t FastIdx(FastKernel kern) {
  return static_cast<std::size_t>(kern);
}

bool FastKernelIsPacked(FastKernel kern) {
  return kern == FastKernel::kGenericPacked ||
         kern == FastKernel::kAvx2Packed ||
         kern == FastKernel::kAvx512Packed;
}

/// Compile guard + CPUID gate. Code for an absent ISA is never entered.
bool IsaSupported(FastKernel kern) {
  switch (kern) {
    case FastKernel::kExactTiled:
      return true;
    case FastKernel::kGenericPacked:
#ifdef MILR_GEMM_HAVE_VEC
      return true;
#else
      return false;
#endif
    case FastKernel::kAvx2Row:
    case FastKernel::kAvx2Direct:
    case FastKernel::kAvx2Packed:
#ifdef MILR_GEMM_HAVE_AVX2
      return gemm_detail::HasAvx2Fma();
#else
      return false;
#endif
    case FastKernel::kAvx512Packed:
#ifdef MILR_GEMM_HAVE_AVX512
      return gemm_detail::HasAvx512f();
#else
      return false;
#endif
  }
  return false;
}

/// Runs one fast candidate. Packed kernels consume `bpack` when provided
/// (PackBPanels layout with depth kc) and pack on the fly otherwise;
/// non-packed kernels read the raw B. Caller guarantees IsaSupported.
void ExecFast(FastKernel kern, std::size_t kc, const float* a,
              const float* b, const float* bpack, float* c, std::size_t m,
              std::size_t k, std::size_t n) {
  switch (kern) {
#ifdef MILR_GEMM_HAVE_VEC
    case FastKernel::kGenericPacked: {
      auto micro = [](const float* ap, const float* bp, std::size_t kcb,
                      float* cacc) {
        gemm_detail::MicroKernelGeneric(ap, bp, kcb, cacc);
      };
      if (bpack) {
        gemm_detail::PackedBGemm(a, bpack, c, m, k, n, kc, micro);
      } else {
        gemm_detail::PackedGemm(a, b, c, m, k, n, kc, micro);
      }
      return;
    }
#endif
#ifdef MILR_GEMM_HAVE_AVX2
    case FastKernel::kAvx2Row:
      gemm_detail::RowKernelAvx2(a, b, c, m, k, n);
      return;
    case FastKernel::kAvx2Direct:
      gemm_detail::DirectTileKernelAvx2(a, b, c, m, k, n);
      return;
    case FastKernel::kAvx2Packed: {
      auto micro = [](const float* ap, const float* bp, std::size_t kcb,
                      float* cacc) {
        gemm_detail::MicroKernelAvx2(ap, bp, kcb, cacc);
      };
      if (bpack) {
        gemm_detail::PackedBGemm(a, bpack, c, m, k, n, kc, micro);
      } else {
        gemm_detail::PackedGemm(a, b, c, m, k, n, kc, micro);
      }
      return;
    }
#endif
#ifdef MILR_GEMM_HAVE_AVX512
    case FastKernel::kAvx512Packed: {
      auto micro = [](const float* ap, const float* bp, std::size_t kcb,
                      float* cacc) {
        gemm_detail::MicroKernelAvx512(ap, bp, kcb, cacc);
      };
      if (bpack) {
        gemm_detail::PackedBGemm(a, bpack, c, m, k, n, kc, micro);
      } else {
        gemm_detail::PackedGemm(a, b, c, m, k, n, kc, micro);
      }
      return;
    }
#endif
    default:
      (void)bpack;
      (void)kc;
      GemmAccumulate(a, b, c, m, k, n);
      return;
  }
}

// ----------------------------------------------------- one-time validation
//
// Every ISA kernel must reproduce the oracles on THIS machine before a
// plan may name it: fp32 within tolerance of a double-precision reference
// (odd shape, k crossing multiple kc blocks, both prepacked and on-the-fly
// paths), int8 bit-exactly against GemmInt8DequantGeneric, the fast
// transposed kernels against double references. A kernel that fails (e.g.
// a broken ISA emulation layer) is silently excluded — the registry then
// simply never schedules it.

struct Validated {
  bool fast[kNumFastKernels] = {};
  bool int8_avx2 = false;
  bool ta_fast = false;
  bool tb_fast = false;
};

bool WithinTol(const std::vector<float>& got,
               const std::vector<double>& ref) {
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!(std::fabs(got[i] - ref[i]) <=
          1e-3 * (1.0 + std::fabs(ref[i])))) {
      return false;
    }
  }
  return true;
}

Validated ValidateAll() {
  Validated val;
  const std::size_t m = 7, k = 301, n = 21;  // odd tails, k > 2 kc blocks
  const std::size_t kc = 96;
  std::vector<float> a(m * k), b(k * n), c0(m * n);
  Fill(a, 11);
  Fill(b, 12);
  Fill(c0, 13);

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

  const FastKernel kernels[] = {
      FastKernel::kExactTiled, FastKernel::kGenericPacked,
      FastKernel::kAvx2Row,    FastKernel::kAvx2Direct,
      FastKernel::kAvx2Packed, FastKernel::kAvx512Packed,
  };
  for (FastKernel kern : kernels) {
    if (!IsaSupported(kern)) continue;
    std::vector<float> c(c0);
    ExecFast(kern, kc, a.data(), b.data(), nullptr, c.data(), m, k, n);
    bool ok = WithinTol(c, ref);
    if (ok && FastKernelIsPacked(kern)) {
      std::vector<float> bp(PackedBSize(k, n, kc));
      PackBPanels(b.data(), k, n, bp.data(), kc);
      std::vector<float> c2(c0);
      ExecFast(kern, kc, a.data(), b.data(), bp.data(), c2.data(), m, k,
               n);
      ok = WithinTol(c2, ref);
    }
    val.fast[FastIdx(kern)] = ok;
  }

  // Int8 AVX2 kernel: bit-equality against the generic kernel.
  const std::size_t astride = quant::Int8PaddedDepth(k);
  std::vector<std::int16_t> aq(m * astride, 0);
  std::vector<float> row_scales(m);
  for (std::size_t i = 0; i < m; ++i) {
    row_scales[i] = quant::QuantizeActivationRow(a.data() + i * k, k,
                                                 aq.data() + i * astride);
  }
  quant::Int8ServingWeights wq =
      quant::PrepareInt8ServingWeights(b.data(), k, n);
  std::vector<float> cgen(c0);
  quant::GemmInt8DequantGeneric(aq.data(), astride, row_scales.data(),
                                wq.panels.data(), wq.scales.data(),
                                cgen.data(), m, k, n);
  if (quant::Int8KernelSupported(quant::Int8Kernel::kAvx2)) {
    std::vector<float> c(c0);
    quant::GemmInt8DequantWith(quant::Int8Kernel::kAvx2, aq.data(),
                               astride, row_scales.data(), wq.panels.data(),
                               wq.scales.data(), c.data(), m, k, n);
    val.int8_avx2 = c == cgen;
  }

  // Fast transposed kernels against double references. dW shape: A is
  // stored (k, m); dX shape: B is stored (n, k).
  {
    std::vector<float> at(k * m), ct0(m * n);
    Fill(at, 14);
    Fill(ct0, 15);
    std::vector<double> tref(m * n);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        double acc = ct0[i * n + j];
        for (std::size_t p = 0; p < k; ++p) {
          acc += static_cast<double>(at[p * m + i]) *
                 static_cast<double>(b[p * n + j]);
        }
        tref[i * n + j] = acc;
      }
    }
    std::vector<float> c(ct0);
    GemmTransposedAAccumulateFast(at.data(), b.data(), c.data(), m, k, n);
    val.ta_fast = WithinTol(c, tref);
  }
  {
    std::vector<float> bt(n * k), ct0(m * n);
    Fill(bt, 16);
    Fill(ct0, 17);
    std::vector<double> tref(m * n);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        double acc = ct0[i * n + j];
        for (std::size_t p = 0; p < k; ++p) {
          acc += static_cast<double>(a[i * k + p]) *
                 static_cast<double>(bt[j * k + p]);
        }
        tref[i * n + j] = acc;
      }
    }
    std::vector<float> c(ct0);
    GemmTransposedBAccumulateFast(a.data(), bt.data(), c.data(), m, k, n);
    val.tb_fast = WithinTol(c, tref);
  }
  return val;
}

const Validated& GetValidated() {
  static const Validated val = ValidateAll();
  return val;
}

// -------------------------------------------------------- plan construction

/// k-block depth of avx512_packed past one default block. PackedBSize pads
/// k up to a multiple of kc, so a layer at most kKc deep keeps kKc.
constexpr std::size_t kAvx512Kc = 512;

/// The one plan this machine serves for a (k, n) weight: the preferred
/// validated kernel of each row class, a fixed function of ValidateAll's
/// verdicts (README, "Kernel registry", has the measurements behind the
/// order). Nothing is timed, so every set-up picks the same kernels.
/// Without AVX2 the thin and direct classes run the exact tiled kernel.
GemmPlan MachinePlan(std::size_t k, std::size_t n) {
  const Validated& val = GetValidated();
  const auto ok = [&](FastKernel kern) { return val.fast[FastIdx(kern)]; };
  GemmPlan plan;
  plan.k = k;
  plan.n = n;
  if (ok(FastKernel::kAvx2Row)) plan.thin = FastKernel::kAvx2Row;
  if (ok(FastKernel::kAvx2Direct)) plan.direct = FastKernel::kAvx2Direct;
  if (ok(FastKernel::kAvx512Packed)) {
    plan.packed = FastKernel::kAvx512Packed;
    if (k > gemm_detail::kKc) plan.kc = kAvx512Kc;
  } else if (ok(FastKernel::kAvx2Packed)) {
    plan.packed = FastKernel::kAvx2Packed;
  } else if (ok(FastKernel::kGenericPacked)) {
    plan.packed = FastKernel::kGenericPacked;
  }
  if (val.int8_avx2) plan.int8 = quant::Int8Kernel::kAvx2;
  if (val.ta_fast) plan.ta = TransKernel::kFast;
  if (val.tb_fast) plan.tb = TransKernel::kFast;
  return plan;
}

}  // namespace

const char* FastKernelName(FastKernel kernel) {
  switch (kernel) {
    case FastKernel::kExactTiled: return "exact_tiled";
    case FastKernel::kGenericPacked: return "generic_packed";
    case FastKernel::kAvx2Row: return "avx2_row";
    case FastKernel::kAvx2Direct: return "avx2_direct";
    case FastKernel::kAvx2Packed: return "avx2_packed";
    case FastKernel::kAvx512Packed: return "avx512_packed";
  }
  return "?";
}

std::string DescribeGemmPlan(const GemmPlan& plan) {
  std::string out;
  out += "thin=";
  out += FastKernelName(plan.thin);
  out += ",direct=";
  out += FastKernelName(plan.direct);
  out += ",packed=";
  out += FastKernelName(plan.packed);
  out += ",kc=" + std::to_string(plan.kc);
  out += ",int8=";
  out += quant::Int8KernelName(plan.int8);
  out += ",dw=";
  out += plan.ta == TransKernel::kFast ? "fast" : "tiled";
  out += ",dx=";
  out += plan.tb == TransKernel::kFast ? "fast" : "tiled";
  return out;
}

struct KernelRegistry::Impl {
  mutable std::mutex mutex;
  std::map<std::pair<std::size_t, std::size_t>, GemmPlan> plans;
};

KernelRegistry::KernelRegistry() : impl_(new Impl) {}

KernelRegistry& KernelRegistry::Get() {
  static KernelRegistry* registry = new KernelRegistry();  // leaked
  return *registry;
}

GemmPlan KernelRegistry::PlanFor(std::size_t k, std::size_t n) {
  if (k == 0 || n == 0) return MachinePlan(k, n);
  std::lock_guard<std::mutex> lock(impl_->mutex);
  const auto key = std::make_pair(k, n);
  auto it = impl_->plans.find(key);
  if (it == impl_->plans.end()) {
    it = impl_->plans.emplace(key, MachinePlan(k, n)).first;
  }
  return it->second;
}

KernelRegistry::Stats KernelRegistry::stats() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  Stats stats;
  stats.plans = impl_->plans.size();
  return stats;
}

void KernelRegistry::Reset() {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->plans.clear();
}

// ---------------------------------------------------------------- execution

void RunFastGemm(const GemmPlan* plan, const float* a, const float* b,
                 const float* bpack, float* c, std::size_t m,
                 std::size_t k, std::size_t n) {
  if (m == 0 || n == 0 || k == 0) return;
  if (plan == nullptr) {  // fixed gemm.h dispatch for unplanned callers
    if (bpack != nullptr) {
      GemmAccumulateFastPrepacked(a, b, bpack, c, m, k, n);
    } else {
      GemmAccumulateFast(a, b, c, m, k, n);
    }
    return;
  }
  if (m < gemm_detail::kMr || n < gemm_detail::kNr) {
    ExecFast(plan->thin, plan->kc, a, b, nullptr, c, m, k, n);
  } else if (bpack != nullptr) {
    ExecFast(plan->packed, plan->kc, a, b, bpack, c, m, k, n);
  } else if (m <= gemm_detail::kDirectMaxRows) {
    ExecFast(plan->direct, plan->kc, a, b, nullptr, c, m, k, n);
  } else {
    ExecFast(plan->packed, plan->kc, a, b, nullptr, c, m, k, n);
  }
}

void RunInt8Gemm(const GemmPlan* plan, const std::int16_t* aq,
                 std::size_t astride, const float* row_scales,
                 const std::int8_t* bpack, const float* scales, float* c,
                 std::size_t m, std::size_t k, std::size_t n) {
  if (plan == nullptr) {
    quant::GemmInt8Dequant(aq, astride, row_scales, bpack, scales, c, m,
                           k, n);
    return;
  }
  quant::GemmInt8DequantWith(plan->int8, aq, astride, row_scales, bpack,
                             scales, c, m, k, n);
}

void RunTransposedAGemm(const GemmPlan* plan, const float* a,
                        const float* b, float* c, std::size_t m,
                        std::size_t k, std::size_t n) {
  if (plan != nullptr && plan->ta == TransKernel::kFast) {
    GemmTransposedAAccumulateFast(a, b, c, m, k, n);
  } else {
    GemmTransposedAAccumulate(a, b, c, m, k, n);
  }
}

void RunTransposedBGemm(const GemmPlan* plan, const float* a,
                        const float* b, float* c, std::size_t m,
                        std::size_t k, std::size_t n) {
  if (plan != nullptr && plan->tb == TransKernel::kFast) {
    GemmTransposedBAccumulateFast(a, b, c, m, k, n);
  } else {
    GemmTransposedBAccumulate(a, b, c, m, k, n);
  }
}

}  // namespace milr::nn
