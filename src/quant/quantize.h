// Quantization for the int8 serving tier: int8 weights, int16 activations.
//
// The memory-bound serving regime (ROADMAP, PR-3 follow-on): once a model's
// weight set outgrows L2, a micro-batch dense GEMM is bound on *streaming
// the weights*, not on FLOPs — no fp32 kernel tier can help, because every
// tier moves the same bytes. The lever is moving fewer bytes: an int8
// replica of the weights streams 4x less than fp32 per GEMM. This header is
// the numerics half of that tier (the kernel half is gemm_int8.h):
//
//  * Weights: symmetric per-output-channel int8. For a row-major (k, n)
//    weight matrix serving C = A·B, output feature j owns one scale
//    s_w[j] = maxabs(B[:,j]) / 127 and quantizes as
//    q = clamp(round(w / s_w[j]), -127, +127). Weights are the operand
//    that gets streamed, so THEY carry the 4x byte reduction; they are
//    also the replica that must be rebuilt from the MILR-protected fp32
//    master after every recovery. -128 is never produced
//    (kWeightQuantMax), keeping the range symmetric.
//  * Activations: symmetric per-row int16, clamped to +/-2047 (12 bits,
//    kActivationQuantMax). Activations are micro-batch-sized — a few KB
//    against megabytes of weights — so spending 2 bytes on them costs the
//    memory-bound regime nothing, while 12 bits pushes the activation
//    quantization error an order of magnitude below the weight error. (A
//    u8 x s8 maddubs pipeline was evaluated first: its int16 pair-sums
//    force activations down to 7 bits to stay saturation-free, and that
//    alone cost ~2% top-1 agreement on the bench nets. The s16 x s8 madd
//    pipeline keeps the same one-byte weight streaming with none of that
//    loss.) 12 bits is also the exactness bound: |acc| <= k * 2047 * 127
//    keeps the int32 accumulator overflow-free for k <= 8260
//    (kInt8MaxDepth), past every dense layer in the repo.
//
// Symmetric on both sides means no zero-points and no correction terms:
//     C[i][j] = s_a[i] * s_w[j] * acc[i][j]
// where acc is the exact int32 s16·s8 dot product. Every arithmetic step
// up to the final float epilogue is integer-exact and order-independent,
// so int8-tier results are bit-identical across micro-kernel dispatch
// (AVX2 vs generic), row blocking, and thread count — a property the fp32
// fast tier cannot offer and the requantization tests rely on.
//
// Fault model: the quantized replica is a DERIVED cache, never the
// protected truth. MILR's init/detect/recover passes run against the fp32
// master through the exact per-sample kernels; after a recovery (or any
// weight mutation) the cache owner requantizes from the repaired master.
// Corrupted masters may hold Inf/NaN by the time a requantization sees
// them: quantization maps non-finite values to 0 and saturates overflowing
// magnitudes deterministically (see QuantizeWeights) — the int8 tier
// serves *something* defined while detection, which never looks at the
// replica, flags the layer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace milr::quant {

/// Symmetric weight range: [-127, +127]. -128 is excluded so |q| <= 127
/// holds for every quantized weight.
inline constexpr std::int32_t kWeightQuantMax = 127;

/// Symmetric activation range: [-2047, +2047] — 12 bits (see the file
/// comment for why not 15).
inline constexpr std::int32_t kActivationQuantMax = 2047;

/// Per-output-channel quantization of a row-major (k, n) weight matrix.
/// `values` keeps B's row-major layout (the packer in gemm_int8.h consumes
/// it); `scales` is indexed by output feature j.
struct QuantizedWeights {
  std::size_t k = 0;
  std::size_t n = 0;
  std::vector<std::int8_t> values;  // (k, n) row-major
  std::vector<float> scales;        // s_w[j], size n
};

/// Quantizes row-major B(k, n) with one symmetric scale per output column.
/// Deterministic for every input: finite weights round-to-nearest and
/// saturate at +/-127; non-finite weights map to 0 and are excluded from
/// the maxabs scan (an Inf-poisoned column would otherwise quantize every
/// sane weight in it to 0). An all-zero (or all-non-finite) column gets
/// scale 1 so dequantization never divides by zero.
QuantizedWeights QuantizeWeights(const float* b, std::size_t k,
                                 std::size_t n);

/// Reconstructs fp32 weights from a QuantizedWeights into row-major
/// out(k, n): out[p][j] = values[p][j] * scales[j]. The round-trip error is
/// bounded by scales[j]/2 per element (saturated elements excepted).
void DequantizeWeights(const QuantizedWeights& q, float* out);

/// Quantizes one GEMM row a[0..k) into symmetric int16 `out[0..k)` and
/// returns the row scale: a ~= scale * q with q in
/// [-kActivationQuantMax, +kActivationQuantMax]. The row's own maxabs
/// sets the scale, so every row spends its 12 bits on its actual dynamic
/// range; zero is exactly representable (q = 0) by symmetry. Non-finite
/// activations map to 0. An all-zero (or all-non-finite) row gets scale 1
/// and quantizes exactly. Runtime-dispatched like GemmInt8Dequant: AVX2 on
/// capable x86-64, QuantizeActivationRowGeneric elsewhere, with the same
/// scale and the same int16 values bit for bit.
float QuantizeActivationRow(const float* a, std::size_t k,
                            std::int16_t* out);

/// Scalar QuantizeActivationRow: the non-AVX2 fallback AND the oracle the
/// AVX2 kernel is tested against. Each value is lrintf(a[p] / scale) under
/// the default round-to-nearest-even, clamped; the AVX2 kernel keeps that
/// exact division (a reciprocal multiply changes some roundings).
float QuantizeActivationRowGeneric(const float* a, std::size_t k,
                                   std::int16_t* out);

}  // namespace milr::quant
