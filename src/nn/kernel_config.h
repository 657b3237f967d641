// Kernel tier selection for the forward-path GEMMs.
//
// The repo carries three production GEMM tiers:
//  * kExact — cache-blocked, register-tiled fp32 kernels (nn/gemm.h) that
//    preserve the reference per-element accumulation order. Results are
//    bit-identical to the naive oracle for ALL inputs (including
//    non-finite), which is what MILR's detection signatures and the
//    fault-injection experiments assume. This is the default everywhere.
//  * kFast — packed-panel fp32 kernels with k-blocking and SIMD-friendly
//    inner loops (nn/gemm.h). The k dimension is split into panels, so
//    floating-point accumulation order changes and results agree with
//    kExact only to a tolerance. Opt-in for serving deployments that trade
//    bit-exact reproducibility for single-core throughput in the
//    compute-bound regime.
//  * kInt8 — quantized serving tier (src/quant/): dense layers serve from
//    a symmetric per-output-channel int8 replica of their weights, conv
//    layers from a per-output-filter int8 replica of their (F²Z, Y)
//    filter panels fed by 12-bit-quantized im2col patch rows — both with
//    an int32-accumulating GEMM and a dequantizing epilogue. Results
//    agree with kExact only to quantization tolerance (top-1 agreement is
//    the practical acceptance metric), but are bit-stable across
//    dispatch and threading. Opt-in for the MEMORY-BOUND regime — weight
//    sets larger than L2, where micro-batch GEMMs are bound on streaming
//    weight bytes and int8 streams 4x fewer of them. A layer whose depth
//    exceeds the int32 accumulator's exact range (quant::kInt8MaxDepth —
//    dense in_features or conv F²Z past 8260) stores, reports and serves
//    kFast under this setting, so a model is never slower than kFast for
//    choosing kInt8.
//
// The choice rides the batched serving path only (Layer::ForwardBatch,
// Model::PredictBatch, and therefore the engine): MILR's init / detect /
// recover passes go through the per-sample Layer::Forward entry points,
// which always use the exact tier, so detection semantics are identical no
// matter how the model is served. The int8 replica (like the fast tier's
// packed fp32 panels) is a derived cache rebuilt from the MILR-protected
// fp32 master after every mutation — recovery, fault injection, training.
#pragma once

namespace milr::nn {

enum class KernelConfig {
  kExact,  // bit-exact tiled kernels (default, equivalence oracle)
  kFast,   // packed k-blocked fp32 panels, tolerance-equivalent
  kInt8,   // quantized int8 serving tier, quantization-tolerance outputs
};

inline const char* KernelConfigName(KernelConfig config) {
  switch (config) {
    case KernelConfig::kFast:
      return "fast";
    case KernelConfig::kInt8:
      return "int8";
    default:
      return "exact";
  }
}

}  // namespace milr::nn
