// 2-D convolution layer (stride 1, valid or same padding).
//
// Implemented in im2col form because MILR's recovery math *is* the im2col
// form: Out(G²,Y) = Patches(G²,F²Z) · W(F²Z,Y)  (equation 4 of the paper).
//  * parameter solving — solve the linear system for W given golden
//    Patches/Out (needs G² ≥ F²Z, else partial recoverability);
//  * backward pass — solve for Patches given Out and W (needs Y ≥ F²Z,
//    else dummy filters), then stitch patches back into the input.
// BuildPatchMatrix / ScatterPatchesToInput are public for exactly that use.
#pragma once

#include <atomic>
#include <mutex>
#include <span>

#include "nn/kernel_registry.h"
#include "nn/layer.h"
#include "quant/gemm_int8.h"

namespace milr::nn {

enum class Padding { kValid, kSame };

/// Upper bound, in bytes, on the im2col patch matrix a batched conv may
/// materialize at once. Above it, ForwardBatch streams the GEMM per row
/// block instead of building the full (B·G², F²Z) operand. Derived from
/// the machine's last-level cache (fallback 8 MiB).
std::size_t PatchMatrixBudgetBytes();

/// Test override for the budget; 0 restores the derived default.
void SetPatchMatrixBudgetBytes(std::size_t bytes);

class Conv2DLayer final : public Layer {
 public:
  /// Filters are (F,F,Z,Y): F×F spatial, Z input channels, Y filters.
  /// Only odd F is supported for kSame padding. Stride is 1 (all networks
  /// in the paper's evaluation are stride-1).
  Conv2DLayer(std::size_t filter_size, std::size_t in_channels,
              std::size_t out_channels, Padding padding);

  LayerKind kind() const override { return LayerKind::kConv2D; }
  Shape OutputShape(const Shape& input) const override;
  /// Always the exact GEMM tier — MILR's init/detect/recover passes come
  /// through here and their signatures must be reproducible bit-for-bit.
  Tensor Forward(const Tensor& input) const override;
  /// Batched im2col: stacks every sample's patch matrix into one
  /// (B·G², F²Z) operand and runs a single GEMM against the filters,
  /// parallelized across row blocks when the product is large enough.
  /// Honors the configured kernel tier, and when the stacked patch matrix
  /// would exceed PatchMatrixBudgetBytes() it streams the GEMM per row
  /// block without ever materializing the full operand (bit-identical to
  /// the materialized path — row blocks do not change accumulation order).
  Tensor ForwardBatch(const Tensor& input) const override;
  Tensor Backward(const Tensor& x, const Tensor& y, const Tensor& dy,
                  std::span<float> dparams) const override;
  /// The mutable span is the fault domain: every writer (fault injectors,
  /// MILR recovery, training, deserialization, Model::RestoreParams) goes
  /// through it, so handing it out invalidates the derived int8 filter
  /// panels — the next int8 ForwardBatch requantizes once from the
  /// (possibly recovered) fp32 master, exactly the DenseLayer discipline.
  std::span<float> Params() override {
    InvalidateInt8Filters();
    return filters_.flat();
  }
  std::span<const float> Params() const override { return filters_.flat(); }

  /// Non-exact tiers attach the registry's plan for the im2col GEMM shape
  /// (F²Z, Y); the batched row-block GEMMs then dispatch through it. The
  /// int8 tier additionally quantizes + packs the filter panels here, at
  /// configuration time, so the cost never lands inside a request. An int8
  /// setting on a layer whose F²Z exceeds quant::kInt8MaxDepth is stored
  /// (and served) as kFast.
  void set_kernel_config(KernelConfig config) override;

  /// Tier name plus the registry plan when one is attached.
  std::string KernelDescription() const override;

  /// Registry plan attached by set_kernel_config (tests/telemetry).
  bool has_plan() const { return has_plan_; }
  const GemmPlan& plan() const { return plan_; }

  std::size_t filter_size() const { return filter_size_; }    // F
  std::size_t in_channels() const { return in_channels_; }    // Z
  std::size_t out_channels() const { return out_channels_; }  // Y
  Padding padding() const { return padding_; }

  /// Spatial padding applied on each side (0 for kValid, (F-1)/2 for kSame).
  std::size_t pad() const;

  /// Output spatial extent G for a square input of extent M.
  std::size_t OutputExtent(std::size_t input_extent) const;

  const Tensor& filters() const { return filters_; }
  Tensor& filters() {
    InvalidateInt8Filters();
    return filters_;
  }

  /// True while the int8 quantized filter-panel cache matches filters_
  /// (the requantization tests pin the invalidate-on-mutate contract).
  bool int8_filters_valid() const {
    return int8_valid_.load(std::memory_order_acquire);
  }

  /// Patch-matrix length F²Z — the number of unknowns per filter.
  std::size_t PatchLength() const {
    return filter_size_ * filter_size_ * in_channels_;
  }

  /// im2col: builds the (G², F²Z) patch matrix for an (M,M,Z) input.
  /// Row (i·G+j) holds the input sub-region under output pixel (i,j), in
  /// (f1, f2, z) order matching the filters' flat layout.
  Tensor BuildPatchMatrix(const Tensor& input) const;

  /// Inverse of BuildPatchMatrix: writes patch rows back into an (M,M,Z)
  /// input. Overlapping patch cells must agree; the value written last wins
  /// (used by MILR's backward pass, where the patch solutions are exact up
  /// to rounding). `input_extent` is M.
  Tensor ScatterPatchesToInput(const Tensor& patches,
                               std::size_t input_extent) const;

 private:
  void CheckInput(const Shape& input) const;

  /// im2col core shared by the single and batched paths: writes the (G²,F²Z)
  /// patch rows of one (M,M,Z) sample at `src` into `dst`, which must be
  /// zero-filled (padding cells are skipped, not written).
  void Im2ColInto(const float* src, std::size_t input_extent,
                  float* dst) const;

  /// Row-range im2col for the streamed path: writes patch rows
  /// [row_begin, row_begin + row_count) of one sample (rows index output
  /// pixels i·G + j) into `dst`, which must be zero-filled.
  void Im2ColRowsInto(const float* src, std::size_t input_extent,
                      std::size_t row_begin, std::size_t row_count,
                      float* dst) const;

  /// Lazily requantizes + packs the filter panels from the fp32 master
  /// under pack_mutex_ (DenseLayer's memory-ordering discipline: valid_
  /// only transitions false->true here; true->false happens on the
  /// mutation paths, which serving already runs under the model's
  /// exclusive lock). Only reached under kInt8, which set_kernel_config
  /// never stores past the int32 accumulator's exact range
  /// (quant::kInt8MaxDepth).
  const quant::Int8ServingWeights& Int8Filters() const;

  /// One int8 row block of the im2col GEMM: quantize `rows` patch rows
  /// (length F²Z, thread-local int16 scratch, 12-bit per-row scales) and
  /// run the packed filter-stationary int8 GEMM + dequantizing epilogue.
  void ForwardInt8Block(const quant::Int8ServingWeights& qw,
                        const float* patches, float* out,
                        std::size_t rows) const;

  void InvalidateInt8Filters() {
    int8_valid_.store(false, std::memory_order_release);
  }

  std::size_t filter_size_;
  std::size_t in_channels_;
  std::size_t out_channels_;
  Padding padding_;
  Tensor filters_;  // (F,F,Z,Y)

  GemmPlan plan_;          // registry decision for (F²Z, Y); valid iff
  bool has_plan_ = false;  // has_plan_

  // Derived int8 replica of the filters: (F,F,Z,Y) flat IS row-major
  // (F²Z, Y), so the dense per-output-column quantizer gives exactly the
  // per-output-FILTER scales and the packer the filter-stationary panels.
  mutable std::mutex pack_mutex_;
  mutable quant::Int8ServingWeights int8_filters_;
  mutable std::atomic<bool> int8_valid_{false};
};

}  // namespace milr::nn
