#include "nn/conv2d.h"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <vector>

#include "nn/gemm.h"
#include "support/parallel.h"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace milr::nn {

namespace {

std::atomic<std::size_t> g_patch_budget_override{0};

std::size_t DerivedPatchBudgetBytes() {
  static const std::size_t derived = [] {
    // Size the materialized patch matrix to the last-level cache: past
    // that, every GEMM pass re-streams it from DRAM and materialization
    // only adds memory pressure (tens of MB per conv at max_batch 16+).
    long cache = -1;
#if defined(_SC_LEVEL3_CACHE_SIZE)
    cache = sysconf(_SC_LEVEL3_CACHE_SIZE);
#endif
#if defined(_SC_LEVEL2_CACHE_SIZE)
    if (cache <= 0) {
      cache = sysconf(_SC_LEVEL2_CACHE_SIZE);
      if (cache > 0) cache *= 4;  // L2 is per-core; allow some spill
    }
#endif
    constexpr std::size_t kFallback = 8u << 20;
    constexpr std::size_t kFloor = 1u << 20;
    if (cache <= 0) return kFallback;
    return std::max(kFloor, static_cast<std::size_t>(cache));
  }();
  return derived;
}

}  // namespace

std::size_t PatchMatrixBudgetBytes() {
  const std::size_t override_bytes =
      g_patch_budget_override.load(std::memory_order_relaxed);
  return override_bytes != 0 ? override_bytes : DerivedPatchBudgetBytes();
}

void SetPatchMatrixBudgetBytes(std::size_t bytes) {
  g_patch_budget_override.store(bytes, std::memory_order_relaxed);
}

Conv2DLayer::Conv2DLayer(std::size_t filter_size, std::size_t in_channels,
                         std::size_t out_channels, Padding padding)
    : filter_size_(filter_size),
      in_channels_(in_channels),
      out_channels_(out_channels),
      padding_(padding),
      filters_(Shape{filter_size, filter_size, in_channels, out_channels}) {
  if (filter_size == 0 || in_channels == 0 || out_channels == 0) {
    throw std::invalid_argument("Conv2DLayer: all dimensions must be >= 1");
  }
  if (padding == Padding::kSame && filter_size % 2 == 0) {
    throw std::invalid_argument(
        "Conv2DLayer: same padding requires an odd filter size");
  }
}

void Conv2DLayer::set_kernel_config(KernelConfig config) {
  // Past this patch depth the int32 accumulator could overflow, so such a
  // layer serves (and reports) the fast tier under an int8 setting.
  if (config == KernelConfig::kInt8 && PatchLength() > quant::kInt8MaxDepth) {
    config = KernelConfig::kFast;
  }
  Layer::set_kernel_config(config);
  if (config != KernelConfig::kExact) {
    plan_ = KernelRegistry::Get().PlanFor(PatchLength(), out_channels_);
    has_plan_ = true;
  }
  // Warm the int8 filter-panel cache on entry instead of on the first
  // serve, so quantize+pack lands at configuration time (engine
  // construction) and never inside a latency-sensitive request. The fast
  // tier has no cache to warm: conv's fast path streams the fp32 filters
  // directly.
  if (config == KernelConfig::kInt8) Int8Filters();
}

const quant::Int8ServingWeights& Conv2DLayer::Int8Filters() const {
  if (!int8_valid_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(pack_mutex_);
    if (!int8_valid_.load(std::memory_order_relaxed)) {
      // (F,F,Z,Y) flat is row-major (F²Z, Y): column j of that matrix is
      // output filter j, so the per-output-column quantizer yields
      // per-output-FILTER scales and the packer the (k,16) panels the
      // int8 micro-kernels stream.
      int8_filters_ = quant::PrepareInt8ServingWeights(
          filters_.data(), PatchLength(), out_channels_);
      int8_valid_.store(true, std::memory_order_release);
    }
  }
  return int8_filters_;
}

void Conv2DLayer::ForwardInt8Block(const quant::Int8ServingWeights& qw,
                                   const float* patches, float* out,
                                   std::size_t rows) const {
  // Thread-local like the streamed path's im2col scratch: ParallelFor row
  // blocks and engine workers quantize their patch rows concurrently
  // without shared state. Rows are padded to the k-pair stride with
  // zeros, which the integer kernel's zero B-padding turns into exact
  // no-ops.
  const std::size_t plen = PatchLength();
  const std::size_t astride = quant::Int8PaddedDepth(plen);
  thread_local std::vector<std::int16_t> aq;
  thread_local std::vector<float> row_scales;
  if (aq.size() < rows * astride) aq.resize(rows * astride);
  if (row_scales.size() < rows) row_scales.resize(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    std::int16_t* arow = aq.data() + r * astride;
    row_scales[r] =
        quant::QuantizeActivationRow(patches + r * plen, plen, arow);
    for (std::size_t p = plen; p < astride; ++p) arow[p] = 0;
  }
  RunInt8Gemm(has_plan_ ? &plan_ : nullptr, aq.data(), astride,
              row_scales.data(), qw.panels.data(), qw.scales.data(), out,
              rows, plen, out_channels_);
}

std::string Conv2DLayer::KernelDescription() const {
  std::string desc = KernelConfigName(kernel_config());
  if (has_plan_ && kernel_config() != KernelConfig::kExact) {
    desc += "[";
    desc += DescribeGemmPlan(plan_);
    desc += "]";
  }
  return desc;
}

std::size_t Conv2DLayer::pad() const {
  return padding_ == Padding::kSame ? (filter_size_ - 1) / 2 : 0;
}

std::size_t Conv2DLayer::OutputExtent(std::size_t input_extent) const {
  // G = M - F + 2P + 1 with stride 1.
  const std::size_t padded = input_extent + 2 * pad();
  if (padded < filter_size_) {
    throw std::invalid_argument("Conv2DLayer: input smaller than filter");
  }
  return padded - filter_size_ + 1;
}

void Conv2DLayer::CheckInput(const Shape& input) const {
  if (input.rank() != 3 || input[0] != input[1] ||
      input[2] != in_channels_) {
    throw std::invalid_argument("Conv2DLayer(" + std::to_string(filter_size_) +
                                "x" + std::to_string(filter_size_) + "x" +
                                std::to_string(in_channels_) + "->" +
                                std::to_string(out_channels_) +
                                "): incompatible input " + input.ToString());
  }
}

Shape Conv2DLayer::OutputShape(const Shape& input) const {
  CheckInput(input);
  const std::size_t g = OutputExtent(input[0]);
  return Shape{g, g, out_channels_};
}

void Conv2DLayer::Im2ColInto(const float* src, std::size_t input_extent,
                             float* dst) const {
  const std::size_t g = OutputExtent(input_extent);
  Im2ColRowsInto(src, input_extent, 0, g * g, dst);
}

void Conv2DLayer::Im2ColRowsInto(const float* src, std::size_t input_extent,
                                 std::size_t row_begin,
                                 std::size_t row_count, float* dst) const {
  const std::size_t m = input_extent;
  const std::size_t g = OutputExtent(m);
  const std::size_t f = filter_size_;
  const std::size_t z = in_channels_;
  const std::size_t p = pad();
  for (std::size_t rr = 0; rr < row_count; ++rr) {
    const std::size_t i = (row_begin + rr) / g;
    const std::size_t j = (row_begin + rr) % g;
    float* row = dst + rr * (f * f * z);
    for (std::size_t f1 = 0; f1 < f; ++f1) {
      // Input row index with padding offset; skip out-of-bounds (zeros).
      const std::ptrdiff_t r =
          static_cast<std::ptrdiff_t>(i + f1) - static_cast<std::ptrdiff_t>(p);
      for (std::size_t f2 = 0; f2 < f; ++f2) {
        const std::ptrdiff_t c = static_cast<std::ptrdiff_t>(j + f2) -
                                 static_cast<std::ptrdiff_t>(p);
        float* cell = row + (f1 * f + f2) * z;
        if (r < 0 || c < 0 || r >= static_cast<std::ptrdiff_t>(m) ||
            c >= static_cast<std::ptrdiff_t>(m)) {
          continue;  // zero padding (destination starts zero-filled)
        }
        const float* cell_src =
            src + (static_cast<std::size_t>(r) * m +
                   static_cast<std::size_t>(c)) *
                      z;
        for (std::size_t ch = 0; ch < z; ++ch) cell[ch] = cell_src[ch];
      }
    }
  }
}

Tensor Conv2DLayer::BuildPatchMatrix(const Tensor& input) const {
  CheckInput(input.shape());
  const std::size_t m = input.shape()[0];
  const std::size_t g = OutputExtent(m);
  Tensor patches(Shape{g * g, PatchLength()});
  Im2ColInto(input.data(), m, patches.data());
  return patches;
}

Tensor Conv2DLayer::ScatterPatchesToInput(const Tensor& patches,
                                          std::size_t input_extent) const {
  const std::size_t m = input_extent;
  const std::size_t g = OutputExtent(m);
  const std::size_t f = filter_size_;
  const std::size_t z = in_channels_;
  const std::size_t p = pad();
  if (patches.shape().rank() != 2 || patches.shape()[0] != g * g ||
      patches.shape()[1] != f * f * z) {
    throw std::invalid_argument("ScatterPatchesToInput: patch shape " +
                                patches.shape().ToString() + " mismatch");
  }
  Tensor input(Shape{m, m, z});
  for (std::size_t i = 0; i < g; ++i) {
    for (std::size_t j = 0; j < g; ++j) {
      const float* row = patches.data() + (i * g + j) * (f * f * z);
      for (std::size_t f1 = 0; f1 < f; ++f1) {
        const std::ptrdiff_t r =
            static_cast<std::ptrdiff_t>(i + f1) - static_cast<std::ptrdiff_t>(p);
        for (std::size_t f2 = 0; f2 < f; ++f2) {
          const std::ptrdiff_t c = static_cast<std::ptrdiff_t>(j + f2) -
                                   static_cast<std::ptrdiff_t>(p);
          if (r < 0 || c < 0 || r >= static_cast<std::ptrdiff_t>(m) ||
              c >= static_cast<std::ptrdiff_t>(m)) {
            continue;
          }
          const float* cell = row + (f1 * f + f2) * z;
          float* dst = input.data() + input.Offset3(static_cast<std::size_t>(r),
                                                    static_cast<std::size_t>(c),
                                                    0);
          for (std::size_t ch = 0; ch < z; ++ch) dst[ch] = cell[ch];
        }
      }
    }
  }
  return input;
}

Tensor Conv2DLayer::Forward(const Tensor& input) const {
  CheckInput(input.shape());
  const std::size_t g = OutputExtent(input.shape()[0]);
  const Tensor patches = BuildPatchMatrix(input);
  Tensor out(Shape{g, g, out_channels_});
  GemmAccumulate(patches.data(), filters_.data(), out.data(), g * g,
                 PatchLength(), out_channels_);
  return out;
}

Tensor Conv2DLayer::ForwardBatch(const Tensor& input) const {
  const Shape& shape = input.shape();
  if (shape.rank() != 4 || shape[0] == 0 || shape[1] != shape[2] ||
      shape[3] != in_channels_) {
    throw std::invalid_argument("Conv2DLayer::ForwardBatch: incompatible "
                                "batched input " + shape.ToString());
  }
  const std::size_t batch = shape[0];
  const std::size_t m = shape[1];
  const std::size_t g = OutputExtent(m);
  const std::size_t plen = PatchLength();
  const std::size_t sample_rows = g * g;
  const std::size_t rows = batch * sample_rows;
  const KernelConfig kernel = kernel_config();
  // Int8 tier: serve from the cached quantized filter panels. One
  // requantization per filter mutation (recovery, injection, training),
  // shared by every row block and concurrent reader — the dense replica's
  // discipline, with 4x fewer filter bytes streamed per im2col GEMM.
  const quant::Int8ServingWeights* qfilters =
      kernel == KernelConfig::kInt8 ? &Int8Filters() : nullptr;
  Tensor out(Shape{batch, g, g, out_channels_});

  // Whether materialized or streamed, sample s owns rows [s·G², (s+1)·G²)
  // of the logical patch matrix and every output row accumulates over the
  // full, unsplit patch length — so under the exact tier both paths are
  // bit-identical to Forward, and the streamed path merely bounds memory.
  // The int8 tier (default per-row scales) is likewise bit-identical
  // across the two paths: each patch row quantizes from its own maxabs
  // and the integer accumulation is order-independent, so row blocking
  // cannot move a single bit.
  const std::size_t patch_bytes = rows * plen * sizeof(float);
  if (patch_bytes > PatchMatrixBudgetBytes()) {
    // Streamed row-block path: never materialize the (B·G², F²Z) operand.
    // Each chunk im2cols a row range of one sample into a thread-local
    // scratch and runs the GEMM straight out of it. The scratch is sized
    // from a per-worker share of the budget: ParallelFor can hold one
    // chunk live per worker, so dividing keeps the *aggregate* resident
    // scratch at the cache-derived bound.
    const std::size_t budget_rows = std::max<std::size_t>(
        1, PatchMatrixBudgetBytes() /
               std::max<std::size_t>(1, ParallelWorkerCount()) /
               (plen * sizeof(float)));
    // Floor of 64 rows keeps the GEMM efficient even under a tiny budget
    // (the budget is a memory target, not a hard cap).
    const std::size_t chunk_rows =
        std::min(sample_rows, std::max<std::size_t>(64, budget_rows));
    const std::size_t chunks_per_sample =
        (sample_rows + chunk_rows - 1) / chunk_rows;
    const std::size_t in_stride = m * m * in_channels_;
    ParallelFor(0, batch * chunks_per_sample, [&](std::size_t idx) {
      const std::size_t s = idx / chunks_per_sample;
      const std::size_t row_begin = (idx % chunks_per_sample) * chunk_rows;
      const std::size_t count = std::min(chunk_rows, sample_rows - row_begin);
      thread_local std::vector<float> scratch;
      if (scratch.size() < count * plen) scratch.resize(count * plen);
      // Padding cells are skipped by im2col and must read as zero; with
      // valid padding every cell is written, so skip the clear.
      if (pad() > 0) std::fill_n(scratch.data(), count * plen, 0.0f);
      Im2ColRowsInto(input.data() + s * in_stride, m, row_begin, count,
                     scratch.data());
      float* cout =
          out.data() + (s * sample_rows + row_begin) * out_channels_;
      if (kernel == KernelConfig::kExact) {
        GemmAccumulate(kernel, scratch.data(), filters_.data(), cout, count,
                       plen, out_channels_);
      } else if (qfilters != nullptr) {
        // Streamed int8: the patch rows just built in scratch quantize to
        // 12-bit int16 (thread-local, so the fp32+int16 scratch pair stays
        // within a per-worker share of the budget) and the GEMM streams
        // the cached packed panels — filters stay stationary in their
        // int8 form across every chunk.
        ForwardInt8Block(*qfilters, scratch.data(), cout, count);
      } else {
        RunFastGemm(has_plan_ ? &plan_ : nullptr, scratch.data(),
                    filters_.data(), nullptr, cout, count, plen,
                    out_channels_);
      }
    });
    return out;
  }

  // Materialized path: stacked im2col, then one logical GEMM parallelized
  // across row blocks (each block owns a disjoint slice of C).
  Tensor patches(Shape{rows, plen});
  const std::size_t in_stride = m * m * in_channels_;
  ParallelFor(0, batch, [&](std::size_t s) {
    Im2ColInto(input.data() + s * in_stride, m,
               patches.data() + s * sample_rows * plen);
  });

  constexpr std::size_t kBlockRows = 128;
  const std::size_t blocks = (rows + kBlockRows - 1) / kBlockRows;
  ParallelFor(0, blocks, [&](std::size_t blk) {
    const std::size_t begin = blk * kBlockRows;
    const std::size_t count = std::min(kBlockRows, rows - begin);
    if (kernel == KernelConfig::kExact) {
      GemmAccumulate(kernel, patches.data() + begin * plen, filters_.data(),
                     out.data() + begin * out_channels_, count, plen,
                     out_channels_);
    } else if (qfilters != nullptr) {
      ForwardInt8Block(*qfilters, patches.data() + begin * plen,
                       out.data() + begin * out_channels_, count);
    } else {
      RunFastGemm(has_plan_ ? &plan_ : nullptr, patches.data() + begin * plen,
                  filters_.data(), nullptr, out.data() + begin * out_channels_,
                  count, plen, out_channels_);
    }
  });
  return out;
}

Tensor Conv2DLayer::Backward(const Tensor& x, const Tensor& /*y*/,
                             const Tensor& dy,
                             std::span<float> dparams) const {
  CheckInput(x.shape());
  const std::size_t m = x.shape()[0];
  const std::size_t g = OutputExtent(m);
  const std::size_t patch_len = PatchLength();
  if (dparams.size() != filters_.size()) {
    throw std::invalid_argument("Conv2DLayer::Backward: dparams size");
  }
  const Tensor patches = BuildPatchMatrix(x);
  // dW(F²Z,Y) += Patchesᵀ(F²Z,G²) · dOut(G²,Y).
  GemmTransposedAAccumulate(patches.data(), dy.data(), dparams.data(),
                            patch_len, g * g, out_channels_);
  // dPatches(G²,F²Z) = dOut(G²,Y) · Wᵀ(Y,F²Z).
  Tensor dpatches(Shape{g * g, patch_len});
  GemmTransposedBAccumulate(dy.data(), filters_.data(), dpatches.data(),
                            g * g, out_channels_, patch_len);
  // col2im with accumulation over overlapping patches.
  Tensor dx(x.shape());
  const std::size_t f = filter_size_;
  const std::size_t z = in_channels_;
  const std::size_t p = pad();
  for (std::size_t i = 0; i < g; ++i) {
    for (std::size_t j = 0; j < g; ++j) {
      const float* row = dpatches.data() + (i * g + j) * patch_len;
      for (std::size_t f1 = 0; f1 < f; ++f1) {
        const std::ptrdiff_t r =
            static_cast<std::ptrdiff_t>(i + f1) - static_cast<std::ptrdiff_t>(p);
        if (r < 0 || r >= static_cast<std::ptrdiff_t>(m)) continue;
        for (std::size_t f2 = 0; f2 < f; ++f2) {
          const std::ptrdiff_t c = static_cast<std::ptrdiff_t>(j + f2) -
                                   static_cast<std::ptrdiff_t>(p);
          if (c < 0 || c >= static_cast<std::ptrdiff_t>(m)) continue;
          const float* cell = row + (f1 * f + f2) * z;
          float* dst = dx.data() + dx.Offset3(static_cast<std::size_t>(r),
                                              static_cast<std::size_t>(c), 0);
          for (std::size_t ch = 0; ch < z; ++ch) dst[ch] += cell[ch];
        }
      }
    }
  }
  return dx;
}

}  // namespace milr::nn
