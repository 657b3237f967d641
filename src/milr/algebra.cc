#include "milr/algebra.h"

#include <algorithm>
#include <cmath>
#include <vector>
#include <stdexcept>

#include "support/parallel.h"
#include "support/prng.h"

namespace milr::core {

Matrix TensorToMatrix(const Tensor& t, std::size_t rows, std::size_t cols) {
  if (t.size() != rows * cols) {
    throw std::invalid_argument("TensorToMatrix: size mismatch");
  }
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < t.size(); ++i) {
    m.flat()[i] = static_cast<double>(t[i]);
  }
  return m;
}

Tensor MatrixToTensor(const Matrix& m, Shape shape) {
  if (shape.NumElements() != m.size()) {
    throw std::invalid_argument("MatrixToTensor: size mismatch");
  }
  Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(m.flat()[i]);
  }
  return t;
}

Tensor MakeDenseDummyColumns(std::size_t n, std::size_t alpha,
                             std::uint64_t seed) {
  Prng prng(seed);
  return RandomTensor(Shape{n, alpha}, prng);
}

Tensor MakeDenseDummyRows(std::size_t rows, std::size_t n,
                          std::uint64_t seed) {
  // Orthonormal DCT-II basis rows, sign-flipped per column.
  Prng prng(seed);
  std::vector<float> signs(n);
  for (auto& s : signs) s = prng.NextBool(0.5) ? 1.0f : -1.0f;
  constexpr double kPi = 3.14159265358979323846;
  Tensor out(Shape{rows, n});
  ParallelFor(0, rows, [&](std::size_t r) {
    const double scale = r == 0 ? std::sqrt(1.0 / static_cast<double>(n))
                                : std::sqrt(2.0 / static_cast<double>(n));
    float* row = out.data() + r * n;
    for (std::size_t c = 0; c < n; ++c) {
      const double angle = kPi * (2.0 * static_cast<double>(c) + 1.0) *
                           static_cast<double>(r) /
                           (2.0 * static_cast<double>(n));
      row[c] = static_cast<float>(scale * std::cos(angle)) * signs[c];
    }
  }, /*grain=*/4);
  return out;
}

Tensor MakeConvDummyFilters(const nn::Conv2DLayer& conv, std::size_t alpha,
                            std::uint64_t seed) {
  Prng prng(seed);
  return RandomTensor(
      Shape{conv.filter_size(), conv.filter_size(), conv.in_channels(), alpha},
      prng);
}

Result<Tensor> DenseBackward(const nn::DenseLayer& dense, const Tensor& y,
                             std::size_t dummy_count, std::uint64_t dummy_seed,
                             std::span<const float> dummy_outputs) {
  const std::size_t n = dense.in_features();
  const std::size_t p = dense.out_features();
  if (y.size() != p) {
    return Status(StatusCode::kInvalidArgument,
                  "DenseBackward: output size mismatch");
  }
  if (dummy_outputs.size() != dummy_count) {
    return Status(StatusCode::kInvalidArgument,
                  "DenseBackward: dummy output count mismatch");
  }
  // Augmented system: x·[B | D] = [y | y_d]  ⇔  [B | D]ᵀ·xᵀ = [y | y_d]ᵀ.
  const std::size_t total_cols = p + dummy_count;
  if (total_cols < n) {
    return Status(StatusCode::kUnsolvable,
                  "DenseBackward: not enough equations (P+α < N)");
  }
  Matrix bt(total_cols, n);  // transposed augmented weights
  const Tensor& w = dense.weights();
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < p; ++c) {
      bt.at(c, r) = static_cast<double>(w.at(r, c));
    }
  }
  if (dummy_count > 0) {
    const Tensor dummy = MakeDenseDummyColumns(n, dummy_count, dummy_seed);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < dummy_count; ++c) {
        bt.at(p + c, r) = static_cast<double>(dummy.at(r, c));
      }
    }
  }
  Matrix rhs(total_cols, 1);
  for (std::size_t c = 0; c < p; ++c) rhs.at(c, 0) = y[c];
  for (std::size_t c = 0; c < dummy_count; ++c) {
    rhs.at(p + c, 0) = dummy_outputs[c];
  }
  auto solved = total_cols == n ? SolveLinear(bt, rhs)
                                : SolveLeastSquares(bt, rhs);
  if (!solved.ok()) return solved.status();
  return MatrixToTensor(solved.value().Transposed(), Shape{n});
}

Result<Tensor> DenseSolveParams(const nn::DenseLayer& dense,
                                const Tensor& x_real, const Tensor& y_real,
                                std::size_t dummy_rows, std::uint64_t row_seed,
                                const Tensor& dummy_outputs) {
  const std::size_t n = dense.in_features();
  const std::size_t p = dense.out_features();
  if (x_real.size() != n || y_real.size() != p) {
    return Status(StatusCode::kInvalidArgument,
                  "DenseSolveParams: real pair shape mismatch");
  }
  if (dummy_outputs.size() != dummy_rows * p) {
    return Status(StatusCode::kInvalidArgument,
                  "DenseSolveParams: dummy outputs shape mismatch");
  }
  // With dummy_rows ≥ N the system is complete without the propagated pair;
  // otherwise the canonical golden row leads.
  const bool use_real_pair = dummy_rows < n;
  const std::size_t rows = (use_real_pair ? 1 : 0) + dummy_rows;
  if (rows < n) {
    return Status(StatusCode::kUnsolvable,
                  "DenseSolveParams: not enough equations (M < N)");
  }
  Matrix a(rows, n);
  Matrix rhs(rows, p);
  const std::size_t base = use_real_pair ? 1 : 0;
  if (use_real_pair) {
    for (std::size_t c = 0; c < n; ++c) a.at(0, c) = x_real[c];
    for (std::size_t c = 0; c < p; ++c) rhs.at(0, c) = y_real[c];
  }
  if (dummy_rows > 0) {
    const Tensor dummy = MakeDenseDummyRows(dummy_rows, n, row_seed);
    for (std::size_t r = 0; r < dummy_rows; ++r) {
      for (std::size_t c = 0; c < n; ++c) {
        a.at(base + r, c) = static_cast<double>(dummy.at(r, c));
      }
      for (std::size_t c = 0; c < p; ++c) {
        rhs.at(base + r, c) = static_cast<double>(dummy_outputs[r * p + c]);
      }
    }
  }
  auto solved = rows == n ? SolveLinear(a, rhs) : SolveLeastSquares(a, rhs);
  if (!solved.ok()) return solved.status();
  return MatrixToTensor(solved.value(), Shape{n, p});
}

Result<Tensor> ConvBackward(const nn::Conv2DLayer& conv, const Tensor& y,
                            std::size_t input_extent, std::size_t dummy_count,
                            std::uint64_t dummy_seed,
                            const Tensor& dummy_outputs) {
  const std::size_t g = conv.OutputExtent(input_extent);
  const std::size_t yc = conv.out_channels();
  const std::size_t unknowns = conv.PatchLength();
  if (y.size() != g * g * yc) {
    return Status(StatusCode::kInvalidArgument,
                  "ConvBackward: output shape mismatch");
  }
  const std::size_t total = yc + dummy_count;
  if (total < unknowns) {
    return Status(StatusCode::kUnsolvable,
                  "ConvBackward: not enough equations (Y+α < F²Z)");
  }
  if (dummy_count > 0 && dummy_outputs.size() != g * g * dummy_count) {
    return Status(StatusCode::kInvalidArgument,
                  "ConvBackward: dummy outputs shape mismatch");
  }
  // Per output pixel (i,j): patch·[W | W_d] = [out | out_d] — stack all G²
  // pixels as RHS columns of the transposed system.
  Matrix wt(total, unknowns);
  const Tensor& filters = conv.filters();
  for (std::size_t u = 0; u < unknowns; ++u) {
    for (std::size_t k = 0; k < yc; ++k) {
      wt.at(k, u) = static_cast<double>(filters[u * yc + k]);
    }
  }
  if (dummy_count > 0) {
    const Tensor dummy = MakeConvDummyFilters(conv, dummy_count, dummy_seed);
    for (std::size_t u = 0; u < unknowns; ++u) {
      for (std::size_t k = 0; k < dummy_count; ++k) {
        wt.at(yc + k, u) = static_cast<double>(dummy[u * dummy_count + k]);
      }
    }
  }
  Matrix rhs(total, g * g);
  for (std::size_t pix = 0; pix < g * g; ++pix) {
    for (std::size_t k = 0; k < yc; ++k) {
      rhs.at(k, pix) = static_cast<double>(y[pix * yc + k]);
    }
    for (std::size_t k = 0; k < dummy_count; ++k) {
      rhs.at(yc + k, pix) =
          static_cast<double>(dummy_outputs[pix * dummy_count + k]);
    }
  }
  auto solved = total == unknowns ? SolveLinear(wt, rhs)
                                  : SolveLeastSquares(wt, rhs);
  if (!solved.ok()) return solved.status();
  const Tensor patches =
      MatrixToTensor(solved.value().Transposed(), Shape{g * g, unknowns});
  return conv.ScatterPatchesToInput(patches, input_extent);
}

Result<Tensor> ConvSolveParamsFull(const nn::Conv2DLayer& conv,
                                   const Tensor& x, const Tensor& y) {
  const std::size_t g = conv.OutputExtent(x.shape()[0]);
  const std::size_t unknowns = conv.PatchLength();
  const std::size_t yc = conv.out_channels();
  if (g * g < unknowns) {
    return Status(StatusCode::kUnsolvable,
                  "ConvSolveParamsFull: G² < F²Z (use partial recovery)");
  }
  const Matrix a = TensorToMatrix(conv.BuildPatchMatrix(x), g * g, unknowns);
  const Matrix rhs = TensorToMatrix(y, g * g, yc);
  auto solved = g * g == unknowns ? SolveLinear(a, rhs)
                                  : SolveLeastSquares(a, rhs);
  if (!solved.ok()) return solved.status();
  return MatrixToTensor(
      solved.value(), Shape{conv.filter_size(), conv.filter_size(),
                            conv.in_channels(), conv.out_channels()});
}

Result<Tensor> ConvSolveParamsPartial(
    const nn::Conv2DLayer& conv, const Tensor& x, const Tensor& y,
    const std::vector<std::size_t>& error_indices, PartialSolveStats* stats) {
  const std::size_t g = conv.OutputExtent(x.shape()[0]);
  const std::size_t unknowns = conv.PatchLength();
  const std::size_t yc = conv.out_channels();
  PartialSolveStats local;
  local.suspected_weights = error_indices.size();

  // Group suspects by filter: flat layout is (patch_pos u)*Y + k.
  std::vector<std::vector<std::size_t>> per_filter(yc);
  for (const std::size_t idx : error_indices) {
    if (idx >= conv.filters().size()) {
      return Status(StatusCode::kInvalidArgument,
                    "ConvSolveParamsPartial: error index out of range");
    }
    per_filter[idx % yc].push_back(idx / yc);
  }

  const Matrix patches =
      TensorToMatrix(conv.BuildPatchMatrix(x), g * g, unknowns);
  Tensor repaired = conv.filters();

  std::vector<Status> failures(yc, Status::Ok());
  std::vector<PartialSolveStats> filter_stats(yc);

  ParallelFor(0, yc, [&](std::size_t k) {
    auto& suspects = per_filter[k];
    if (suspects.empty()) return;
    std::sort(suspects.begin(), suspects.end());
    auto& fs = filter_stats[k];
    // Residual: golden output column minus known-weight contributions.
    Matrix rhs(g * g, 1);
    for (std::size_t pix = 0; pix < g * g; ++pix) {
      double acc = static_cast<double>(y[pix * yc + k]);
      const double* prow = patches.row(pix);
      std::size_t next = 0;
      for (std::size_t u = 0; u < unknowns; ++u) {
        if (next < suspects.size() && suspects[next] == u) {
          ++next;  // unknown — excluded from the known contribution
          continue;
        }
        acc -= prow[u] * static_cast<double>(repaired[u * yc + k]);
      }
      rhs.at(pix, 0) = acc;
    }
    Matrix a(g * g, suspects.size());
    for (std::size_t pix = 0; pix < g * g; ++pix) {
      for (std::size_t s = 0; s < suspects.size(); ++s) {
        a.at(pix, s) = patches.at(pix, suspects[s]);
      }
    }
    if (suspects.size() > g * g) ++fs.least_squares_filters;
    auto solved = SolveLeastSquares(a, rhs);
    if (!solved.ok()) {
      ++fs.unsolved_filters;
      failures[k] = solved.status();
      return;
    }
    for (std::size_t s = 0; s < suspects.size(); ++s) {
      repaired[suspects[s] * yc + k] =
          static_cast<float>(solved.value().at(s, 0));
      ++fs.solved_weights;
    }
  }, /*grain=*/1);

  for (const auto& fs : filter_stats) {
    local.solved_weights += fs.solved_weights;
    local.least_squares_filters += fs.least_squares_filters;
    local.unsolved_filters += fs.unsolved_filters;
  }
  if (stats != nullptr) *stats = local;
  return repaired;
}

Result<ConvBiasSolution> ConvBiasSolveJoint(const nn::Conv2DLayer& conv,
                                            const Tensor& x,
                                            const Tensor& y_post_bias) {
  const std::size_t g = conv.OutputExtent(x.shape()[0]);
  const std::size_t unknowns = conv.PatchLength();
  const std::size_t yc = conv.out_channels();
  if (g * g < unknowns + 1) {
    return Status(StatusCode::kUnsolvable,
                  "ConvBiasSolveJoint: G² < F²Z + 1");
  }
  if (y_post_bias.size() != g * g * yc) {
    return Status(StatusCode::kInvalidArgument,
                  "ConvBiasSolveJoint: output shape mismatch");
  }
  // Augmented im2col: the ones column carries the per-filter bias unknown.
  const Tensor patches = conv.BuildPatchMatrix(x);
  Matrix a(g * g, unknowns + 1);
  for (std::size_t pix = 0; pix < g * g; ++pix) {
    for (std::size_t u = 0; u < unknowns; ++u) {
      a.at(pix, u) = static_cast<double>(patches[pix * unknowns + u]);
    }
    a.at(pix, unknowns) = 1.0;
  }
  const Matrix rhs = TensorToMatrix(y_post_bias, g * g, yc);
  auto solved = g * g == unknowns + 1 ? SolveLinear(a, rhs)
                                      : SolveLeastSquares(a, rhs);
  if (!solved.ok()) return solved.status();
  ConvBiasSolution solution;
  solution.filters = Tensor(Shape{conv.filter_size(), conv.filter_size(),
                                  conv.in_channels(), yc});
  solution.bias = Tensor(Shape{yc});
  for (std::size_t u = 0; u < unknowns; ++u) {
    for (std::size_t k = 0; k < yc; ++k) {
      solution.filters[u * yc + k] =
          static_cast<float>(solved.value().at(u, k));
    }
  }
  for (std::size_t k = 0; k < yc; ++k) {
    solution.bias[k] = static_cast<float>(solved.value().at(unknowns, k));
  }
  return solution;
}

Tensor BiasBackward(const nn::BiasLayer& bias, const Tensor& y) {
  Tensor x = y;
  const std::size_t channels = bias.channels();
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] -= bias.bias()[i % channels];
  }
  return x;
}

Tensor BiasSolveParams(const Tensor& x, const Tensor& y,
                       std::size_t channels) {
  if (x.size() != y.size() || x.size() < channels) {
    throw std::invalid_argument("BiasSolveParams: shape mismatch");
  }
  // Every position (pos % channels == c) holds x+b[c]; the first occurrence
  // suffices — the "cleaning" step of Section IV-E.
  Tensor b(Shape{channels});
  for (std::size_t c = 0; c < channels; ++c) b[c] = y[c] - x[c];
  return b;
}

}  // namespace milr::core
