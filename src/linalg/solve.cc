#include "linalg/solve.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>
#include <stdexcept>

#include "support/parallel.h"

namespace milr {
namespace {

// Relative threshold under which a pivot / diagonal entry is treated as zero.
constexpr double kSingularRel = 1e-12;

// Columns one ParallelFor task owns while a reflector is applied. A block of
// a 1024-row system is 256 KiB, so the second pass over it hits cache.
constexpr std::size_t kReflectorColumnBlock = 32;

/// Applies H = I − τ·v·vᵀ to rows [k, k + v.size()) and columns
/// [first_col, cols) of `a`, where v[0] = 1 sits on row k. Streams rows:
/// the first pass accumulates w = vᵀ·A one row at a time, the second
/// subtracts τ·v·wᵀ one row at a time, so every inner loop runs along a
/// contiguous row segment. Each column's sum runs over rows in ascending
/// order, so the result does not depend on the block split.
void ApplyReflectorToColumns(std::span<const double> v, double tau,
                             std::size_t k, std::size_t first_col,
                             Matrix& a) {
  const std::size_t cols = a.cols();
  const std::size_t blocks =
      (cols - first_col + kReflectorColumnBlock - 1) / kReflectorColumnBlock;
  ParallelFor(0, blocks, [&a, v, tau, k, first_col, cols](std::size_t b) {
    const std::size_t c0 = first_col + b * kReflectorColumnBlock;
    const std::size_t width = std::min(cols, c0 + kReflectorColumnBlock) - c0;
    double* top = a.row(k) + c0;
    std::vector<double> w(top, top + width);
    for (std::size_t i = 1; i < v.size(); ++i) {
      const double vi = v[i];
      const double* row = a.row(k + i) + c0;
      for (std::size_t c = 0; c < width; ++c) w[c] += vi * row[c];
    }
    for (std::size_t c = 0; c < width; ++c) {
      w[c] *= tau;
      top[c] -= w[c];
    }
    for (std::size_t i = 1; i < v.size(); ++i) {
      const double vi = v[i];
      double* row = a.row(k + i) + c0;
      for (std::size_t c = 0; c < width; ++c) row[c] -= w[c] * vi;
    }
  });
}

}  // namespace

Result<LuFactorization> LuFactorization::Compute(const Matrix& a) {
  if (a.rows() != a.cols()) {
    return Status(StatusCode::kInvalidArgument,
                  "LU requires a square matrix, got " + a.ShapeString());
  }
  const std::size_t n = a.rows();
  LuFactorization f;
  f.lu_ = a;
  f.perm_.resize(n);
  std::iota(f.perm_.begin(), f.perm_.end(), std::size_t{0});

  double max_abs = 0.0;
  for (const double v : a.flat()) max_abs = std::max(max_abs, std::abs(v));
  const double tiny = std::max(max_abs, 1.0) * kSingularRel;

  Matrix& lu = f.lu_;
  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivoting: pick the largest magnitude entry in column k.
    std::size_t pivot = k;
    double pivot_abs = std::abs(lu.at(k, k));
    for (std::size_t r = k + 1; r < n; ++r) {
      const double v = std::abs(lu.at(r, k));
      if (v > pivot_abs) {
        pivot_abs = v;
        pivot = r;
      }
    }
    if (pivot_abs <= tiny) {
      return Status(StatusCode::kUnsolvable,
                    "LU: singular at column " + std::to_string(k));
    }
    if (pivot != k) {
      for (std::size_t c = 0; c < n; ++c) {
        std::swap(lu.at(k, c), lu.at(pivot, c));
      }
      std::swap(f.perm_[k], f.perm_[pivot]);
    }
    const double pivot_val = lu.at(k, k);
    const double* krow = lu.row(k);
    // Trailing update is the O(n³) hot loop; parallelize across rows.
    ParallelFor(k + 1, n, [&lu, krow, pivot_val, k, n](std::size_t r) {
      double* rrow = lu.row(r);
      const double factor = rrow[k] / pivot_val;
      rrow[k] = factor;
      if (factor == 0.0) return;
      for (std::size_t c = k + 1; c < n; ++c) rrow[c] -= factor * krow[c];
    }, /*grain=*/16);
  }
  return f;
}

Matrix LuFactorization::Solve(const Matrix& rhs) const {
  const std::size_t n = lu_.rows();
  if (rhs.rows() != n) {
    throw std::invalid_argument("LU solve: rhs rows " + rhs.ShapeString() +
                                " != n=" + std::to_string(n));
  }
  const std::size_t k = rhs.cols();
  Matrix x(n, k);
  // Apply permutation.
  for (std::size_t r = 0; r < n; ++r) {
    const double* src = rhs.row(perm_[r]);
    double* dst = x.row(r);
    for (std::size_t c = 0; c < k; ++c) dst[c] = src[c];
  }
  // Forward substitution (L, unit diagonal). Columns are independent, rows
  // are not; iterate rows outer, vectorize across RHS columns.
  for (std::size_t r = 1; r < n; ++r) {
    double* xr = x.row(r);
    const double* lr = lu_.row(r);
    for (std::size_t j = 0; j < r; ++j) {
      const double l = lr[j];
      if (l == 0.0) continue;
      const double* xj = x.row(j);
      for (std::size_t c = 0; c < k; ++c) xr[c] -= l * xj[c];
    }
  }
  // Back substitution (U).
  for (std::size_t ri = n; ri-- > 0;) {
    double* xr = x.row(ri);
    const double* ur = lu_.row(ri);
    for (std::size_t j = ri + 1; j < n; ++j) {
      const double u = ur[j];
      if (u == 0.0) continue;
      const double* xj = x.row(j);
      for (std::size_t c = 0; c < k; ++c) xr[c] -= u * xj[c];
    }
    const double diag = ur[ri];
    for (std::size_t c = 0; c < k; ++c) xr[c] /= diag;
  }
  return x;
}

Result<QrFactorization> QrFactorization::Compute(const Matrix& a) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  if (m < n) {
    return Status(StatusCode::kInvalidArgument,
                  "QR requires rows >= cols, got " + a.ShapeString());
  }
  QrFactorization f;
  f.qr_ = a;
  f.tau_.assign(n, 0.0);
  Matrix& qr = f.qr_;

  double max_abs = 0.0;
  for (const double v : a.flat()) max_abs = std::max(max_abs, std::abs(v));
  const double tiny = std::max(max_abs, 1.0) * kSingularRel;

  std::vector<double> v;
  for (std::size_t k = 0; k < n; ++k) {
    // Build the Householder reflector for column k in a contiguous copy.
    v.resize(m - k);
    double norm_sq = 0.0;
    for (std::size_t i = 0; i < v.size(); ++i) {
      v[i] = qr.at(k + i, k);
      norm_sq += v[i] * v[i];
    }
    const double norm = std::sqrt(norm_sq);
    if (norm <= tiny) {
      return Status(StatusCode::kUnsolvable,
                    "QR: rank deficient at column " + std::to_string(k));
    }
    const double alpha = v[0] >= 0 ? -norm : norm;
    const double v0 = v[0] - alpha;
    // Normalize so the reflector's leading element is 1 (stored implicitly).
    v[0] = 1.0;
    for (std::size_t i = 1; i < v.size(); ++i) {
      v[i] /= v0;
      qr.at(k + i, k) = v[i];
    }
    f.tau_[k] = -v0 / alpha;  // equals 2 / (vᵀv) with v0-scaling
    qr.at(k, k) = alpha;
    ApplyReflectorToColumns(v, f.tau_[k], k, k + 1, qr);
  }
  return f;
}

Matrix QrFactorization::SolveLeastSquares(const Matrix& rhs) const {
  const std::size_t m = qr_.rows();
  const std::size_t n = qr_.cols();
  if (rhs.rows() != m) {
    throw std::invalid_argument("QR solve: rhs rows mismatch");
  }
  const std::size_t k = rhs.cols();
  Matrix y = rhs;
  // y := Qᵀ·y, one reflector at a time.
  std::vector<double> v;
  for (std::size_t j = 0; j < n; ++j) {
    v.resize(m - j);
    v[0] = 1.0;
    for (std::size_t i = 1; i < v.size(); ++i) v[i] = qr_.at(j + i, j);
    ApplyReflectorToColumns(v, tau_[j], j, 0, y);
  }
  // Back substitution on R (top n rows of y).
  Matrix x(n, k);
  for (std::size_t ri = n; ri-- > 0;) {
    double* xr = x.row(ri);
    const double* yr = y.row(ri);
    for (std::size_t c = 0; c < k; ++c) xr[c] = yr[c];
    for (std::size_t j = ri + 1; j < n; ++j) {
      const double u = qr_.at(ri, j);
      if (u == 0.0) continue;
      const double* xj = x.row(j);
      for (std::size_t c = 0; c < k; ++c) xr[c] -= u * xj[c];
    }
    const double diag = qr_.at(ri, ri);
    for (std::size_t c = 0; c < k; ++c) xr[c] /= diag;
  }
  return x;
}

Result<Matrix> SolveLinear(const Matrix& a, const Matrix& b) {
  auto lu = LuFactorization::Compute(a);
  if (!lu.ok()) return lu.status();
  return lu.value().Solve(b);
}

Result<Matrix> SolveLinearRight(const Matrix& a, const Matrix& b) {
  // X·A = B  ⇔  Aᵀ·Xᵀ = Bᵀ.
  auto xt = SolveLinear(a.Transposed(), b.Transposed());
  if (!xt.ok()) return xt.status();
  return xt.value().Transposed();
}

Result<Matrix> SolveLeastSquares(const Matrix& a, const Matrix& b) {
  if (a.rows() >= a.cols()) {
    auto qr = QrFactorization::Compute(a);
    if (!qr.ok()) return qr.status();
    return qr.value().SolveLeastSquares(b);
  }
  // Underdetermined: minimum-norm solution x = Aᵀ·(A·Aᵀ)⁻¹·b.
  const Matrix at = a.Transposed();
  auto inner = SolveLinear(MatMul(a, at), b);
  if (!inner.ok()) {
    return Status(StatusCode::kUnsolvable,
                  "least squares: underdetermined system is rank deficient (" +
                      a.ShapeString() + ")");
  }
  return MatMul(at, inner.value());
}

Result<Matrix> Invert(const Matrix& a) {
  auto lu = LuFactorization::Compute(a);
  if (!lu.ok()) return lu.status();
  return lu.value().Solve(Matrix::Identity(a.rows()));
}

}  // namespace milr
