// Linear system solvers backing MILR's backward passes and parameter
// recovery functions (Equations 2 and 3 of the paper).
//
// Three regimes appear in MILR:
//  * square well-posed systems  — dense-layer backward/solving with exactly
//    as many PRNG equations as unknowns → LU with partial pivoting;
//  * overdetermined systems     — conv-layer filter solving where G² > F²Z
//    equations cover F²Z unknowns → Householder-QR least squares;
//  * underdetermined systems    — whole-layer corruption of a
//    partially-recoverable conv (more unknowns than equations) → minimum-norm
//    least-squares attempt, mirroring the paper's "least-square solution"
//    fallback for Tables IV/VI/VIII.
//
// Factorizations are exposed as objects so one factorization can solve many
// right-hand sides (every conv filter shares the same patch matrix).
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.h"
#include "support/status.h"

namespace milr {

/// LU factorization with partial pivoting of a square matrix.
class LuFactorization {
 public:
  /// Factors `a`; kUnsolvable if `a` is (numerically) singular.
  static Result<LuFactorization> Compute(const Matrix& a);

  /// Solves A·X = B for X; B must have rows() == n.
  Matrix Solve(const Matrix& rhs) const;

  std::size_t n() const { return lu_.rows(); }

 private:
  LuFactorization() = default;
  Matrix lu_;                      // packed L (unit diag) and U
  std::vector<std::size_t> perm_;  // row permutation
};

/// Householder QR of an m×n matrix with m ≥ n (economy form).
///
/// Matrices are row-major, so each reflector H = I − τ·v·vᵀ is applied by
/// streaming rows, never by walking down a column: v is copied into a
/// contiguous vector, w = vᵀ·A is accumulated one row at a time, and τ·v·wᵀ
/// is subtracted one row at a time. ParallelFor splits the columns the
/// reflector touches into contiguous blocks, one task per block, and each
/// column's sum runs over the rows in ascending order, so the factors do
/// not depend on the thread count. Compute applies each reflector to the
/// trailing columns; SolveLeastSquares applies them all to the right-hand
/// sides.
class QrFactorization {
 public:
  /// Factors `a` (m ≥ n required); kUnsolvable if rank-deficient.
  static Result<QrFactorization> Compute(const Matrix& a);

  /// Least-squares solution X (n×k) minimizing ‖A·X − B‖ for B (m×k).
  Matrix SolveLeastSquares(const Matrix& rhs) const;

  std::size_t rows() const { return qr_.rows(); }
  std::size_t cols() const { return qr_.cols(); }

 private:
  QrFactorization() = default;
  Matrix qr_;                // R in upper triangle, reflectors below
  std::vector<double> tau_;  // reflector scales
};

/// Solves square A·X = B. kUnsolvable on singular A.
Result<Matrix> SolveLinear(const Matrix& a, const Matrix& b);

/// Solves X·A = B (right division) via the transposed system.
Result<Matrix> SolveLinearRight(const Matrix& a, const Matrix& b);

/// Least squares for any shape of A:
///  m ≥ n → QR minimizer; m < n → minimum-norm solution of the
/// underdetermined system (via QR of Aᵀ). kUnsolvable on rank deficiency.
Result<Matrix> SolveLeastSquares(const Matrix& a, const Matrix& b);

/// Matrix inverse via LU. kUnsolvable on singular input.
Result<Matrix> Invert(const Matrix& a);

}  // namespace milr
