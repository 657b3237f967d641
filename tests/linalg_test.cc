#include <gtest/gtest.h>

#include "linalg/matrix.h"
#include "linalg/solve.h"
#include "support/prng.h"

namespace milr {
namespace {

Matrix RandomMatrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Prng prng(seed);
  Matrix m(rows, cols);
  for (auto& v : m.flat()) v = prng.NextDouble() * 2.0 - 1.0;
  return m;
}

TEST(MatrixTest, IdentityAndMultiply) {
  const Matrix identity = Matrix::Identity(4);
  const Matrix a = RandomMatrix(4, 4, 1);
  EXPECT_LT(MaxAbsDiff(MatMul(a, identity), a), 1e-15);
  EXPECT_LT(MaxAbsDiff(MatMul(identity, a), a), 1e-15);
}

TEST(MatrixTest, MultiplyShapeMismatchThrows) {
  EXPECT_THROW(MatMul(Matrix(2, 3), Matrix(2, 3)), std::invalid_argument);
}

TEST(MatrixTest, TransposeInvolution) {
  const Matrix a = RandomMatrix(3, 5, 2);
  EXPECT_LT(MaxAbsDiff(a.Transposed().Transposed(), a), 1e-16);
}

TEST(MatrixTest, KnownProduct) {
  Matrix a(2, 2, {1, 2, 3, 4});
  Matrix b(2, 2, {5, 6, 7, 8});
  const Matrix c = MatMul(a, b);
  EXPECT_DOUBLE_EQ(c.at(0, 0), 19);
  EXPECT_DOUBLE_EQ(c.at(0, 1), 22);
  EXPECT_DOUBLE_EQ(c.at(1, 0), 43);
  EXPECT_DOUBLE_EQ(c.at(1, 1), 50);
}

class SolveSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SolveSizes, LuSolveRecoversX) {
  const std::size_t n = GetParam();
  const Matrix a = RandomMatrix(n, n, n);
  const Matrix x = RandomMatrix(n, 3, n + 1);
  const Matrix b = MatMul(a, x);
  auto solved = SolveLinear(a, b);
  ASSERT_TRUE(solved.ok()) << solved.status().ToString();
  EXPECT_LT(MaxAbsDiff(solved.value(), x), 1e-8);
}

TEST_P(SolveSizes, InvertTimesSelfIsIdentity) {
  const std::size_t n = GetParam();
  const Matrix a = RandomMatrix(n, n, 100 + n);
  auto inv = Invert(a);
  ASSERT_TRUE(inv.ok());
  EXPECT_LT(MaxAbsDiff(MatMul(a, inv.value()), Matrix::Identity(n)), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SolveSizes,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 33, 64, 128));

TEST(SolveTest, SingularMatrixReported) {
  Matrix a(2, 2, {1, 2, 2, 4});  // rank 1
  auto solved = SolveLinear(a, Matrix::Identity(2));
  ASSERT_FALSE(solved.ok());
  EXPECT_EQ(solved.status().code(), StatusCode::kUnsolvable);
}

TEST(SolveTest, NonSquareLuRejected) {
  auto solved = SolveLinear(Matrix(2, 3), Matrix(2, 1));
  ASSERT_FALSE(solved.ok());
  EXPECT_EQ(solved.status().code(), StatusCode::kInvalidArgument);
}

TEST(SolveTest, PivotingHandlesZeroDiagonal) {
  Matrix a(2, 2, {0, 1, 1, 0});
  Matrix b(2, 1, {3, 4});
  auto solved = SolveLinear(a, b);
  ASSERT_TRUE(solved.ok());
  EXPECT_DOUBLE_EQ(solved.value().at(0, 0), 4);
  EXPECT_DOUBLE_EQ(solved.value().at(1, 0), 3);
}

TEST(SolveTest, RightSolve) {
  const Matrix a = RandomMatrix(4, 4, 9);
  const Matrix x = RandomMatrix(2, 4, 10);
  const Matrix b = MatMul(x, a);
  auto solved = SolveLinearRight(a, b);
  ASSERT_TRUE(solved.ok());
  EXPECT_LT(MaxAbsDiff(solved.value(), x), 1e-9);
}

/// Rows, columns and right-hand sides of a consistent overdetermined system.
struct LsShape {
  std::size_t m, n, k;
};
/// cifar_small's second-conv full solve: 1024 output pixels, 288 unknowns
/// per filter, 32 filters.
constexpr LsShape kConvSolve{1024, 288, 32};

TEST(LeastSquaresTest, OverdeterminedExactSystem) {
  // A(m,n)·x = b with consistent b: LS solution equals the exact one.
  for (const LsShape& s : {LsShape{20, 5, 2}, kConvSolve}) {
    SCOPED_TRACE(std::to_string(s.m) + "x" + std::to_string(s.n));
    const Matrix a = RandomMatrix(s.m, s.n, 21);
    const Matrix x = RandomMatrix(s.n, s.k, 22);
    const Matrix b = MatMul(a, x);
    auto solved = SolveLeastSquares(a, b);
    ASSERT_TRUE(solved.ok());
    EXPECT_LT(MaxAbsDiff(solved.value(), x), 1e-9);
  }
}

TEST(LeastSquaresTest, MinimizesResidual) {
  // Inconsistent system: solution must satisfy the normal equations
  // Aᵀ(Ax − b) = 0.
  const Matrix a = RandomMatrix(10, 3, 31);
  const Matrix b = RandomMatrix(10, 1, 32);
  auto solved = SolveLeastSquares(a, b);
  ASSERT_TRUE(solved.ok());
  Matrix residual = MatMul(a, solved.value());
  for (std::size_t i = 0; i < residual.rows(); ++i) {
    residual.at(i, 0) -= b.at(i, 0);
  }
  const Matrix gradient = MatMul(a.Transposed(), residual);
  for (std::size_t i = 0; i < gradient.rows(); ++i) {
    EXPECT_NEAR(gradient.at(i, 0), 0.0, 1e-9);
  }
}

TEST(LeastSquaresTest, UnderdeterminedMinNorm) {
  // A(3,8): solution must satisfy A·x = b and lie in the row space.
  const Matrix a = RandomMatrix(3, 8, 41);
  const Matrix b = RandomMatrix(3, 1, 42);
  auto solved = SolveLeastSquares(a, b);
  ASSERT_TRUE(solved.ok());
  EXPECT_LT(MaxAbsDiff(MatMul(a, solved.value()), b), 1e-9);
}

TEST(LeastSquaresTest, RankDeficientReported) {
  Matrix a(4, 2);
  for (std::size_t r = 0; r < 4; ++r) {
    a.at(r, 0) = 1.0;
    a.at(r, 1) = 2.0;  // column 2 = 2 × column 1
  }
  auto solved = SolveLeastSquares(a, Matrix(4, 1));
  EXPECT_FALSE(solved.ok());
}

TEST(QrFactorizationTest, ReusableAcrossRhs) {
  for (const LsShape& s : {LsShape{12, 4, 1}, kConvSolve}) {
    SCOPED_TRACE(std::to_string(s.m) + "x" + std::to_string(s.n));
    const Matrix a = RandomMatrix(s.m, s.n, 51);
    auto qr = QrFactorization::Compute(a);
    ASSERT_TRUE(qr.ok());
    for (std::uint64_t seed = 0; seed < 3; ++seed) {
      const Matrix x = RandomMatrix(s.n, s.k, 60 + seed);
      const Matrix b = MatMul(a, x);
      EXPECT_LT(MaxAbsDiff(qr.value().SolveLeastSquares(b), x), 1e-9);
    }
  }
}

TEST(LuFactorizationTest, ReusableAcrossRhs) {
  const Matrix a = RandomMatrix(6, 6, 71);
  auto lu = LuFactorization::Compute(a);
  ASSERT_TRUE(lu.ok());
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const Matrix x = RandomMatrix(6, 2, 80 + seed);
    const Matrix b = MatMul(a, x);
    EXPECT_LT(MaxAbsDiff(lu.value().Solve(b), x), 1e-8);
  }
}

}  // namespace
}  // namespace milr
