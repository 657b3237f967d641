// MILR layer algebra: the concrete f⁻¹(y,p)=x and R(x,y)=p functions of
// equations 2-3 of the paper, per layer type (Section IV).
//
// All solving happens in double precision and is rounded back to float32 at
// the very end; for well-conditioned systems the recovered weights are
// bit-identical to the originals, and tests assert exactly that.
#pragma once

#include <cstdint>
#include <vector>

#include "linalg/matrix.h"
#include "linalg/solve.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/layer.h"
#include "support/status.h"

namespace milr::core {

// ---------------------------------------------------------------- helpers

/// Promotes a float tensor (viewed as rows×cols row-major) to double.
Matrix TensorToMatrix(const Tensor& t, std::size_t rows, std::size_t cols);

/// Rounds a double matrix back to a float tensor of the given shape.
Tensor MatrixToTensor(const Matrix& m, Shape shape);

/// PRNG dummy parameter columns for dense backward: shape (N, alpha).
Tensor MakeDenseDummyColumns(std::size_t n, std::size_t alpha,
                             std::uint64_t seed);

/// Seed-regenerable dummy input rows for dense solving: shape (rows, N).
///
/// The rows are NOT raw uniforms: at N in the thousands a uniform random
/// square system has condition number ~1e4-1e5, which amplifies the float32
/// rounding of the stored golden outputs into weight errors large enough to
/// hurt accuracy (the paper's §V-A "large systems of equations" caveat). We
/// instead use rows of a DCT-II orthonormal basis with PRNG-seeded column
/// sign flips — equally regenerable from the seed alone, but orthonormal,
/// so the system they form with the one real row stays well conditioned
/// and its LU solve is exact to float rounding.
Tensor MakeDenseDummyRows(std::size_t rows, std::size_t n, std::uint64_t seed);

/// PRNG dummy filters for conv backward: shape (F,F,Z,alpha).
Tensor MakeConvDummyFilters(const nn::Conv2DLayer& conv, std::size_t alpha,
                            std::uint64_t seed);

// ------------------------------------------------------------------ dense

/// Backward pass (f⁻¹): recovers the rank-1 input x (N) from output y (P).
/// When P < N, `dummy_count` PRNG parameter columns (from `dummy_seed`) and
/// their stored golden outputs `dummy_outputs` (one per column) complete the
/// system (Section IV-A a).
Result<Tensor> DenseBackward(const nn::DenseLayer& dense, const Tensor& y,
                             std::size_t dummy_count, std::uint64_t dummy_seed,
                             std::span<const float> dummy_outputs);

/// Parameter solving (R): recovers W (N,P) from the canonical golden pair
/// (x_real, y_real) plus `dummy_rows` PRNG input rows whose golden outputs
/// were stored at init (Section IV-A b). With dummy_rows ≥ N the real pair
/// is not used.
Result<Tensor> DenseSolveParams(const nn::DenseLayer& dense,
                                const Tensor& x_real, const Tensor& y_real,
                                std::size_t dummy_rows, std::uint64_t row_seed,
                                const Tensor& dummy_outputs);

// ------------------------------------------------------------------- conv

/// Backward pass: recovers the (M,M,Z) input from the (G,G,Y) output. When
/// Y < F²Z, `dummy_count` PRNG filters and their stored outputs
/// (G²×dummy_count) complete the per-patch systems (Section IV-B a).
Result<Tensor> ConvBackward(const nn::Conv2DLayer& conv, const Tensor& y,
                            std::size_t input_extent, std::size_t dummy_count,
                            std::uint64_t dummy_seed,
                            const Tensor& dummy_outputs);

/// Full parameter solving: recovers all filters from a golden (x, y) pair;
/// requires G² ≥ F²Z (Section IV-B b).
Result<Tensor> ConvSolveParamsFull(const nn::Conv2DLayer& conv,
                                   const Tensor& x, const Tensor& y);

struct PartialSolveStats {
  std::size_t suspected_weights = 0;  // CRC-flagged unknowns
  std::size_t solved_weights = 0;     // written back from exact systems
  std::size_t least_squares_filters = 0;  // underdetermined filters attempted
  std::size_t unsolved_filters = 0;       // rank-deficient beyond help
};

/// Partial recoverability: re-solves only the weights listed in
/// `error_indices` (flat indices into the (F,F,Z,Y) filter tensor, e.g.
/// from 2-D CRC localization). Filters with more than G² suspects fall back
/// to a minimum-norm least-squares attempt, as the paper does for
/// whole-layer corruption. Returns the repaired filter tensor.
Result<Tensor> ConvSolveParamsPartial(const nn::Conv2DLayer& conv,
                                      const Tensor& x, const Tensor& y,
                                      const std::vector<std::size_t>& error_indices,
                                      PartialSolveStats* stats);

/// Joint conv+bias parameter solving (extension; see
/// MilrConfig::joint_conv_bias): given the conv input `x` and the golden
/// output *after* the bias `y_post_bias`, recovers filters and bias in one
/// system per filter — [Patches | 1]·[W_k; b_k] = y[:,k]. Requires
/// G² ≥ F²Z + 1.
struct ConvBiasSolution {
  Tensor filters;  // (F,F,Z,Y)
  Tensor bias;     // (Y)
};
Result<ConvBiasSolution> ConvBiasSolveJoint(const nn::Conv2DLayer& conv,
                                            const Tensor& x,
                                            const Tensor& y_post_bias);

// ------------------------------------------------------------------- bias

/// Backward pass: x = y − b (equation 5 rearranged).
Tensor BiasBackward(const nn::BiasLayer& bias, const Tensor& y);

/// Parameter solving: b = y − x, de-duplicated to one value per channel.
Tensor BiasSolveParams(const Tensor& x, const Tensor& y, std::size_t channels);

}  // namespace milr::core
