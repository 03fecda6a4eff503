// Sparse subspace clustering self-expression via ADMM (Elhamifar & Vidal,
// ref [9] of the paper; ADMM per Boyd et al., ref [50]).
//
// Solves the Lasso program (Eq. 2 of the paper) for all points at once:
//
//   min_C  ||C||_1 + lambda/2 ||X - X C||_F^2   s.t.  diag(C) = 0
//
// with lambda = alpha / mu, mu = min_i max_{j != i} |x_j^T x_i| (Proposition
// 1 of Elhamifar-Vidal; the paper uses alpha = 50). The Z-update's constant
// part P = H^{-1} lambda X^T X, H = lambda X^T X + rho I, is formed once, so
// an iteration is Z = P + rho H^{-1} (C - U) plus the C and U updates.
// rho H^{-1} is applied either as an N x N matrix (one product, 2 N^3
// flops) or through the Woodbury identity (two products, 4 n N^2),
// whichever costs fewer flops: Woodbury exactly when 2n < N.
//
// Each iteration is one fused step (FusedGemm, linalg/gemm_kernel.h): the
// operator is packed once per solve in the GEMM tier's A-panel layout, and
// for each column panel of V = C - U the step packs the panel, runs the
// micro-kernel over all rows, and applies the Z/C/U update and the
// stopping-rule maxima to those columns while they are in cache. Its
// determinism contract: each product element sums exactly as Gemm would
// on that shape, so the iterates are bit-identical to one Gemm plus one
// update pass per iteration on blocked-engine shapes and, for finite
// operators, on the direct path's panel-engine shapes (N <= 31) of
// FMA-contracted builds; column panels and maxima are fixed per column, so
// results are bit-identical for every thread count.

#ifndef FEDSC_SC_SSC_ADMM_H_
#define FEDSC_SC_SSC_ADMM_H_

#include "common/result.h"
#include "linalg/matrix.h"
#include "linalg/sparse.h"
#include "sc/sketch.h"

namespace fedsc {

struct SscAdmmOptions {
  // lambda = alpha / mu. Must be > 1 for the Lasso solution to be nonzero.
  double alpha = 50.0;
  // Adds the affine constraint 1^T c_i = 1, for data on a union of *affine*
  // subspaces (Elhamifar-Vidal Section 4.1; e.g. motion trajectories). The
  // constraint enters the ADMM as a penalty rho/2 ||1^T C - 1^T||^2 with its
  // own dual variable, and the augmented system is inverted with a
  // Sherman-Morrison rank-1 update on top of the usual operator.
  bool affine = false;
  // ADMM penalty parameter; <= 0 picks rho = alpha (Elhamifar-Vidal's
  // reference implementation default).
  double rho = -1.0;
  int max_iterations = 200;
  // Stop when max(||Z - C||_inf, ||C - C_prev||_inf) < tol.
  double tol = 2e-4;
  // Sparsification of the returned coefficients (see SparsifyCoefficients).
  int64_t top_k = 0;
  double drop_tol = 1e-6;
  // Wall-clock budget; > 0 aborts with DeadlineExceeded when the solve
  // overruns it (the paper's Table III enforces a 1-day cut-off on
  // centralized SSC the same way).
  double deadline_seconds = 0.0;
  // Workers for the matrix-form updates: the Gram GEMMs and the fused
  // Z-update step partition their output column panels, and the final
  // sparsification fans out per column — all bit-identical for every thread
  // count.
  int num_threads = 1;
};

// How a solve went, for callers that want to report or assert on convergence
// (the iteration count and residual also feed the sc.ssc_admm.* metrics).
struct SscAdmmInfo {
  int iterations = 0;        // ADMM iterations actually run
  double final_residual = 0.0;  // max(||Z-C||_inf, ||C-C_prev||_inf) at exit
  bool converged = false;    // residual dropped below tol within the budget
};

// Sparse self-expression matrix C for the columns of x (which should be
// l2-normalized). Requires N >= 2. `info`, when non-null, receives the
// solve's convergence record.
Result<SparseMatrix> SscSelfExpression(const Matrix& x,
                                       const SscAdmmOptions& options = {},
                                       SscAdmmInfo* info = nullptr);

// Sketched variant (Traganitis-Giannakis): solves the same Lasso with the
// d-column dictionary B = sketch.dictionary in place of X,
//
//   min_C ||C||_1 + lambda/2 ||X - B C||_F^2,   C in R^{d x N},
//
// so the Z-update inverts one d x d operator shared by every column and the
// per-iteration cost is 2 d^2 N flops instead of min(2 N^3, 4 n N^2). The
// operator is packed once per solve; each column block's constant term is
// formed once and its iterations run the same fused step as
// SscSelfExpression. The Lasso
// separates per column, so columns are processed in fixed-size blocks (a
// pure function of N, never of the thread count) with block-local stopping;
// results are bit-identical for every thread count. For landmark sketches a
// landmark column's own atom is pinned to zero (the diag(C) = 0 analogue).
// The affine mode is not supported on this path. Returns the d x N
// coefficient matrix.
Result<SparseMatrix> SscSketchedSelfExpression(
    const Matrix& x, const SketchResult& sketch,
    const SscAdmmOptions& options = {}, SscAdmmInfo* info = nullptr);

// Whether SscSelfExpression applies its Z-update operator through the
// Woodbury form (two GEMMs, 4 n N^2 flops per iteration) rather than the
// direct N x N inverse (one GEMM, 2 N^3): true exactly when 2n < N.
bool SscAdmmUsesWoodbury(int64_t dim, int64_t num_points);

// The lambda the solver would use for `x` (exposed for tests/diagnostics).
// Builds the Gram with `num_threads` workers via the Syrk hot path.
double SscLambda(const Matrix& x, double alpha, int num_threads = 1);

// Same, from a Gram the caller already has (e.g. the one SscSelfExpression
// builds anyway) so the X^T X product is never paid twice.
double SscLambdaFromGram(const Matrix& gram, double alpha,
                         int num_threads = 1);

}  // namespace fedsc

#endif  // FEDSC_SC_SSC_ADMM_H_
