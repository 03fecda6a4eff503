#include "sc/ssc_admm.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "linalg/blas.h"
#include "linalg/cholesky.h"
#include "linalg/gemm_kernel.h"
#include "sc/affinity.h"

namespace fedsc {

namespace {

// mu = min_i max_{j != i} |x_j^T x_i|, from the Gram matrix. Column panels
// reduce to a per-chunk min-of-max, combined in chunk order below — min and
// max are exact in any order (the same reduction shape as the ADMM stopping
// rule), so the result is bit-identical for every thread count.
double MutualCoherenceFloor(const Matrix& gram, int num_threads) {
  const int64_t n = gram.rows();
  const int chunks =
      std::max(1, ParallelChunkCount(0, n, num_threads));
  std::vector<double> chunk_mu(static_cast<size_t>(chunks),
                               std::numeric_limits<double>::infinity());
  ParallelForRanges(0, n, num_threads,
                    [&](int64_t i0, int64_t i1, int chunk) {
                      double mu = std::numeric_limits<double>::infinity();
                      for (int64_t i = i0; i < i1; ++i) {
                        double max_abs = 0.0;
                        const double* col = gram.ColData(i);
                        for (int64_t j = 0; j < n; ++j) {
                          if (j != i) {
                            max_abs = std::max(max_abs, std::fabs(col[j]));
                          }
                        }
                        mu = std::min(mu, max_abs);
                      }
                      chunk_mu[static_cast<size_t>(chunk)] = mu;
                    });
  double mu = std::numeric_limits<double>::infinity();
  for (double v : chunk_mu) mu = std::min(mu, v);
  return mu;
}

// The SYRK-backed Gram costs nn*(nn+1)*kk flops (half the GEMM's
// 2*nn*kk*nn); recorded so --metrics-out makes the win visible.
void RecordGramFlops(int64_t nn, int64_t kk) {
  FEDSC_METRIC_COUNTER("sc.ssc_admm.gram_flops").Add(nn * (nn + 1) * kk);
}

// Matrix-form ADMM for the self-expression Lasso in scaled dual form (Boyd
// et al. 2011, §3.4), shared by the exact and the sketched solver. With H
// the Z-update operator and P = H^{-1} (constant right-hand side) hoisted
// out of the loop, one iteration is
//   Z = P + rho H^{-1} (C - U),
//   C = soft-threshold(Z + U, 1/rho), one pinned zero per column,
//   U = U + Z - C.
// Each iteration is one FusedGemm over V = C - U with the operator packed
// once per solve: per column panel, the product r = op(V) lands in a
// cache-resident buffer and the FusedUpdate epilogue forms Z from it and
// writes the next C, U and V for those columns.
struct AdmmState {
  // Starts from C = U = 0.
  explicit AdmmState(Matrix constant_term)
      : p(std::move(constant_term)),
        c(p.rows(), p.cols()),
        u(p.rows(), p.cols()),
        v(p.rows(), p.cols()) {}
  Matrix p;  // H^{-1} (constant right-hand side)
  Matrix c;
  Matrix u;
  Matrix v;  // C - U, the operator's next input; rho H^{-1} V = r + v_coef V
};

// Affine mode: the rho 1 1^T penalty's Sherman-Morrison term,
//   Z_j -= scale * (1^T Q_j + dual_j) * h_ones,   Q = rho H^{-1} V.
struct AffineTerms {
  Vector h_ones;       // rho H^{-1} 1
  double scale = 0.0;  // 1 / (1 + 1^T rho H^{-1} 1)
  Vector dual;         // scaled dual of 1^T Z = 1^T, one entry per column
};

// Independent accumulators for the stopping-rule maxima: they break the
// loop-carried max chain, so UpdateColumn vectorizes. Max is exact in any
// order, so the residual does not depend on the lane count.
constexpr int kLanes = 8;

// Cache-line aligned, so the per-chunk slots of concurrent column chunks
// never share a line.
struct alignas(64) PassMaxima {
  double dc[kLanes] = {};  // max |C_next - C|
  double zc[kLanes] = {};  // max |Z - C_next|

  double Residual() const {
    double residual = 0.0;
    for (int k = 0; k < kLanes; ++k) {
      residual = std::max({residual, dc[k], zc[k]});
    }
    return residual;
  }
};

// One column: Z = P + R + v_coef V, C_next = soft-threshold of Z + U,
// U += Z - C_next, V = C_next - U. Soft-thresholding is w - clamp(w, -t, t),
// branch-free and bit-identical to the branchy form; row `pinned` (negative
// for none) takes t = infinity, which shrinks it to exactly zero — a
// per-row select, so the whole column stays one vectorized loop.
void UpdateColumn(int64_t rows, int64_t pinned, double threshold,
                  double v_coef, const double* __restrict p,
                  const double* __restrict r, double* __restrict c,
                  double* __restrict u, double* __restrict v,
                  PassMaxima* maxima) {
  // Local lanes, so the maxima stay in registers across the loop.
  PassMaxima local = *maxima;
  auto update = [&](int64_t i, int lane) {
    const double t =
        i == pinned ? std::numeric_limits<double>::infinity() : threshold;
    const double z = p[i] + r[i] + v_coef * v[i];
    const double w = z + u[i];
    const double next = w - std::min(std::max(w, -t), t);
    const double dc = std::fabs(next - c[i]);
    const double gap = z - next;
    const double zc = std::fabs(gap);
    local.dc[lane] = std::max(local.dc[lane], dc);
    local.zc[lane] = std::max(local.zc[lane], zc);
    c[i] = next;
    u[i] += gap;
    v[i] = next - u[i];
  };
  const int64_t full = rows / kLanes * kLanes;
  for (int64_t i = 0; i < full; i += kLanes) {
    for (int lane = 0; lane < kLanes; ++lane) update(i + lane, lane);
  }
  int64_t i = full;
  if (i + kLanes / 2 <= rows) {  // a half-width vector step (20 = 16 + 4)
    for (int lane = 0; lane < kLanes / 2; ++lane) update(i + lane, lane);
    i += kLanes / 2;
  }
  for (; i < rows; ++i) update(i, 0);
  *maxima = local;
}

// The fused Z/C/U pass over columns [j0, j1) of `state`, whose operator
// output r holds those columns at leading dimension rows; entry forbidden(j)
// of column j (negative for none) is pinned to zero: diag(C) = 0, or a
// landmark's own atom. The maxima accumulate into `maxima`. Columns are
// independent, so disjoint ranges may run concurrently.
template <typename Forbidden>
void FusedUpdate(int64_t j0, int64_t j1, double* r, double threshold,
                 double v_coef, AffineTerms* affine,
                 const Forbidden& forbidden, AdmmState* state,
                 PassMaxima* maxima) {
  const int64_t rows = state->c.rows();
  for (int64_t j = j0; j < j1; ++j) {
    const double* pj = state->p.ColData(j);
    double* rj = r + (j - j0) * rows;
    double* cj = state->c.ColData(j);
    double* uj = state->u.ColData(j);
    double* vj = state->v.ColData(j);
    if (affine != nullptr) {
      // Fold the Sherman-Morrison term into R, then advance the dual with
      // 1^T Z.
      double& dual = affine->dual[static_cast<size_t>(j)];
      double q_sum = 0.0;
      for (int64_t i = 0; i < rows; ++i) q_sum += rj[i] + v_coef * vj[i];
      const double shift = affine->scale * (q_sum + dual);
      double z_sum = 0.0;
      for (int64_t i = 0; i < rows; ++i) {
        rj[i] -= shift * affine->h_ones[static_cast<size_t>(i)];
        z_sum += pj[i] + rj[i] + v_coef * vj[i];
      }
      dual += z_sum - 1.0;
    }
    UpdateColumn(rows, forbidden(j), threshold, v_coef, pj, rj, cj, uj, vj,
                 maxima);
  }
}

}  // namespace

bool SscAdmmUsesWoodbury(int64_t dim, int64_t num_points) {
  return 2 * dim < num_points;
}

double SscLambda(const Matrix& x, double alpha, int num_threads) {
  return SscLambdaFromGram(Gram(x, num_threads), alpha, num_threads);
}

double SscLambdaFromGram(const Matrix& gram, double alpha, int num_threads) {
  const double mu = MutualCoherenceFloor(gram, num_threads);
  return mu > 0.0 ? alpha / mu : alpha;
}

Result<SparseMatrix> SscSelfExpression(const Matrix& x,
                                       const SscAdmmOptions& options,
                                       SscAdmmInfo* info) {
  const int64_t n = x.rows();
  const int64_t num_points = x.cols();
  if (num_points < 2) {
    return Status::InvalidArgument("SSC needs at least 2 points");
  }
  if (options.alpha <= 1.0) {
    return Status::InvalidArgument("SSC alpha must exceed 1");
  }
  FEDSC_TRACE_SPAN("sc/ssc_admm", {{"points", num_points}, {"dim", n}});

  Matrix gram = Gram(x, options.num_threads);  // X^T X, via Syrk
  RecordGramFlops(num_points, n);
  const double mu = MutualCoherenceFloor(gram, options.num_threads);
  if (mu <= 0.0) {
    return Status::FailedPrecondition(
        "all points are mutually orthogonal; self-expression is degenerate");
  }
  const double lambda = options.alpha / mu;
  const double rho = options.rho > 0.0 ? options.rho : options.alpha;
  const double kappa = lambda / rho;

  // The Z-update solves H Z = lambda G + rho (C - U) with H = lambda G +
  // rho I. Its constant part is hoisted: P = H^{-1} lambda G = I - rho H^{-1},
  // so each iteration only applies rho H^{-1} to V = C - U. Two
  // formulations of that product, picked by their per-iteration flops:
  //   direct:   rho H^{-1} = (I + kappa G)^{-1}, an N x N operator —
  //             one product, 2 N^3;
  //   Woodbury: rho H^{-1} V = V - X^T (K V), K = kappa (I_n + kappa X X^T)^{-1}
  //             X, so P = X^T K — two chained products, 4 n N^2.
  // Woodbury wins exactly when 2n < N.
  const bool use_woodbury = SscAdmmUsesWoodbury(n, num_points);
  // The operator chain FusedGemm applies: direct, (I + kappa G)^{-1};
  // Woodbury, K then -X^T. Each operand is packed once, here.
  std::vector<PackedGemmOperand> op;
  Matrix p;
  if (use_woodbury) {
    gram = Matrix();  // only mu needed it; frees N^2 doubles
    Matrix s = OuterGram(x, options.num_threads);  // X X^T, via Syrk
    RecordGramFlops(n, num_points);
    s *= kappa;
    for (int64_t i = 0; i < n; ++i) s(i, i) += 1.0;
    FEDSC_ASSIGN_OR_RETURN(const Matrix s_inverse, SpdInverse(s));
    Matrix k(n, num_points);
    Gemm(Trans::kNo, Trans::kNo, kappa, s_inverse, x, 0.0, &k,
         options.num_threads);
    p = MatMulTN(x, k, options.num_threads);
    op.emplace_back(Trans::kNo, 1.0, k);
    op.emplace_back(Trans::kTrans, -1.0, x);
  } else {
    gram *= kappa;
    for (int64_t i = 0; i < num_points; ++i) gram(i, i) += 1.0;
    FEDSC_ASSIGN_OR_RETURN(p, SpdInverse(gram));
    gram = Matrix();
    op.emplace_back(Trans::kNo, 1.0, p);
    p *= -1.0;
    for (int64_t i = 0; i < num_points; ++i) p(i, i) += 1.0;
  }
  AdmmState state(std::move(p));
  // rho H^{-1} M = r + v_coef * M, with r the chain's output.
  const double v_coef = use_woodbury ? 1.0 : 0.0;

  // Affine mode: the rho 1 1^T penalty enters through Sherman-Morrison on
  // top of rho H^{-1}; its constant part rho 1 1^T joins P.
  AffineTerms affine;
  if (options.affine) {
    Matrix ones(num_points, 1);
    ones.Fill(1.0);
    affine.h_ones.resize(static_cast<size_t>(num_points));
    FusedGemm(op, ones, options.num_threads,
              [&](int64_t, int64_t, double* r, int) {
                for (int64_t i = 0; i < num_points; ++i) {
                  affine.h_ones[static_cast<size_t>(i)] = r[i] + v_coef;
                }
              });
    double dot_1h1 = 0.0;
    for (double v : affine.h_ones) dot_1h1 += v;
    affine.scale = 1.0 / (1.0 + dot_1h1);
    for (int64_t j = 0; j < num_points; ++j) {
      Axpy(affine.scale * affine.h_ones[static_cast<size_t>(j)],
           affine.h_ones.data(), state.p.ColData(j), num_points);
    }
    affine.dual.assign(static_cast<size_t>(num_points), 0.0);
  }

  // Stopping-rule maxima reduce per column chunk into that chunk's slot,
  // then combine in chunk order — max is exact in any order, so the
  // residual is bit-identical across thread counts.
  const double threshold = 1.0 / rho;
  std::vector<PassMaxima> chunk_maxima(static_cast<size_t>(
      std::max(1, ParallelChunkCount(0, num_points, options.num_threads))));
  auto diagonal = [](int64_t j) { return j; };
  const FusedGemmEpilogue update = [&](int64_t j0, int64_t j1, double* r,
                                       int chunk) {
    FusedUpdate(j0, j1, r, threshold, v_coef,
                options.affine ? &affine : nullptr, diagonal, &state,
                &chunk_maxima[static_cast<size_t>(chunk)]);
  };
  Stopwatch deadline_timer;
  double residual = std::numeric_limits<double>::infinity();
  int iteration = 0;
  for (; iteration < options.max_iterations; ++iteration) {
    if (options.deadline_seconds > 0.0 &&
        deadline_timer.ElapsedSeconds() > options.deadline_seconds) {
      return Status::DeadlineExceeded("SSC ADMM exceeded its time budget of " +
                                      std::to_string(options.deadline_seconds) +
                                      "s");
    }
    std::fill(chunk_maxima.begin(), chunk_maxima.end(), PassMaxima{});
    FusedGemm(op, state.v, options.num_threads, update);
    residual = 0.0;
    for (const PassMaxima& m : chunk_maxima) {
      residual = std::max(residual, m.Residual());
    }
    if (residual < options.tol) break;
  }
  const bool converged = residual < options.tol;
  // The break above skips the loop's increment, so count it explicitly.
  const int iterations = converged ? iteration + 1 : iteration;
  if (!converged) {
    FEDSC_LOG(Debug) << "SSC ADMM stopped at max_iterations with residual "
                     << residual;
  }
  if (info != nullptr) {
    info->iterations = iterations;
    info->final_residual = residual;
    info->converged = converged;
  }
  FEDSC_METRIC_COUNTER("sc.ssc_admm.solves").Increment();
  FEDSC_METRIC_COUNTER("sc.ssc_admm.iterations").Add(iterations);
  if (converged) FEDSC_METRIC_COUNTER("sc.ssc_admm.converged").Increment();
  FEDSC_METRIC_HISTOGRAM("sc.ssc_admm.iterations_per_solve").Record(iterations);
  // Last-writer-wins across concurrent device solves, hence kExecution.
  FEDSC_METRIC_GAUGE("sc.ssc_admm.last_residual", MetricKind::kExecution)
      .Set(residual);

  return SparsifyCoefficients(state.c, options.top_k, options.drop_tol,
                              options.num_threads);
}

namespace {

// Column-block width for the sketched solve. A pure constant (never derived
// from the thread count): the per-block GEMM shapes, stopping decisions, and
// triplet order depend only on (N, kSketchBlockCols), so results are
// bit-identical for every thread count.
constexpr int64_t kSketchBlockCols = 256;

}  // namespace

Result<SparseMatrix> SscSketchedSelfExpression(const Matrix& x,
                                               const SketchResult& sketch,
                                               const SscAdmmOptions& options,
                                               SscAdmmInfo* info) {
  const Matrix& b = sketch.dictionary;
  const int64_t n = x.rows();
  const int64_t num_points = x.cols();
  const int64_t num_atoms = b.cols();
  if (num_points < 1) {
    return Status::InvalidArgument("sketched SSC needs at least 1 point");
  }
  if (num_atoms < 1) {
    return Status::InvalidArgument("sketched SSC needs a non-empty "
                                   "dictionary");
  }
  if (b.rows() != n) {
    return Status::InvalidArgument(
        "dictionary ambient dim " + std::to_string(b.rows()) +
        " does not match data dim " + std::to_string(n));
  }
  if (options.alpha <= 1.0) {
    return Status::InvalidArgument("SSC alpha must exceed 1");
  }
  if (options.affine) {
    return Status::InvalidArgument(
        "the affine constraint is not supported on the sketched SSC path");
  }
  FEDSC_TRACE_SPAN("sc/ssc_admm_sketched",
                   {{"points", num_points}, {"atoms", num_atoms}, {"dim", n}});

  // Landmark sketches: atom index of each data column that is a landmark
  // (-1 otherwise); that atom's coefficient is pinned to zero.
  std::vector<int64_t> self_atom(static_cast<size_t>(num_points), -1);
  for (size_t a = 0; a < sketch.landmarks.size(); ++a) {
    self_atom[static_cast<size_t>(sketch.landmarks[a])] =
        static_cast<int64_t>(a);
  }

  // lambda = alpha / mu with mu = min_j max_a |b_a^T x_j| (self atom
  // excluded) — the dictionary/data analogue of Proposition 1's mutual
  // coherence floor. Min-of-max reduces exactly in any order.
  const int mu_chunks = std::max(
      1, ParallelChunkCount(0, num_points, options.num_threads));
  std::vector<double> chunk_mu(static_cast<size_t>(mu_chunks),
                               std::numeric_limits<double>::infinity());
  ParallelForRanges(
      0, num_points, options.num_threads,
      [&](int64_t j0, int64_t j1, int chunk) {
        Vector scores(static_cast<size_t>(num_atoms), 0.0);
        double mu = std::numeric_limits<double>::infinity();
        for (int64_t j = j0; j < j1; ++j) {
          Gemv(Trans::kTrans, 1.0, b, x.ColData(j), 0.0, scores.data());
          const int64_t forbidden = self_atom[static_cast<size_t>(j)];
          double max_abs = 0.0;
          for (int64_t a = 0; a < num_atoms; ++a) {
            if (a == forbidden) continue;
            max_abs = std::max(max_abs,
                               std::fabs(scores[static_cast<size_t>(a)]));
          }
          mu = std::min(mu, max_abs);
        }
        chunk_mu[static_cast<size_t>(chunk)] = mu;
      });
  double mu = std::numeric_limits<double>::infinity();
  for (double v : chunk_mu) mu = std::min(mu, v);
  if (!(mu > 0.0)) {
    return Status::FailedPrecondition(
        "every dictionary atom is orthogonal to some point; sketched "
        "self-expression is degenerate");
  }
  const double lambda = options.alpha / mu;
  const double rho = options.rho > 0.0 ? options.rho : options.alpha;

  // Shared d x d Z-update operator H = lambda B^T B + rho I, applied as
  // rho H^{-1} = (I + kappa B^T B)^{-1}. Each block's constant term
  // P = H^{-1} lambda B^T X_blk = L X_blk comes from L = kappa rho H^{-1} B^T,
  // formed once.
  const double kappa = lambda / rho;
  Matrix h = Gram(b, options.num_threads);
  RecordGramFlops(num_atoms, n);
  h *= kappa;
  for (int64_t a = 0; a < num_atoms; ++a) h(a, a) += 1.0;
  FEDSC_ASSIGN_OR_RETURN(const Matrix h_inverse, SpdInverse(h));
  Matrix l(num_atoms, n);
  Gemm(Trans::kNo, Trans::kTrans, kappa, h_inverse, b, 0.0, &l,
       options.num_threads);
  const PackedGemmOperand op(Trans::kNo, 1.0, h_inverse);

  const int64_t num_blocks =
      (num_points + kSketchBlockCols - 1) / kSketchBlockCols;
  std::vector<std::vector<Triplet>> chunk_triplets(static_cast<size_t>(
      std::max(1, ParallelChunkCount(0, num_blocks, options.num_threads))));
  std::vector<int> block_iterations(static_cast<size_t>(num_blocks), 0);
  std::vector<double> block_residual(static_cast<size_t>(num_blocks), 0.0);
  std::vector<char> block_converged(static_cast<size_t>(num_blocks), 0);
  std::atomic<bool> deadline_hit{false};
  Stopwatch deadline_timer;

  ParallelForRanges(0, num_blocks, options.num_threads, [&](int64_t blk0,
                                                            int64_t blk1,
                                                            int chunk) {
    std::vector<Triplet>& triplets =
        chunk_triplets[static_cast<size_t>(chunk)];
    std::vector<int64_t> order(static_cast<size_t>(num_atoms));
    for (int64_t blk = blk0; blk < blk1; ++blk) {
      if (options.deadline_seconds > 0.0 &&
          deadline_timer.ElapsedSeconds() > options.deadline_seconds) {
        deadline_hit.store(true, std::memory_order_relaxed);
        return;
      }
      const int64_t j0 = blk * kSketchBlockCols;
      const int64_t j1 = std::min(num_points, j0 + kSketchBlockCols);
      const int64_t nb = j1 - j0;
      AdmmState state(MatMul(l, x.ColRange(j0, j1)));
      auto self_atom_of = [&](int64_t jj) {
        return self_atom[static_cast<size_t>(j0 + jj)];
      };

      const double threshold = 1.0 / rho;
      PassMaxima maxima;
      const FusedGemmEpilogue update = [&](int64_t c0, int64_t c1, double* r,
                                           int /*chunk*/) {
        FusedUpdate(c0, c1, r, threshold, 0.0, nullptr, self_atom_of, &state,
                    &maxima);
      };
      double residual = std::numeric_limits<double>::infinity();
      int iteration = 0;
      for (; iteration < options.max_iterations; ++iteration) {
        maxima = PassMaxima{};
        // Blocks are the unit of parallelism; the step runs inline.
        FusedGemm({&op, 1}, state.v, /*num_threads=*/1, update);
        residual = maxima.Residual();
        if (residual < options.tol) break;
      }
      const bool converged = residual < options.tol;
      block_iterations[static_cast<size_t>(blk)] =
          converged ? iteration + 1 : iteration;
      block_residual[static_cast<size_t>(blk)] = residual;
      block_converged[static_cast<size_t>(blk)] = converged ? 1 : 0;

      // Sparsify the block's columns in place (same top-k / drop-tol rule
      // as SparsifyCoefficients, over the d atoms).
      for (int64_t jj = 0; jj < nb; ++jj) {
        const int64_t j = j0 + jj;
        const double* col = state.c.ColData(jj);
        double max_abs = 0.0;
        for (int64_t a = 0; a < num_atoms; ++a) {
          max_abs = std::max(max_abs, std::fabs(col[a]));
        }
        if (max_abs <= 0.0) continue;
        const double drop = options.drop_tol * max_abs;
        if (options.top_k > 0 && options.top_k < num_atoms) {
          std::iota(order.begin(), order.end(), 0);
          const auto kth = order.begin() + options.top_k;
          std::nth_element(order.begin(), kth, order.end(),
                           [&](int64_t p, int64_t q) {
                             const double fp = std::fabs(col[p]);
                             const double fq = std::fabs(col[q]);
                             if (fp != fq) return fp > fq;
                             return p < q;
                           });
          std::sort(order.begin(), kth);
          for (auto it = order.begin(); it != kth; ++it) {
            const double v = col[*it];
            if (std::fabs(v) > drop) triplets.push_back({*it, j, v});
          }
        } else {
          for (int64_t a = 0; a < num_atoms; ++a) {
            const double v = col[a];
            if (std::fabs(v) > drop) triplets.push_back({a, j, v});
          }
        }
      }
    }
  });

  if (deadline_hit.load(std::memory_order_relaxed)) {
    return Status::DeadlineExceeded(
        "sketched SSC ADMM exceeded its time budget of " +
        std::to_string(options.deadline_seconds) + "s");
  }

  int iterations = 0;
  double residual = 0.0;
  bool converged = true;
  for (int64_t blk = 0; blk < num_blocks; ++blk) {
    iterations = std::max(iterations,
                          block_iterations[static_cast<size_t>(blk)]);
    residual = std::max(residual, block_residual[static_cast<size_t>(blk)]);
    converged = converged && block_converged[static_cast<size_t>(blk)] != 0;
  }
  if (!converged) {
    FEDSC_LOG(Debug) << "sketched SSC ADMM stopped at max_iterations with "
                     << "residual " << residual;
  }
  if (info != nullptr) {
    info->iterations = iterations;
    info->final_residual = residual;
    info->converged = converged;
  }
  FEDSC_METRIC_COUNTER("sc.ssc_admm.solves").Increment();
  FEDSC_METRIC_COUNTER("sc.ssc_admm.sketched_solves").Increment();
  FEDSC_METRIC_COUNTER("sc.ssc_admm.iterations").Add(iterations);
  if (converged) FEDSC_METRIC_COUNTER("sc.ssc_admm.converged").Increment();
  FEDSC_METRIC_HISTOGRAM("sc.ssc_admm.iterations_per_solve")
      .Record(iterations);
  FEDSC_METRIC_GAUGE("sc.ssc_admm.last_residual", MetricKind::kExecution)
      .Set(residual);

  std::vector<Triplet> triplets;
  for (const auto& chunk : chunk_triplets) {
    triplets.insert(triplets.end(), chunk.begin(), chunk.end());
  }
  return SparseMatrix::FromTriplets(num_atoms, num_points,
                                    std::move(triplets));
}

}  // namespace fedsc
