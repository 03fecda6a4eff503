#include "linalg/blas.h"

#include <cmath>

#include <algorithm>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "linalg/gemm_kernel.h"

namespace fedsc {

double Dot(const double* x, const double* y, int64_t n) {
  // Four partial sums break the dependency chain so the loop vectorizes.
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += x[i] * y[i];
    s1 += x[i + 1] * y[i + 1];
    s2 += x[i + 2] * y[i + 2];
    s3 += x[i + 3] * y[i + 3];
  }
  for (; i < n; ++i) s0 += x[i] * y[i];
  return (s0 + s1) + (s2 + s3);
}

double Norm2(const double* x, int64_t n) {
  return std::sqrt(Dot(x, x, n));
}

void Axpy(double alpha, const double* x, double* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void Scal(double alpha, double* x, int64_t n) {
  for (int64_t i = 0; i < n; ++i) x[i] *= alpha;
}

namespace {

// Every GEMM variant is written as a column-panel kernel over columns
// [j0, j1) of C: each output column is produced by the same sequence of
// Axpy/Dot calls no matter how the panel is split, so running the panels
// in parallel is bit-exact equal to one serial [0, n) pass (see the
// determinism contract in DESIGN.md). Panels of C are disjoint memory.

// C(m x n) = alpha * A(m x k) * B(k x n) + C, all column-major.
// "gaxpy" order: the inner loop streams one column of A into one column of C.
void GemmNNPanel(double alpha, const Matrix& a, const Matrix& b, Matrix* c,
                 int64_t j0, int64_t j1) {
  const int64_t m = a.rows(), k = a.cols();
  for (int64_t j = j0; j < j1; ++j) {
    double* cj = c->ColData(j);
    const double* bj = b.ColData(j);
    for (int64_t p = 0; p < k; ++p) {
      const double w = alpha * bj[p];
      if (w != 0.0) Axpy(w, a.ColData(p), cj, m);
    }
  }
}

// C(m x n) = alpha * A^T(m x k) * B(k x n) + C where A is (k x m).
// Each entry is a dot of two contiguous columns.
void GemmTNPanel(double alpha, const Matrix& a, const Matrix& b, Matrix* c,
                 int64_t j0, int64_t j1) {
  const int64_t m = a.cols(), k = a.rows();
  for (int64_t j = j0; j < j1; ++j) {
    const double* bj = b.ColData(j);
    double* cj = c->ColData(j);
    for (int64_t i = 0; i < m; ++i) {
      cj[i] += alpha * Dot(a.ColData(i), bj, k);
    }
  }
}

// C(m x n) = alpha * A(m x k) * B^T(k x n) + C where B is (n x k).
// Column j of C accumulates w_p * A(:, p) in ascending p — the same
// per-column update order as the classic p-outer loop, just regrouped so
// the panel owns its output columns.
void GemmNTPanel(double alpha, const Matrix& a, const Matrix& b, Matrix* c,
                 int64_t j0, int64_t j1) {
  const int64_t m = a.rows(), k = a.cols();
  for (int64_t j = j0; j < j1; ++j) {
    double* cj = c->ColData(j);
    for (int64_t p = 0; p < k; ++p) {
      // B(j, p) sits in column p of B.
      const double w = alpha * b.ColData(p)[j];
      if (w != 0.0) Axpy(w, a.ColData(p), cj, m);
    }
  }
}

// Lower triangle of C += alpha * op(X) op(X)^T (kNo) / op(X)^T op(X)
// (kTrans) over columns [j0, j1): the legacy-panel counterpart of
// BlockedSyrkLower. Per output element the operation sequence matches the
// corresponding full-GEMM panel kernel restricted to i >= j, so a panel
// Gram's lower triangle is bit-identical to the pre-Syrk MatMulTN result.
void SyrkPanelLower(Trans trans, double alpha, const Matrix& x, Matrix* c,
                    int64_t j0, int64_t j1) {
  const int64_t nn = c->rows();
  if (trans == Trans::kTrans) {
    const int64_t kk = x.rows();
    for (int64_t j = j0; j < j1; ++j) {
      double* cj = c->ColData(j);
      const double* xj = x.ColData(j);
      for (int64_t i = j; i < nn; ++i) {
        cj[i] += alpha * Dot(x.ColData(i), xj, kk);
      }
    }
  } else {
    const int64_t kk = x.cols();
    for (int64_t j = j0; j < j1; ++j) {
      double* cj = c->ColData(j);
      for (int64_t p = 0; p < kk; ++p) {
        const double w = alpha * x.ColData(p)[j];
        if (w != 0.0) Axpy(w, x.ColData(p) + j, cj + j, nn - j);
      }
    }
  }
}

// Copies the strictly-lower triangle into the strictly-upper one, column by
// column. Mirror writes touch only rows [0, j) of column j (strictly upper)
// and read only strictly-lower elements, which no mirror task writes — so
// the parallel ranges are race-free and the copy order cannot matter.
void MirrorLowerToUpper(Matrix* c, int num_threads) {
  const int64_t n = c->rows();
  const int threads =
      n * n < (1 << 16) ? 1 : std::min<int>(num_threads, 64);
  ParallelForRanges(0, n, threads,
                    [&](int64_t j0, int64_t j1, int /*chunk*/) {
                      for (int64_t j = j0; j < j1; ++j) {
                        double* cj = c->ColData(j);
                        for (int64_t i = 0; i < j; ++i) {
                          cj[i] = (*c)(j, i);
                        }
                      }
                    });
}

bool UseBlockedKernel(GemmKernel kernel, int64_t m, int64_t k, int64_t n,
                      bool trans_both) {
  switch (kernel) {
    case GemmKernel::kPanel:
      return false;
    case GemmKernel::kBlocked:
      return true;
    case GemmKernel::kAuto:
      // TT always packs (the transpose is free in the packed layout,
      // where the panel path would materialize B^T); everything else
      // switches on the documented result-affecting flop cutoff.
      return trans_both || m * k * n >= kBlockedGemmCutoff;
  }
  return false;
}

}  // namespace

CpuIsa ResolveGemmIsa(GemmIsa pin) {
  switch (pin) {
    case GemmIsa::kAuto:
      return ResolveDefaultIsa().chosen;
    case GemmIsa::kGeneric:
      return CpuIsa::kGeneric;
    case GemmIsa::kAvx2:
      FEDSC_CHECK(CpuIsaSupported(CpuIsa::kAvx2))
          << "GemmIsa::kAvx2 pinned but this host lacks AVX2+FMA";
      return CpuIsa::kAvx2;
    case GemmIsa::kAvx512:
      FEDSC_CHECK(CpuIsaSupported(CpuIsa::kAvx512))
          << "GemmIsa::kAvx512 pinned but this host lacks AVX-512F";
      return CpuIsa::kAvx512;
  }
  return CpuIsa::kGeneric;
}

const char* GemmIsaName(GemmIsa pin) {
  switch (pin) {
    case GemmIsa::kAuto:
      return "auto";
    case GemmIsa::kGeneric:
      return "generic";
    case GemmIsa::kAvx2:
      return "avx2";
    case GemmIsa::kAvx512:
      return "avx512";
  }
  return "unknown";
}

void Gemm(Trans trans_a, Trans trans_b, double alpha, const Matrix& a,
          const Matrix& b, double beta, Matrix* c,
          const GemmOptions& options) {
  const int64_t m = trans_a == Trans::kNo ? a.rows() : a.cols();
  const int64_t ka = trans_a == Trans::kNo ? a.cols() : a.rows();
  const int64_t kb = trans_b == Trans::kNo ? b.rows() : b.cols();
  const int64_t n = trans_b == Trans::kNo ? b.cols() : b.rows();
  FEDSC_CHECK(ka == kb) << "gemm inner dims " << ka << " vs " << kb;
  FEDSC_CHECK(c->rows() == m && c->cols() == n)
      << "gemm output is " << c->rows() << "x" << c->cols() << ", want " << m
      << "x" << n;
  FEDSC_CHECK(c != &a && c != &b) << "gemm output aliases an input";

  if (beta == 0.0) {
    c->Fill(0.0);
  } else if (beta != 1.0) {
    *c *= beta;
  }
  if (alpha == 0.0 || ka == 0) return;

  FEDSC_TRACE_SPAN("linalg/gemm");
  const bool trans_both =
      trans_a == Trans::kTrans && trans_b == Trans::kTrans;
  const bool blocked = UseBlockedKernel(options.kernel, m, ka, n, trans_both);
  internal_gemm::RecordGemmCall(m, ka, n, blocked);
  if (blocked) {
    BlockedGemm(trans_a, trans_b, alpha, a, b, c, options.num_threads,
                ResolveGemmIsa(options.isa));
    return;
  }

  // Legacy panel path (small products, or pinned via GemmKernel::kPanel).
  // TT is reduced to TN on an explicit transpose so the panel kernels below
  // cover every case; the blocked path above never needs this copy.
  Matrix bt;
  if (trans_both) {
    bt = b.Transposed();
    trans_b = Trans::kNo;
  }
  const Matrix& rb = bt.empty() ? b : bt;

  // Don't spin up workers for panels too small to amortize a thread: each
  // column of C costs ~2*m*ka flops.
  const int threads =
      m * ka * n < (1 << 16) ? 1 : std::min<int>(options.num_threads, 64);
  ParallelForRanges(0, n, threads,
                    [&](int64_t j0, int64_t j1, int /*chunk*/) {
                      if (trans_a == Trans::kNo && trans_b == Trans::kNo) {
                        GemmNNPanel(alpha, a, rb, c, j0, j1);
                      } else if (trans_a == Trans::kTrans) {
                        GemmTNPanel(alpha, a, rb, c, j0, j1);
                      } else {
                        GemmNTPanel(alpha, a, rb, c, j0, j1);
                      }
                    });
}

void Gemm(Trans trans_a, Trans trans_b, double alpha, const Matrix& a,
          const Matrix& b, double beta, Matrix* c, int num_threads) {
  GemmOptions options;
  options.num_threads = num_threads;
  Gemm(trans_a, trans_b, alpha, a, b, beta, c, options);
}

void Syrk(Trans trans, double alpha, const Matrix& x, double beta, Matrix* c,
          const GemmOptions& options) {
  const int64_t nn = trans == Trans::kNo ? x.rows() : x.cols();
  const int64_t kk = trans == Trans::kNo ? x.cols() : x.rows();
  FEDSC_CHECK(c->rows() == nn && c->cols() == nn)
      << "syrk output is " << c->rows() << "x" << c->cols() << ", want " << nn
      << "x" << nn;
  FEDSC_CHECK(c != &x) << "syrk output aliases the input";

  if (beta == 0.0) {
    c->Fill(0.0);
  } else if (beta != 1.0) {
    *c *= beta;
  }
  if (alpha == 0.0 || kk == 0) return;

  FEDSC_TRACE_SPAN("linalg/syrk");
  FEDSC_METRIC_COUNTER("linalg.syrk.calls").Increment();
  // Useful flops: 2*kk per element over the nn*(nn+1)/2 lower-triangle
  // entries — about half the 2*nn*kk*nn the equivalent Gemm would spend.
  FEDSC_METRIC_COUNTER("linalg.syrk.flops").Add(nn * (nn + 1) * kk);
  // Matrix traffic: X read once, the nn x nn output read+written.
  FEDSC_METRIC_COUNTER("linalg.syrk.bytes").Add(8 * (nn * kk + 2 * nn * nn));

  if (UseBlockedKernel(options.kernel, nn, kk, nn, /*trans_both=*/false)) {
    BlockedSyrkLower(trans, alpha, x, c, options.num_threads,
                     ResolveGemmIsa(options.isa));
  } else {
    const int threads =
        nn * kk * nn < (1 << 16) ? 1 : std::min<int>(options.num_threads, 64);
    ParallelForRanges(0, nn, threads,
                      [&](int64_t j0, int64_t j1, int /*chunk*/) {
                        SyrkPanelLower(trans, alpha, x, c, j0, j1);
                      });
  }
  MirrorLowerToUpper(c, options.num_threads);
}

void Gemv(Trans trans_a, double alpha, const Matrix& a, const double* x,
          double beta, double* y, int num_threads) {
  const int64_t m = trans_a == Trans::kNo ? a.rows() : a.cols();
  const int64_t n = trans_a == Trans::kNo ? a.cols() : a.rows();
  if (beta == 0.0) {
    std::fill(y, y + m, 0.0);
  } else if (beta != 1.0) {
    Scal(beta, y, m);
  }
  if (alpha == 0.0) return;
  FEDSC_METRIC_COUNTER("linalg.gemv.calls").Increment();
  FEDSC_METRIC_COUNTER("linalg.gemv.flops").Add(2 * m * n);
  const int threads = m * n < (1 << 15) ? 1 : std::min<int>(num_threads, 64);
  if (trans_a == Trans::kNo) {
    // Partition the rows of y; each task runs the same Axpy on its subrange
    // of every column, so element i of y sees the identical j-ascending
    // update sequence as the serial pass.
    ParallelForRanges(0, m, threads,
                      [&](int64_t r0, int64_t r1, int /*chunk*/) {
                        for (int64_t j = 0; j < n; ++j) {
                          const double w = alpha * x[j];
                          if (w != 0.0) {
                            Axpy(w, a.ColData(j) + r0, y + r0, r1 - r0);
                          }
                        }
                      });
  } else {
    // One independent dot per output element.
    ParallelForRanges(0, m, threads,
                      [&](int64_t r0, int64_t r1, int /*chunk*/) {
                        for (int64_t i = r0; i < r1; ++i) {
                          y[i] += alpha * Dot(a.ColData(i), x, n);
                        }
                      });
  }
}

Vector Gemv(Trans trans_a, const Matrix& a, const Vector& x) {
  const int64_t m = trans_a == Trans::kNo ? a.rows() : a.cols();
  const int64_t n = trans_a == Trans::kNo ? a.cols() : a.rows();
  FEDSC_CHECK(static_cast<int64_t>(x.size()) == n)
      << "gemv x has size " << x.size() << ", want " << n;
  Vector y(static_cast<size_t>(m), 0.0);
  Gemv(trans_a, 1.0, a, x.data(), 0.0, y.data());
  return y;
}

Matrix MatMul(const Matrix& a, const Matrix& b, int num_threads) {
  Matrix c(a.rows(), b.cols());
  Gemm(Trans::kNo, Trans::kNo, 1.0, a, b, 0.0, &c, num_threads);
  return c;
}

Matrix MatMulTN(const Matrix& a, const Matrix& b, int num_threads) {
  Matrix c(a.cols(), b.cols());
  Gemm(Trans::kTrans, Trans::kNo, 1.0, a, b, 0.0, &c, num_threads);
  return c;
}

Matrix MatMulNT(const Matrix& a, const Matrix& b, int num_threads) {
  Matrix c(a.rows(), b.rows());
  Gemm(Trans::kNo, Trans::kTrans, 1.0, a, b, 0.0, &c, num_threads);
  return c;
}

Matrix Gram(const Matrix& x, int num_threads) {
  Matrix c(x.cols(), x.cols());
  GemmOptions options;
  options.num_threads = num_threads;
  Syrk(Trans::kTrans, 1.0, x, 0.0, &c, options);
  return c;
}

Matrix OuterGram(const Matrix& x, int num_threads) {
  Matrix c(x.rows(), x.rows());
  GemmOptions options;
  options.num_threads = num_threads;
  Syrk(Trans::kNo, 1.0, x, 0.0, &c, options);
  return c;
}

}  // namespace fedsc
