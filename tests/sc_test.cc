#include <algorithm>
#include <set>
#include <cmath>
#include <cstring>
#include <string>
#include <limits>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/synthetic.h"
#include "linalg/blas.h"
#include "linalg/cholesky.h"
#include "metrics/clustering_metrics.h"
#include "sc/affinity.h"
#include "sc/pipeline.h"
#include "sc/sketch.h"
#include "sc/ssc_admm.h"

namespace fedsc {
namespace {

// Fraction of affinity mass that crosses ground-truth clusters; 0 means the
// graph satisfies the self-expressiveness property (SEP).
double CrossClusterMass(const SparseMatrix& w,
                        const std::vector<int64_t>& truth) {
  double cross = 0.0;
  double total = 0.0;
  for (int64_t r = 0; r < w.rows(); ++r) {
    for (int64_t k = w.row_ptr()[static_cast<size_t>(r)];
         k < w.row_ptr()[static_cast<size_t>(r) + 1]; ++k) {
      const int64_t c = w.col_idx()[static_cast<size_t>(k)];
      const double v = std::fabs(w.values()[static_cast<size_t>(k)]);
      total += v;
      if (truth[static_cast<size_t>(r)] != truth[static_cast<size_t>(c)]) {
        cross += v;
      }
    }
  }
  return total > 0.0 ? cross / total : 0.0;
}

Dataset EasySubspaces(int64_t num_subspaces, int64_t per_subspace,
                      uint64_t seed) {
  SyntheticOptions options;
  options.ambient_dim = 30;
  options.subspace_dim = 3;
  options.num_subspaces = num_subspaces;
  options.points_per_subspace = per_subspace;
  options.seed = seed;
  auto data = GenerateUnionOfSubspaces(options);
  EXPECT_TRUE(data.ok());
  return std::move(data).value();
}

TEST(AffinityTest, FromCoefficientsSymmetrizesAbs) {
  const SparseMatrix c =
      SparseMatrix::FromTriplets(3, 3, {{0, 1, -2.0}, {2, 1, 1.0}});
  const Matrix w = AffinityFromCoefficients(c).ToDense();
  EXPECT_EQ(w(0, 1), 2.0);
  EXPECT_EQ(w(1, 0), 2.0);
  EXPECT_EQ(w(2, 1), 1.0);
  EXPECT_EQ(w(1, 2), 1.0);
  EXPECT_TRUE(AllClose(w, w.Transposed(), 0.0));
}

TEST(AffinityTest, SparsifyKeepsTopKPerColumn) {
  Matrix c(4, 4);
  c(0, 1) = 5.0;
  c(2, 1) = 3.0;
  c(3, 1) = 1.0;
  c(1, 1) = 9.0;  // diagonal must be dropped
  const SparseMatrix s = SparsifyCoefficients(c, 2);
  const Matrix dense = s.ToDense();
  EXPECT_EQ(dense(0, 1), 5.0);
  EXPECT_EQ(dense(2, 1), 3.0);
  EXPECT_EQ(dense(3, 1), 0.0);
  EXPECT_EQ(dense(1, 1), 0.0);
}

TEST(SscAdmmTest, SelfExpressionReconstructsPoints) {
  const Dataset data = EasySubspaces(3, 25, 42);
  auto c = SscSelfExpression(data.points);
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  // X C ~ X column-wise.
  const Matrix dense_c = c->ToDense();
  const Matrix reconstruction = MatMul(data.points, dense_c);
  const Matrix diff = reconstruction - data.points;
  EXPECT_LT(diff.FrobeniusNorm() / data.points.FrobeniusNorm(), 0.05);
  // Diagonal is zero.
  for (int64_t i = 0; i < dense_c.rows(); ++i) {
    EXPECT_EQ(dense_c(i, i), 0.0);
  }
}

TEST(SscAdmmTest, SepOnWellSeparatedSubspaces) {
  const Dataset data = EasySubspaces(4, 30, 7);
  auto c = SscSelfExpression(data.points);
  ASSERT_TRUE(c.ok());
  EXPECT_LT(CrossClusterMass(AffinityFromCoefficients(*c), data.labels),
            0.02);
}

TEST(SscAdmmTest, LambdaRuleAndValidation) {
  const Dataset data = EasySubspaces(2, 10, 3);
  EXPECT_GT(SscLambda(data.points, 50.0), 0.0);
  SscAdmmOptions bad;
  bad.alpha = 0.5;
  EXPECT_FALSE(SscSelfExpression(data.points, bad).ok());
  EXPECT_FALSE(SscSelfExpression(Matrix(3, 1)).ok());
}

TEST(SscAdmmTest, LambdaFromPrecomputedGramMatchesAndIsThreadInvariant) {
  // Callers that already hold X^T X (the ADMM solver itself) must get the
  // exact same lambda without recomputing the Gram, for any thread count.
  const Dataset data = EasySubspaces(3, 40, 5);
  const double serial = SscLambda(data.points, 50.0);
  const Matrix gram = Gram(data.points);
  EXPECT_EQ(SscLambdaFromGram(gram, 50.0), serial);
  for (int threads : {2, 8}) {
    EXPECT_EQ(SscLambda(data.points, 50.0, threads), serial) << threads;
    EXPECT_EQ(SscLambdaFromGram(gram, 50.0, threads), serial) << threads;
  }
}

TEST(SscAdmmTest, OrthogonalPairIsDegenerate) {
  // Two exactly orthogonal points: mu = 0.
  const Matrix x = Matrix::FromColumns({{1, 0}, {0, 1}});
  EXPECT_EQ(SscSelfExpression(x).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(SscOmpTest, SupportsStayWithinSubspace) {
  const Dataset data = EasySubspaces(4, 25, 11);
  SscOmpOptions options;
  options.max_support = 3;
  auto c = SscOmpSelfExpression(data.points, options);
  ASSERT_TRUE(c.ok());
  EXPECT_LT(CrossClusterMass(AffinityFromCoefficients(*c), data.labels),
            0.05);
  EXPECT_FALSE(SscOmpSelfExpression(Matrix(3, 1)).ok());
}

TEST(TscTest, NeighborsAreWithinSubspace) {
  const Dataset data = EasySubspaces(4, 30, 13);
  TscOptions options;
  options.q = 3;
  auto w = TscAffinity(data.points, options);
  ASSERT_TRUE(w.ok());
  EXPECT_LT(CrossClusterMass(*w, data.labels), 0.05);
}

TEST(TscTest, WeightsAreSphericalDistances) {
  // Three points: x1 close to x0, x2 orthogonal-ish.
  Matrix x = Matrix::FromColumns({{1, 0}, {0.9, std::sqrt(1 - 0.81)}, {0, 1}});
  TscOptions options;
  options.q = 1;
  auto w = TscAffinity(x, options);
  ASSERT_TRUE(w.ok());
  const Matrix dense = w->ToDense();
  // Edge 0-1 carries weight >= exp(-2 acos(0.9)).
  EXPECT_GE(dense(0, 1), std::exp(-2.0 * std::acos(0.9)) - 1e-9);
  EXPECT_FALSE(TscAffinity(x, {.q = 0}).ok());
  EXPECT_FALSE(TscAffinity(x, {.q = 3}).ok());
}

TEST(NsnTest, NeighborsAreWithinSubspace) {
  const Dataset data = EasySubspaces(4, 30, 17);
  NsnOptions options;
  options.num_neighbors = 4;
  options.max_subspace_dim = 3;
  auto w = NsnAffinity(data.points, options);
  ASSERT_TRUE(w.ok());
  EXPECT_LT(CrossClusterMass(*w, data.labels), 0.08);
  // 0/1 weights.
  for (double v : w->values()) EXPECT_EQ(v, 1.0);
}

TEST(NsnTest, RejectsBadNeighborCount) {
  EXPECT_FALSE(NsnAffinity(Matrix(3, 5), {.num_neighbors = 0}).ok());
  EXPECT_FALSE(NsnAffinity(Matrix(3, 5), {.num_neighbors = 5}).ok());
}

TEST(EnscTest, SelfExpressionHoldsSep) {
  const Dataset data = EasySubspaces(4, 25, 19);
  auto c = EnscSelfExpression(data.points);
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  EXPECT_LT(CrossClusterMass(AffinityFromCoefficients(*c), data.labels),
            0.05);
}

TEST(EnscTest, MixValidation) {
  EXPECT_FALSE(EnscSelfExpression(Matrix(3, 5), {.mix = 0.0}).ok());
  EXPECT_FALSE(EnscSelfExpression(Matrix(3, 5), {.mix = 1.5}).ok());
}

class PipelineMethodTest : public ::testing::TestWithParam<ScMethod> {};

TEST_P(PipelineMethodTest, ClustersEasySubspacesAccurately) {
  const Dataset data = EasySubspaces(4, 30, 23);
  ScPipelineOptions options;
  options.method = GetParam();
  options.tsc.q = 5;
  options.nsn.num_neighbors = 5;
  options.ssc_omp.max_support = 3;
  auto result = RunSubspaceClustering(data.points, data.num_clusters, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GE(ClusteringAccuracy(data.labels, result->labels), 97.0)
      << ScMethodName(GetParam());
  EXPECT_GT(result->seconds, 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllMethods, PipelineMethodTest,
                         ::testing::Values(ScMethod::kSsc, ScMethod::kSscOmp,
                                           ScMethod::kEnsc, ScMethod::kTsc,
                                           ScMethod::kNsn, ScMethod::kEsc),
                         [](const auto& info) {
                           return ScMethodName(info.param);
                         });

TEST(PipelineTest, NoisyDataStillClusters) {
  SyntheticOptions options;
  options.ambient_dim = 30;
  options.subspace_dim = 3;
  options.num_subspaces = 3;
  options.points_per_subspace = 40;
  options.noise_stddev = 0.03;
  options.seed = 29;
  auto data = GenerateUnionOfSubspaces(options);
  ASSERT_TRUE(data.ok());
  auto result = RunSubspaceClustering(data->points, 3);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(ClusteringAccuracy(data->labels, result->labels), 95.0);
}

TEST(PipelineTest, InvalidClusterCount) {
  EXPECT_FALSE(RunSubspaceClustering(Matrix(3, 5), 0).ok());
  EXPECT_FALSE(RunSubspaceClustering(Matrix(3, 5), 6).ok());
}

TEST(PipelineTest, MethodNames) {
  EXPECT_STREQ(ScMethodName(ScMethod::kSsc), "SSC");
  EXPECT_STREQ(ScMethodName(ScMethod::kSscOmp), "SSCOMP");
  EXPECT_STREQ(ScMethodName(ScMethod::kEnsc), "EnSC");
  EXPECT_STREQ(ScMethodName(ScMethod::kTsc), "TSC");
  EXPECT_STREQ(ScMethodName(ScMethod::kNsn), "NSN");
}

TEST(SscAdmmTest, DeadlineExceededSurfacesAsStatus) {
  const Dataset data = EasySubspaces(4, 60, 31);
  SscAdmmOptions options;
  options.deadline_seconds = 1e-9;  // impossible budget
  EXPECT_EQ(SscSelfExpression(data.points, options).status().code(),
            StatusCode::kDeadlineExceeded);
  options.deadline_seconds = 60.0;  // generous budget: solves normally
  EXPECT_TRUE(SscSelfExpression(data.points, options).ok());
}

// Union of affine subspaces: offset points need the 1^T c = 1 constraint.
Dataset AffineSubspaces(uint64_t seed) {
  Rng rng(seed);
  Dataset data;
  data.num_clusters = 3;
  const int64_t n = 12;
  const int64_t per = 25;
  data.points = Matrix(n, 3 * per);
  for (int64_t l = 0; l < 3; ++l) {
    const Matrix basis = RandomOrthonormalBasis(n, 2, &rng);
    Vector offset(static_cast<size_t>(n));
    for (auto& v : offset) v = 2.0 * rng.Gaussian();
    for (int64_t p = 0; p < per; ++p) {
      double* col = data.points.ColData(l * per + p);
      const Vector coeff = rng.GaussianVector(2);
      Gemv(Trans::kNo, 1.0, basis, coeff.data(), 0.0, col);
      Axpy(1.0, offset.data(), col, n);
      data.labels.push_back(l);
    }
  }
  return data;
}

TEST(SscAdmmTest, AffineConstraintIsSatisfied) {
  const Dataset data = AffineSubspaces(71);
  SscAdmmOptions options;
  options.affine = true;
  options.drop_tol = 0.0;
  options.max_iterations = 400;
  auto c = SscSelfExpression(data.points, options);
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  const Matrix dense = c->ToDense();
  for (int64_t j = 0; j < dense.cols(); ++j) {
    double colsum = 0.0;
    for (int64_t i = 0; i < dense.rows(); ++i) colsum += dense(i, j);
    EXPECT_NEAR(colsum, 1.0, 0.05) << "column " << j;
  }
}

TEST(SscAdmmTest, AffineModeClustersAffineData) {
  const Dataset data = AffineSubspaces(73);
  ScPipelineOptions options;
  options.method = ScMethod::kSsc;
  options.normalize_columns = false;  // normalization destroys offsets
  options.ssc.affine = true;
  auto affine = RunSubspaceClustering(data.points, 3, options);
  ASSERT_TRUE(affine.ok()) << affine.status().ToString();
  EXPECT_GE(ClusteringAccuracy(data.labels, affine->labels), 95.0);
}

TEST(EscTest, ExemplarsAreDistinctAndSpreadAcrossClusters) {
  const Dataset data = EasySubspaces(4, 30, 79);
  EscOptions options;
  options.num_exemplars = 12;
  auto exemplars = SelectExemplars(data.points, options);
  ASSERT_TRUE(exemplars.ok()) << exemplars.status().ToString();
  ASSERT_EQ(exemplars->size(), 12u);
  std::set<int64_t> unique(exemplars->begin(), exemplars->end());
  EXPECT_EQ(unique.size(), 12u);
  // Farthest-first in representation cost must touch every cluster.
  std::set<int64_t> covered;
  for (int64_t e : *exemplars) {
    covered.insert(data.labels[static_cast<size_t>(e)]);
  }
  EXPECT_EQ(covered.size(), 4u);
}

TEST(EscTest, AffinityHoldsSepAndClusters) {
  const Dataset data = EasySubspaces(4, 30, 83);
  EscOptions options;
  options.num_exemplars = 16;
  options.q_neighbors = 5;
  auto w = EscAffinity(data.points, options);
  ASSERT_TRUE(w.ok());
  EXPECT_LT(CrossClusterMass(*w, data.labels), 0.10);

  ScPipelineOptions pipeline;
  pipeline.method = ScMethod::kEsc;
  pipeline.esc = options;
  auto result = RunSubspaceClustering(data.points, 4, pipeline);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(ClusteringAccuracy(data.labels, result->labels), 95.0);
}

TEST(EscTest, Validation) {
  EXPECT_FALSE(EscAffinity(Matrix(3, 1), {}).ok());
  EXPECT_FALSE(EscAffinity(Matrix(3, 5), {.num_exemplars = 0}).ok());
  EXPECT_FALSE(
      EscAffinity(Matrix(3, 5), {.num_exemplars = 2, .q_neighbors = 5}).ok());
}

// Textbook scaled-form ADMM (Boyd et al. 2011, §3.4) for
//   min ||C||_1 + lambda/2 ||X - D C||_F^2,   C(pinned[j], j) = 0,
// computed the long way: a dense inverse of the whole Z-update operator
// (lambda D^T D + rho I, plus rho 1 1^T in affine mode), and the full
// right-hand side rebuilt every iteration. pinned[j] < 0 pins nothing.
Matrix ReferenceAdmm(const Matrix& x, const Matrix& dict,
                     const std::vector<int64_t>& pinned, double lambda,
                     double rho, bool affine, int iterations) {
  const int64_t atoms = dict.cols();
  const int64_t points = x.cols();
  Matrix h = MatMulTN(dict, dict);
  h *= lambda;
  for (int64_t a = 0; a < atoms; ++a) {
    h(a, a) += rho;
    if (affine) {
      for (int64_t b = 0; b < atoms; ++b) h(a, b) += rho;
    }
  }
  const Matrix h_inverse = SpdInverse(h).value();
  Matrix target = MatMulTN(dict, x);
  target *= lambda;
  Matrix c(atoms, points);
  Matrix u(atoms, points);
  Vector dual(static_cast<size_t>(points), 0.0);
  const double threshold = 1.0 / rho;
  for (int it = 0; it < iterations; ++it) {
    Matrix rhs = c;
    rhs -= u;
    rhs *= rho;
    rhs += target;
    if (affine) {
      for (int64_t j = 0; j < points; ++j) {
        for (int64_t a = 0; a < atoms; ++a) {
          rhs(a, j) += rho * (1.0 - dual[static_cast<size_t>(j)]);
        }
      }
    }
    const Matrix z = MatMul(h_inverse, rhs);
    for (int64_t j = 0; j < points; ++j) {
      double z_sum = 0.0;
      for (int64_t a = 0; a < atoms; ++a) {
        const double w = z(a, j) + u(a, j);
        double next = 0.0;
        if (a != pinned[static_cast<size_t>(j)]) {
          if (w > threshold) next = w - threshold;
          if (w < -threshold) next = w + threshold;
        }
        c(a, j) = next;
        u(a, j) += z(a, j) - next;
        z_sum += z(a, j);
      }
      if (affine) dual[static_cast<size_t>(j)] += z_sum - 1.0;
    }
  }
  return c;
}

void ExpectMatchesReference(const Matrix& got, const Matrix& want) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  const double scale = want.MaxAbs();
  ASSERT_GT(scale, 0.0);
  Matrix diff = got;
  diff -= want;
  EXPECT_LE(diff.MaxAbs(), 1e-9 * scale);
}

Matrix UnitSubspaces(int64_t dim, int64_t num_subspaces, int64_t per,
                     uint64_t seed) {
  SyntheticOptions options;
  options.ambient_dim = dim;
  options.subspace_dim = 3;
  options.num_subspaces = num_subspaces;
  options.points_per_subspace = per;
  options.seed = seed;
  Matrix x = GenerateUnionOfSubspaces(options).value().points;
  x.NormalizeColumns();
  return x;
}

constexpr int kReferenceIterations = 25;

// Runs SscSelfExpression for a fixed number of iterations (tol = 0 never
// stops early; drop_tol = 0 keeps every nonzero) against ReferenceAdmm.
void ExpectSscMatchesReference(const Matrix& x, bool affine,
                               bool expect_woodbury) {
  ASSERT_EQ(SscAdmmUsesWoodbury(x.rows(), x.cols()), expect_woodbury);
  SscAdmmOptions options;
  options.affine = affine;
  options.max_iterations = kReferenceIterations;
  options.tol = 0.0;
  options.drop_tol = 0.0;
  auto c = SscSelfExpression(x, options);
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  std::vector<int64_t> diagonal(static_cast<size_t>(x.cols()));
  std::iota(diagonal.begin(), diagonal.end(), 0);
  const Matrix want =
      ReferenceAdmm(x, x, diagonal, SscLambda(x, options.alpha),
                    options.alpha, affine, kReferenceIterations);
  ExpectMatchesReference(c->ToDense(), want);
}

TEST(SscAdmmReferenceTest, DirectFormulationMatchesTextbookAdmm) {
  ExpectSscMatchesReference(UnitSubspaces(64, 4, 20, 101), false, false);
}

TEST(SscAdmmReferenceTest, WoodburyFormulationMatchesTextbookAdmm) {
  ExpectSscMatchesReference(UnitSubspaces(16, 5, 32, 102), false, true);
}

TEST(SscAdmmReferenceTest, AffineModeMatchesTextbookAdmmOnBothFormulations) {
  const Matrix x = AffineSubspaces(103).points;  // 12 x 75
  ExpectSscMatchesReference(x, true, true);
  ExpectSscMatchesReference(x.ColRange(0, 20), true, false);
}

TEST(SscAdmmReferenceTest, SketchedSolverMatchesTextbookAdmm) {
  // 300 points span two column blocks of the sketched solver.
  const Matrix x = UnitSubspaces(16, 5, 60, 104);
  SketchOptions sketch_options;
  sketch_options.dim = 40;
  sketch_options.seed = 7;
  auto sketch = SketchDictionary(x, sketch_options);
  ASSERT_TRUE(sketch.ok()) << sketch.status().ToString();
  const Matrix& b = sketch->dictionary;

  SscAdmmOptions options;
  options.max_iterations = kReferenceIterations;
  options.tol = 0.0;
  options.drop_tol = 0.0;
  auto c = SscSketchedSelfExpression(x, *sketch, options);
  ASSERT_TRUE(c.ok()) << c.status().ToString();

  // Each landmark column's own atom is pinned; lambda = alpha / mu with
  // mu = min_j max_a |b_a^T x_j| over the unpinned atoms.
  std::vector<int64_t> pinned(static_cast<size_t>(x.cols()), -1);
  for (size_t a = 0; a < sketch->landmarks.size(); ++a) {
    pinned[static_cast<size_t>(sketch->landmarks[a])] =
        static_cast<int64_t>(a);
  }
  const Matrix scores = MatMulTN(b, x);
  double mu = std::numeric_limits<double>::infinity();
  for (int64_t j = 0; j < x.cols(); ++j) {
    double max_abs = 0.0;
    for (int64_t a = 0; a < b.cols(); ++a) {
      if (a != pinned[static_cast<size_t>(j)]) {
        max_abs = std::max(max_abs, std::fabs(scores(a, j)));
      }
    }
    mu = std::min(mu, max_abs);
  }
  const Matrix want = ReferenceAdmm(x, b, pinned, options.alpha / mu,
                                    options.alpha, false,
                                    kReferenceIterations);
  ExpectMatchesReference(c->ToDense(), want);
}

// FNV-1a over 64-bit words: pins exact bits in one number.
class Fingerprint {
 public:
  void Mix(uint64_t bits) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (bits >> (8 * byte)) & 0xffU;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void Mix(const double* values, int64_t count) {
    for (int64_t i = 0; i < count; ++i) {
      uint64_t bits = 0;
      std::memcpy(&bits, values + i, sizeof(bits));
      Mix(bits);
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

uint64_t MatrixFingerprint(const Matrix& m) {
  Fingerprint f;
  f.Mix(static_cast<uint64_t>(m.rows()));
  f.Mix(static_cast<uint64_t>(m.cols()));
  f.Mix(m.data(), m.size());
  return f.value();
}

// A sparse matrix's shape, structure and value bits.
uint64_t CoefficientFingerprint(const SparseMatrix& c) {
  Fingerprint f;
  f.Mix(static_cast<uint64_t>(c.rows()));
  f.Mix(static_cast<uint64_t>(c.cols()));
  for (int64_t v : c.row_ptr()) f.Mix(static_cast<uint64_t>(v));
  for (int64_t v : c.col_idx()) f.Mix(static_cast<uint64_t>(v));
  f.Mix(c.values().data(), static_cast<int64_t>(c.values().size()));
  return f.value();
}

// Whether this build's kernels contract a * b + c into one fused
// multiply-add, as Release builds on FMA hosts do (the -O1 sanitizer builds
// do not).
bool KernelsFuseMultiplyAdd() {
  const double x = 1.0 + std::ldexp(1.0, -30);
  double y = -(1.0 + std::ldexp(1.0, -29));
  Axpy(x, &x, &y, 1);  // x * x rounds to -y, so only an FMA leaves 2^-60
  return y != 0.0;
}

// The output pins below were recorded on the default Release build, where
// each solve's input has the pinned `input` bits. A pin says: from these
// input bits, with fused multiply-adds, the solver produces these output
// bits. Other optimization levels generate different synthetic data (an
// -O2 build already differs in the data generator's output), so there only
// the thread-count equality is checked.
bool PinApplies(uint64_t input, uint64_t pinned_input) {
  return input == pinned_input && KernelsFuseMultiplyAdd();
}

// Default-option solves at the (ambient dim, points) shapes the pipeline
// dispatches — a 64-dim device's 20 and 80 points (20^3 sits below the
// blocked-GEMM cutoff), a tall 1024-dim device, the Woodbury side at
// (16, 160), and affine mode on both 64-dim shapes — pinned to the bits the
// solver produced with one Gemm plus one update pass per iteration.
TEST(SscAdmmPinTest, SelfExpressionBitsArePinnedAtOneAndThreeThreads) {
  struct Pin {
    int64_t dim;
    int64_t subspaces;
    int64_t per;
    bool affine;
    uint64_t input;
    uint64_t bits;
  };
  for (const Pin& pin :
       {Pin{64, 4, 5, false, 10141841047967863926ULL,
            11915532036840363541ULL},
        Pin{64, 4, 20, false, 1263233402620887023ULL,
            9753075077178265377ULL},
        Pin{1024, 5, 10, false, 8636109012309681073ULL,
            8804481075559224639ULL},
        Pin{16, 5, 32, false, 15511350186573292372ULL,
            16184848437930021707ULL},
        Pin{64, 4, 5, true, 10141841047967863926ULL,
            1057493813531149286ULL},
        Pin{64, 4, 20, true, 1263233402620887023ULL,
            13129881617814077153ULL}}) {
    const Matrix x = UnitSubspaces(pin.dim, pin.subspaces, pin.per, 151);
    SCOPED_TRACE("n=" + std::to_string(pin.dim) +
                 " N=" + std::to_string(x.cols()) +
                 (pin.affine ? " affine" : ""));
    SscAdmmOptions options;
    options.affine = pin.affine;
    uint64_t serial = 0;
    for (int threads : {1, 3}) {
      options.num_threads = threads;
      auto c = SscSelfExpression(x, options);
      ASSERT_TRUE(c.ok()) << c.status().ToString();
      const uint64_t bits = CoefficientFingerprint(*c);
      if (threads == 1) {
        serial = bits;
      } else {
        EXPECT_EQ(bits, serial);
      }
    }
    if (PinApplies(MatrixFingerprint(x), pin.input)) {
      EXPECT_EQ(serial, pin.bits);
    }
  }
}

// The sketched solver with landmark pins, over two column blocks (256 + 144)
// of a 128-atom dictionary: the many_devices central shape in miniature.
TEST(SscAdmmPinTest, SketchedBitsArePinnedAtOneAndThreeThreads) {
  const Matrix x = UnitSubspaces(64, 8, 50, 152);
  SketchOptions sketch_options;
  sketch_options.dim = 128;
  sketch_options.seed = 9;
  auto sketch = SketchDictionary(x, sketch_options);
  ASSERT_TRUE(sketch.ok()) << sketch.status().ToString();
  ASSERT_EQ(sketch->landmarks.size(), 128U);
  SscAdmmOptions options;
  uint64_t serial = 0;
  for (int threads : {1, 3}) {
    options.num_threads = threads;
    auto c = SscSketchedSelfExpression(x, *sketch, options);
    ASSERT_TRUE(c.ok()) << c.status().ToString();
    const uint64_t bits = CoefficientFingerprint(*c);
    if (threads == 1) {
      serial = bits;
    } else {
      EXPECT_EQ(bits, serial);
    }
  }
  Fingerprint input;
  input.Mix(MatrixFingerprint(x));
  input.Mix(MatrixFingerprint(sketch->dictionary));
  if (PinApplies(input.value(), 10278085905262242281ULL)) {
    EXPECT_EQ(serial, 16051641649896017591ULL);
  }
}

TEST(SscAdmmInfoTest, ConvergedSolveReportsIterationsBelowBudget) {
  const Dataset data = EasySubspaces(3, 30, 91);
  Matrix x = data.points;
  x.NormalizeColumns();

  SscAdmmOptions options;
  // A tolerance this dataset reaches well inside the budget; the point is
  // that a converged solve reports iterations strictly below it.
  options.tol = 1e-2;
  options.max_iterations = 500;
  SscAdmmInfo info;
  auto c = SscSelfExpression(x, options, &info);
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  EXPECT_TRUE(info.converged);
  EXPECT_GT(info.iterations, 0);
  EXPECT_LT(info.iterations, options.max_iterations);
  EXPECT_LT(info.final_residual, options.tol);
  EXPECT_GE(info.final_residual, 0.0);
}

TEST(SscAdmmInfoTest, IterationStarvedSolveReportsNotConverged) {
  const Dataset data = EasySubspaces(3, 20, 92);
  Matrix x = data.points;
  x.NormalizeColumns();

  SscAdmmOptions options;
  options.max_iterations = 2;  // far too few to reach tol
  SscAdmmInfo info;
  auto c = SscSelfExpression(x, options, &info);
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  EXPECT_FALSE(info.converged);
  EXPECT_EQ(info.iterations, options.max_iterations);
  EXPECT_GE(info.final_residual, options.tol);
}

}  // namespace
}  // namespace fedsc
