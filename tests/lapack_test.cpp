// Unit tests for the Householder primitives and dense QR drivers.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "blas/blas.hpp"
#include "common/rng.hpp"
#include "lapack/householder.hpp"
#include "lapack/qr.hpp"
#include "lapack/solve.hpp"

namespace pulsarqr {
namespace {

using blas::Trans;

Matrix random_matrix(int m, int n, std::uint64_t seed) {
  Matrix a(m, n);
  fill_random(a.view(), seed);
  return a;
}

double ortho_error(const Matrix& q) {
  // ||Q^T Q - I||_max
  Matrix g(q.cols(), q.cols());
  blas::gemm(Trans::Yes, Trans::No, 1.0, q.view(), q.view(), 0.0, g.view());
  for (int j = 0; j < g.cols(); ++j) g(j, j) -= 1.0;
  return blas::norm_max(g.view());
}

double factorization_error(const Matrix& a0, const Matrix& q, const Matrix& r) {
  Matrix qr(a0.rows(), a0.cols());
  blas::gemm(Trans::No, Trans::No, 1.0, q.view(),
             r.block(0, 0, q.cols(), a0.cols()), 0.0, qr.view());
  double d = 0.0;
  for (int j = 0; j < a0.cols(); ++j) {
    for (int i = 0; i < a0.rows(); ++i) {
      d = std::fmax(d, std::fabs(qr(i, j) - a0(i, j)));
    }
  }
  return d / (1.0 + blas::norm_max(a0.view()));
}

Matrix upper_of(const Matrix& a) {
  const int k = std::min(a.rows(), a.cols());
  Matrix r(k, a.cols());
  for (int j = 0; j < a.cols(); ++j) {
    for (int i = 0; i <= std::min(j, k - 1); ++i) r(i, j) = a(i, j);
  }
  return r;
}

TEST(Larfg, ZeroesTail) {
  std::vector<double> v = {3.0, 4.0, 12.0};
  double alpha = v[0];
  const double tau = lapack::larfg(3, alpha, v.data() + 1);
  // beta = -sign(alpha) * ||[3,4,12]|| = -13
  EXPECT_NEAR(alpha, -13.0, 1e-12);
  EXPECT_GT(tau, 0.0);
  // Check H * x = [beta, 0, 0]: H = I - tau w w^T, w = [1, v1, v2].
  std::vector<double> w = {1.0, v[1], v[2]};
  std::vector<double> x = {3.0, 4.0, 12.0};
  const double wx = blas::dot(3, w.data(), x.data());
  for (int i = 0; i < 3; ++i) x[i] -= tau * wx * w[i];
  EXPECT_NEAR(x[0], -13.0, 1e-12);
  EXPECT_NEAR(x[1], 0.0, 1e-12);
  EXPECT_NEAR(x[2], 0.0, 1e-12);
}

TEST(Larfg, ZeroTailGivesIdentity) {
  std::vector<double> v = {5.0, 0.0, 0.0};
  double alpha = v[0];
  const double tau = lapack::larfg(3, alpha, v.data() + 1);
  EXPECT_DOUBLE_EQ(tau, 0.0);
  EXPECT_DOUBLE_EQ(alpha, 5.0);
}

TEST(Larfg, TinyValuesRescale) {
  std::vector<double> v = {3e-300, 4e-300};
  double alpha = v[0];
  const double tau = lapack::larfg(2, alpha, v.data() + 1);
  EXPECT_NEAR(alpha, -5e-300, 1e-312);
  EXPECT_TRUE(std::isfinite(tau));
}

// A graded f32 column whose norm lies below larfg's safmin = min/(eps/2)
// (2^-102): larfg must enter its rescale loop. The tail's squares
// underflow in f32, so the first nrm2 takes the scaled fallback; after the
// rescale by 1/safmin the recomputed norm takes the one-pass sum. Checked
// in double: |beta| = ||x|| with the sign opposite to x(0), and H x =
// beta e1 to a few ulps of ||x||.
TEST(Larfg, GradedFloatColumnRescales) {
  const int n = 24;
  std::vector<float> x(n);
  for (int i = 0; i < n; ++i) {
    // 1.5 * 2^-104 down to about 2^-127 (the last entries are subnormal).
    x[i] = std::ldexp((i % 2 == 0 ? 1.5f : -1.25f), -104 - i);
  }
  double norm = 0.0;
  for (float v : x) norm += static_cast<double>(v) * v;
  norm = std::sqrt(norm);
  const float safmin = std::numeric_limits<float>::min() /
                       (std::numeric_limits<float>::epsilon() / 2);
  ASSERT_LT(norm, safmin);
  std::vector<float> v = x;
  float alpha = v[0];
  const float tau = lapack::larfg(n, alpha, v.data() + 1);
  const double tol = 8.0 * n * std::numeric_limits<float>::epsilon() * norm;
  EXPECT_NEAR(alpha, -norm, tol);
  ASSERT_TRUE(std::isfinite(tau));
  // H x with H = I - tau w w^T, w = [1, v(1:)].
  double wx = x[0];
  for (int i = 1; i < n; ++i) wx += static_cast<double>(v[i]) * x[i];
  for (int i = 0; i < n; ++i) {
    const double wi = i == 0 ? 1.0 : v[i];
    const double hx = x[i] - static_cast<double>(tau) * wx * wi;
    EXPECT_NEAR(hx, i == 0 ? static_cast<double>(alpha) : 0.0, tol)
        << "row " << i;
  }
}

class DenseQrParam : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(DenseQrParam, Geqr2ReconstructsA) {
  const auto [m, n] = GetParam();
  Matrix a = random_matrix(m, n, 101);
  Matrix a0 = a;
  std::vector<double> tau(std::min(m, n));
  lapack::geqr2(a.view(), tau.data());
  Matrix q = lapack::form_q(a.view(), tau.data(), std::min(m, n));
  EXPECT_LT(ortho_error(q), 1e-13 * m);
  EXPECT_LT(factorization_error(a0, q, upper_of(a)), 1e-13 * m);
}

TEST_P(DenseQrParam, GeqrfMatchesGeqr2UpToRoundoff) {
  const auto [m, n] = GetParam();
  Matrix a = random_matrix(m, n, 103);
  Matrix a0 = a;
  std::vector<double> tau(std::min(m, n));
  lapack::geqrf(a.view(), tau.data(), 5);
  Matrix q = lapack::form_q(a.view(), tau.data(), std::min(m, n));
  EXPECT_LT(ortho_error(q), 1e-13 * m);
  EXPECT_LT(factorization_error(a0, q, upper_of(a)), 1e-13 * m);
}

TEST_P(DenseQrParam, GeqrtAgreesWithGeqrf) {
  const auto [m, n] = GetParam();
  const int ib = 3;
  Matrix a = random_matrix(m, n, 107);
  Matrix b = a;
  const int k = std::min(m, n);
  Matrix t(ib < k ? ib : k, n);
  lapack::geqrt(a.view(), ib, t.view());
  std::vector<double> tau(k);
  lapack::geqrf(b.view(), tau.data(), ib);
  // Same algorithm, same panel split => identical output.
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < m; ++i) EXPECT_DOUBLE_EQ(a(i, j), b(i, j));
  }
}

TEST_P(DenseQrParam, OrmqrTransposeUndoesApply) {
  const auto [m, n] = GetParam();
  if (m < n) GTEST_SKIP();
  Matrix a = random_matrix(m, n, 109);
  std::vector<double> tau(n);
  lapack::geqrf(a.view(), tau.data());
  Matrix c = random_matrix(m, 3, 110);
  Matrix c0 = c;
  lapack::ormqr(Trans::No, a.view(), tau.data(), c.view());
  lapack::ormqr(Trans::Yes, a.view(), tau.data(), c.view());
  for (int j = 0; j < 3; ++j) {
    for (int i = 0; i < m; ++i) EXPECT_NEAR(c(i, j), c0(i, j), 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, DenseQrParam,
                         ::testing::Values(std::make_tuple(1, 1),
                                           std::make_tuple(4, 4),
                                           std::make_tuple(10, 7),
                                           std::make_tuple(7, 10),
                                           std::make_tuple(33, 12),
                                           std::make_tuple(12, 12),
                                           std::make_tuple(64, 16)));

TEST(OrmqrT, MatchesOrmqrTau) {
  const int m = 20;
  const int n = 8;
  const int ib = 3;
  Matrix a = random_matrix(m, n, 113);
  Matrix t(ib, n);
  lapack::geqrt(a.view(), ib, t.view());
  Matrix c = random_matrix(m, 5, 114);
  Matrix c2 = c;
  lapack::ormqr_t(Trans::Yes, a.view(), t.view(), ib, c.view());
  // Independent path: geqrf with the same blocking then ormqr via taus.
  Matrix b = random_matrix(m, n, 113);
  std::vector<double> tau(n);
  lapack::geqrf(b.view(), tau.data(), ib);
  lapack::ormqr(Trans::Yes, b.view(), tau.data(), c2.view(), ib);
  for (int j = 0; j < 5; ++j) {
    for (int i = 0; i < m; ++i) EXPECT_NEAR(c(i, j), c2(i, j), 1e-12);
  }
}

TEST(LeastSquares, RecoversPlantedSolution) {
  const int m = 60;
  const int n = 11;
  Matrix a(m, n);
  fill_random_well_conditioned(a.view(), 201);
  Rng rng(202);
  std::vector<double> xtrue(n);
  for (auto& v : xtrue) v = rng.next_symmetric();
  std::vector<double> b(m, 0.0);
  blas::gemv(Trans::No, 1.0, a.view(), xtrue.data(), 0.0, b.data());
  Matrix awork = a;
  const auto x = lapack::least_squares(awork.view(), b);
  for (int i = 0; i < n; ++i) EXPECT_NEAR(x[i], xtrue[i], 1e-10);
  EXPECT_LT(lapack::residual_norm(a.view(), x, b), 1e-10);
}

TEST(LeastSquares, ResidualIsOrthogonalToRange) {
  const int m = 40;
  const int n = 7;
  Matrix a(m, n);
  fill_random_well_conditioned(a.view(), 203);
  Rng rng(204);
  std::vector<double> b(m);
  for (auto& v : b) v = rng.next_symmetric();
  Matrix awork = a;
  const auto x = lapack::least_squares(awork.view(), b);
  // r = b - A x must satisfy A^T r = 0.
  std::vector<double> r = b;
  blas::gemv(Trans::No, -1.0, a.view(), x.data(), 1.0, r.data());
  std::vector<double> atr(n, 0.0);
  blas::gemv(Trans::Yes, 1.0, a.view(), r.data(), 0.0, atr.data());
  for (int j = 0; j < n; ++j) EXPECT_NEAR(atr[j], 0.0, 1e-10);
}

TEST(LeastSquares, RejectsBadShapes) {
  Matrix a(3, 5);
  EXPECT_THROW(lapack::least_squares(a.view(), std::vector<double>(3)), Error);
  Matrix b(5, 3);
  EXPECT_THROW(lapack::least_squares(b.view(), std::vector<double>(4)), Error);
}

}  // namespace
}  // namespace pulsarqr
