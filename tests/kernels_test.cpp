// Tests for the six tile kernels: each factor kernel is checked by
// reconstructing the input from its output via the matching apply kernel,
// plus structural and orthogonality properties.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <tuple>
#include <utility>
#include <vector>

#include "blas/blas.hpp"
#include "common/rng.hpp"
#include "kernels/tile_kernels.hpp"

namespace pulsarqr {
namespace {

using blas::Trans;

Matrix random_matrix(int m, int n, std::uint64_t seed) {
  Matrix a(m, n);
  fill_random(a.view(), seed);
  return a;
}

Matrix upper_square(const Matrix& a, int n) {
  Matrix r(n, n);
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i <= j && i < a.rows(); ++i) r(i, j) = a(i, j);
  }
  return r;
}

double max_diff(ConstMatrixView a, ConstMatrixView b) {
  double d = 0.0;
  for (int j = 0; j < a.cols; ++j) {
    for (int i = 0; i < a.rows; ++i) {
      d = std::fmax(d, std::fabs(a(i, j) - b(i, j)));
    }
  }
  return d;
}

// ---- TS kernels ------------------------------------------------------------

class TsParam : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

// tsqrt on [R1; A2] then tsmqr(NoTrans) applied to [R1'; 0] must rebuild the
// stacked input: Q * [R_new; 0] = [R1; A2].
TEST_P(TsParam, TsqrtReconstructsStackedInput) {
  const auto [n, m2, ib] = GetParam();
  // Build R1 as the R factor shape: upper triangular n-by-n.
  Matrix r1 = upper_square(random_matrix(n, n, 301), n);
  Matrix a2 = random_matrix(m2, n, 302);
  Matrix r1_0 = r1;
  Matrix a2_0 = a2;
  Matrix t(std::min(ib, n), n);
  kernels::tsqrt(r1.view(), a2.view(), ib, t.view());
  // R1 must remain upper triangular.
  for (int j = 0; j < n; ++j) {
    for (int i = j + 1; i < n; ++i) EXPECT_DOUBLE_EQ(r1(i, j), 0.0);
  }
  // Reconstruct: C1 = R_new, C2 = 0; apply Q (NoTrans).
  Matrix c1 = r1;
  Matrix c2(m2, n);
  kernels::tsmqr(Trans::No, a2.view(), t.view(), ib, c1.view(), c2.view());
  EXPECT_LT(max_diff(c1.view(), r1_0.view()), 1e-12 * (1 + n));
  EXPECT_LT(max_diff(c2.view(), a2_0.view()), 1e-12 * (1 + n));
}

// Q^T then Q must be the identity on arbitrary stacked data.
TEST_P(TsParam, TsmqrRoundTrip) {
  const auto [n, m2, ib] = GetParam();
  Matrix r1 = upper_square(random_matrix(n, n, 303), n);
  Matrix a2 = random_matrix(m2, n, 304);
  Matrix t(std::min(ib, n), n);
  kernels::tsqrt(r1.view(), a2.view(), ib, t.view());
  const int nc = 5;
  Matrix c1 = random_matrix(n + 2, nc, 305);  // taller than n: extra rows inert
  Matrix c2 = random_matrix(m2, nc, 306);
  Matrix c1_0 = c1;
  Matrix c2_0 = c2;
  kernels::tsmqr(Trans::Yes, a2.view(), t.view(), ib, c1.view(), c2.view());
  kernels::tsmqr(Trans::No, a2.view(), t.view(), ib, c1.view(), c2.view());
  EXPECT_LT(max_diff(c1.view(), c1_0.view()), 1e-12);
  EXPECT_LT(max_diff(c2.view(), c2_0.view()), 1e-12);
  // Rows of C1 beyond n must never be touched.
  kernels::tsmqr(Trans::Yes, a2.view(), t.view(), ib, c1.view(), c2.view());
  for (int j = 0; j < nc; ++j) {
    for (int i = n; i < n + 2; ++i) EXPECT_DOUBLE_EQ(c1(i, j), c1_0(i, j));
  }
}

// The transformation must preserve the Frobenius norm of stacked data
// (orthogonality property).
TEST_P(TsParam, TsmqrPreservesNorm) {
  const auto [n, m2, ib] = GetParam();
  Matrix r1 = upper_square(random_matrix(n, n, 307), n);
  Matrix a2 = random_matrix(m2, n, 308);
  Matrix t(std::min(ib, n), n);
  kernels::tsqrt(r1.view(), a2.view(), ib, t.view());
  Matrix c1 = random_matrix(n, 4, 309);
  Matrix c2 = random_matrix(m2, 4, 310);
  const double before = std::hypot(blas::norm_fro(c1.view()),
                                   blas::norm_fro(c2.view()));
  kernels::tsmqr(Trans::Yes, a2.view(), t.view(), ib, c1.view(), c2.view());
  const double after = std::hypot(blas::norm_fro(c1.view()),
                                  blas::norm_fro(c2.view()));
  EXPECT_NEAR(before, after, 1e-11 * before);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TsParam,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(4, 4, 2),
                      std::make_tuple(8, 8, 8), std::make_tuple(8, 8, 3),
                      std::make_tuple(6, 2, 2),   // short A2 (m2 < n)
                      std::make_tuple(5, 17, 2),  // tall A2
                      std::make_tuple(16, 16, 4)));

// ---- TT kernels ------------------------------------------------------------

class TtParam : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(TtParam, TtqrtReconstructsStackedTriangles) {
  const auto [n, m2, ib] = GetParam();
  Matrix r1 = upper_square(random_matrix(n, n, 311), n);
  // Loser tile: upper triangular content in the top m2 rows, garbage below
  // the diagonal (simulating Householder vectors from the flat phase).
  Matrix a2 = random_matrix(m2, n, 312);
  Matrix a2_upper(m2, n);
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i <= j && i < m2; ++i) a2_upper(i, j) = a2(i, j);
  }
  Matrix r1_0 = r1;
  Matrix a2_0 = a2;  // full tile, including the "V junk"
  Matrix t(std::min(ib, n), n);
  kernels::ttqrt(r1.view(), a2.view(), ib, t.view());
  // Strict-lower part of A2 (old Householder vectors) must be untouched.
  for (int j = 0; j < n; ++j) {
    for (int i = j + 1; i < m2; ++i) EXPECT_DOUBLE_EQ(a2(i, j), a2_0(i, j));
  }
  // Reconstruct [R1_old; triu(A2_old)] = Q [R_new; 0].
  Matrix c1 = r1;
  Matrix c2(m2, n);
  kernels::ttmqr(Trans::No, a2.view(), t.view(), ib, c1.view(), c2.view());
  EXPECT_LT(max_diff(c1.view(), r1_0.view()), 1e-12 * (1 + n));
  EXPECT_LT(max_diff(c2.view(), a2_upper.view()), 1e-12 * (1 + n));
}

TEST_P(TtParam, TtmqrRoundTrip) {
  const auto [n, m2, ib] = GetParam();
  Matrix r1 = upper_square(random_matrix(n, n, 313), n);
  Matrix a2 = random_matrix(m2, n, 314);
  Matrix t(std::min(ib, n), n);
  kernels::ttqrt(r1.view(), a2.view(), ib, t.view());
  Matrix c1 = random_matrix(n, 3, 315);
  Matrix c2 = random_matrix(m2, 3, 316);
  Matrix c1_0 = c1;
  Matrix c2_0 = c2;
  kernels::ttmqr(Trans::Yes, a2.view(), t.view(), ib, c1.view(), c2.view());
  kernels::ttmqr(Trans::No, a2.view(), t.view(), ib, c1.view(), c2.view());
  EXPECT_LT(max_diff(c1.view(), c1_0.view()), 1e-12);
  EXPECT_LT(max_diff(c2.view(), c2_0.view()), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Shapes, TtParam,
                         ::testing::Values(std::make_tuple(1, 1, 1),
                                           std::make_tuple(4, 4, 2),
                                           std::make_tuple(8, 8, 3),
                                           std::make_tuple(6, 3, 2),  // short loser
                                           std::make_tuple(12, 12, 4)));

// ---- geqrt/ormqr as tile kernels -------------------------------------------

// Sub-micro-tile shapes: the fused larf kernel and the small-GEMM tier own
// these sizes, and off-by-ones in their fringe handling show up here first.
TEST(GeqrtTile, TinyShapesReconstruct) {
  for (int m = 1; m <= 9; m += 2) {
    for (int n = 1; n <= 9; n += 2) {
      for (int ib : {1, 2, 4}) {
        SCOPED_TRACE(::testing::Message()
                     << "m=" << m << " n=" << n << " ib=" << ib);
        const int k = std::min(m, n);
        Matrix a = random_matrix(m, n, 331 + 7 * m + n);
        Matrix a0 = a;
        Matrix t(std::min(ib, k), k);
        kernels::geqrt(a.view(), ib, t.view());
        Matrix c = a0;
        kernels::ormqr(Trans::Yes, a.view(), t.view(), ib, c.view());
        for (int j = 0; j < n; ++j) {
          for (int i = 0; i <= std::min(j, m - 1); ++i) {
            EXPECT_NEAR(c(i, j), a(i, j), 1e-12);
          }
          for (int i = j + 1; i < m; ++i) EXPECT_NEAR(c(i, j), 0.0, 1e-12);
        }
      }
    }
  }
}

// Single-precision geqrt/ormqr: same reconstruction property at float
// tolerance, on the batch bench's headline shape and a tiny one.
TEST(GeqrtTileF32, ApplyTransposeYieldsR) {
  const std::pair<int, int> shapes[] = {{64, 16}, {5, 3}};
  for (const auto& [m, n] : shapes) {
    SCOPED_TRACE(::testing::Message() << "m=" << m << " n=" << n);
    const int ib = std::min(4, n);
    MatrixF a(m, n);
    Rng rng(341);
    for (int j = 0; j < n; ++j) {
      for (int i = 0; i < m; ++i) {
        a(i, j) = static_cast<float>(rng.next_symmetric());
      }
    }
    MatrixF a0 = a;
    MatrixF t(ib, n);
    kernels::geqrt(a.view(), ib, t.view());
    MatrixF c = a0;
    kernels::ormqr(Trans::Yes, a.view(), t.view(), ib, c.view());
    const float tol = 1e-4f;
    for (int j = 0; j < n; ++j) {
      for (int i = 0; i <= j; ++i) EXPECT_NEAR(c(i, j), a(i, j), tol);
      for (int i = j + 1; i < m; ++i) EXPECT_NEAR(c(i, j), 0.0f, tol);
    }
  }
}

TEST(GeqrtTile, ApplyTransposeYieldsR) {
  const int m = 12;
  const int n = 6;
  const int ib = 2;
  Matrix a = random_matrix(m, n, 321);
  Matrix a0 = a;
  Matrix t(ib, n);
  kernels::geqrt(a.view(), ib, t.view());
  // Applying Q^T to the original tile must reproduce [R; 0].
  Matrix c = a0;
  kernels::ormqr(Trans::Yes, a.view(), t.view(), ib, c.view());
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i <= j; ++i) EXPECT_NEAR(c(i, j), a(i, j), 1e-12);
    for (int i = j + 1; i < m; ++i) EXPECT_NEAR(c(i, j), 0.0, 1e-12);
  }
}

// ---- T-block, V1 and V2 poison ---------------------------------------------
//
// The apply kernels multiply by each ib-by-ib T block as an upper triangle
// and by V1 as a unit lower triangle, so neither the strict-lower part of
// a T block nor anything on or above V1's diagonal may be read; the TT
// kernels read their triangular V2 only on and above its diagonal. Each
// test runs a kernel twice, once with the unread entries zeroed and once
// holding NaN, and requires bitwise-identical outputs.

bool same_bits(const Matrix& x, const Matrix& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         std::memcmp(x.data(), y.data(),
                     sizeof(double) * x.rows() * x.cols()) == 0;
}

// Copy of the ib-by-n T factor with every entry outside the upper triangle
// of its ib-wide blocks (strict lower, and the rows below a short last
// block) set to `fill`.
Matrix poison_t(const Matrix& t, int ib, double fill) {
  Matrix out = t;
  for (int j = 0; j < out.cols(); ++j) {
    for (int i = j % ib + 1; i < out.rows(); ++i) out(i, j) = fill;
  }
  return out;
}

// Copy of a geqrt factor (V below the diagonal, R on and above it) with R,
// diagonal included, replaced by `fill`.
Matrix poison_v1(const Matrix& v, double fill) {
  Matrix out = v;
  for (int j = 0; j < out.cols(); ++j) {
    for (int i = 0; i <= j && i < out.rows(); ++i) out(i, j) = fill;
  }
  return out;
}

const double kNan = std::numeric_limits<double>::quiet_NaN();

// (n, ib): full blocks, a short last block, a single block, and blocks
// wider than every vector width.
const std::pair<int, int> kPoisonShapes[] = {
    {12, 4}, {13, 5}, {7, 7}, {40, 16}};

// tsmqr (dense V2 below R1) and ttmqr (triangular V2) in one sweep.
TEST(KernelPoison, StackedApplyIgnoresTStrictLower) {
  for (bool tt : {false, true}) {
    for (const auto& [n, ib] : kPoisonShapes) {
      const int m2 = tt ? n : n + 3;
      Matrix r1 = upper_square(random_matrix(n, n, 351), n);
      Matrix v2 = random_matrix(m2, n, 352);
      Matrix t(ib, n);
      if (tt) {
        kernels::ttqrt(r1.view(), v2.view(), ib, t.view());
      } else {
        kernels::tsqrt(r1.view(), v2.view(), ib, t.view());
      }
      for (Trans trans : {Trans::Yes, Trans::No}) {
        SCOPED_TRACE(::testing::Message()
                     << (tt ? "ttmqr" : "tsmqr") << " n=" << n << " ib=" << ib
                     << " trans=" << (trans == Trans::No ? "N" : "T"));
        Matrix out[2][2];
        for (int p = 0; p < 2; ++p) {
          const Matrix tp = poison_t(t, ib, p == 0 ? 0.0 : kNan);
          out[p][0] = random_matrix(n, 9, 353);
          out[p][1] = random_matrix(m2, 9, 354);
          if (tt) {
            kernels::ttmqr(trans, v2.view(), tp.view(), ib, out[p][0].view(),
                           out[p][1].view());
          } else {
            kernels::tsmqr(trans, v2.view(), tp.view(), ib, out[p][0].view(),
                           out[p][1].view());
          }
        }
        EXPECT_TRUE(same_bits(out[0][0], out[1][0]));
        EXPECT_TRUE(same_bits(out[0][1], out[1][1]));
      }
    }
  }
}

// Copy of a TT loser tile with its strict lower part set to `fill`. In a
// tree that part holds the flat phase's Householder vectors, never V2.
Matrix poison_below_diag(const Matrix& a, double fill) {
  Matrix out = a;
  for (int j = 0; j < out.cols(); ++j) {
    for (int i = j + 1; i < out.rows(); ++i) out(i, j) = fill;
  }
  return out;
}

// ttqrt and ttmqr read the loser tile only on and above its diagonal: with
// its strict lower part zero in one run and NaN in the other, R1, V2, T and
// the updated C1/C2 must be bitwise identical, and ttqrt must leave that
// part as it found it. The short losers (m2 < n) end in a trapezoidal V2
// block.
TEST(KernelPoison, TtKernelsNeverReadBelowV2Diagonal) {
  std::vector<std::tuple<int, int, int>> shapes;  // (n, ib, m2)
  for (const auto& [n, ib] : kPoisonShapes) shapes.emplace_back(n, ib, n);
  shapes.emplace_back(13, 5, 7);
  shapes.emplace_back(40, 16, 21);
  for (const auto& [n, ib, m2] : shapes) {
    SCOPED_TRACE(::testing::Message()
                 << "n=" << n << " ib=" << ib << " m2=" << m2);
    const Matrix r1 = upper_square(random_matrix(n, n, 391), n);
    const Matrix a2 = random_matrix(m2, n, 392);
    Matrix r[2], v[2], t[2];
    for (int p = 0; p < 2; ++p) {
      const double fill = p == 0 ? 0.0 : kNan;
      r[p] = r1;
      v[p] = poison_below_diag(a2, fill);
      t[p] = Matrix(ib, n);
      kernels::ttqrt(r[p].view(), v[p].view(), ib, t[p].view());
      EXPECT_TRUE(same_bits(v[p], poison_below_diag(v[p], fill)));
    }
    EXPECT_TRUE(same_bits(r[0], r[1]));
    EXPECT_TRUE(same_bits(t[0], t[1]));
    EXPECT_TRUE(same_bits(v[0], poison_below_diag(v[1], 0.0)));
    for (Trans trans : {Trans::Yes, Trans::No}) {
      SCOPED_TRACE(trans == Trans::No ? "ttmqr N" : "ttmqr T");
      Matrix out[2][2];
      for (int p = 0; p < 2; ++p) {
        const Matrix vp = poison_below_diag(v[0], p == 0 ? 0.0 : kNan);
        out[p][0] = random_matrix(n, 9, 393);
        out[p][1] = random_matrix(m2, 9, 394);
        kernels::ttmqr(trans, vp.view(), t[0].view(), ib, out[p][0].view(),
                       out[p][1].view());
      }
      EXPECT_TRUE(same_bits(out[0][0], out[1][0]));
      EXPECT_TRUE(same_bits(out[0][1], out[1][1]));
    }
  }
}

TEST(KernelPoison, OrmqrIgnoresTStrictLowerAndV1Diagonal) {
  for (const auto& [n, ib] : kPoisonShapes) {
    const int m = n + 9;
    Matrix v = random_matrix(m, n, 371);
    Matrix t(ib, n);
    kernels::geqrt(v.view(), ib, t.view());
    for (Trans trans : {Trans::Yes, Trans::No}) {
      SCOPED_TRACE(::testing::Message()
                   << "n=" << n << " ib=" << ib
                   << " trans=" << (trans == Trans::No ? "N" : "T"));
      Matrix out[2];
      for (int p = 0; p < 2; ++p) {
        const double fill = p == 0 ? 0.0 : kNan;
        const Matrix tp = poison_t(t, ib, fill);
        const Matrix vp = poison_v1(v, fill);
        out[p] = random_matrix(m, 11, 372);
        kernels::ormqr(trans, vp.view(), tp.view(), ib, out[p].view());
      }
      EXPECT_TRUE(same_bits(out[0], out[1]));
    }
  }
}

// geqrt's trailing update reads each panel's V1 while R's diagonal still
// sits in it. Factoring panel by panel — a one-panel geqrt, then ormqr with
// that panel's V1 diagonal and R poisoned with NaN on the trailing
// columns — must reproduce geqrt bitwise.
TEST(KernelPoison, GeqrtIgnoresV1Diagonal) {
  for (const auto& [n, ib] : kPoisonShapes) {
    SCOPED_TRACE(::testing::Message() << "n=" << n << " ib=" << ib);
    const int m = n + 9;
    const Matrix a0 = random_matrix(m, n, 381);
    Matrix a = a0;
    Matrix t(ib, n);
    kernels::geqrt(a.view(), ib, t.view());

    Matrix b = a0;
    Matrix tb(ib, n);
    for (int j = 0; j < n; j += ib) {
      const int kb = std::min(ib, n - j);
      kernels::geqrt(b.view().block(j, j, m - j, kb), kb,
                     tb.view().block(0, j, kb, kb));
      if (j + kb == n) break;
      Matrix vp(m - j, kb);
      blas::lacpy_all(b.view().block(j, j, m - j, kb), vp.view());
      kernels::ormqr(Trans::Yes, poison_v1(vp, kNan).view(),
                     tb.view().block(0, j, kb, kb), kb,
                     b.view().block(j, j + kb, m - j, n - j - kb));
    }
    EXPECT_TRUE(same_bits(a, b));
    EXPECT_TRUE(same_bits(t, tb));
  }
}

}  // namespace
}  // namespace pulsarqr
