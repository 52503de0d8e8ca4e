// Tests for Q^T application on the systolic array (vsaqr::apply_qt):
// must match the host-side sequential application bitwise, across trees,
// boundary modes, topologies and B shapes.
#include <gtest/gtest.h>

#include "blas/blas.hpp"
#include "common/rng.hpp"
#include "ref/apply_q.hpp"
#include "vsaqr/tree_qr.hpp"

namespace pulsarqr {
namespace {

using plan::BoundaryMode;
using plan::PlanConfig;
using plan::TreeKind;

struct ApplyCase {
  int m, n, nb, ib, nrhs;
  PlanConfig cfg;
  int nodes, workers;
};

class ApplyQtParam : public ::testing::TestWithParam<ApplyCase> {};

TEST_P(ApplyQtParam, BitwiseMatchesHostApply) {
  const ApplyCase& c = GetParam();
  Matrix a0(c.m, c.n);
  fill_random(a0.view(), 600 + c.m + c.n);
  Matrix b0(c.m, c.nrhs);
  fill_random(b0.view(), 601 + c.nrhs);

  // Factorize on the host reference (any path works; factors are factors).
  auto factors =
      ref::tree_qr(TileMatrix::from_dense(a0.view(), c.nb), c.ib, c.cfg);

  // Host-side application (ground truth).
  TileMatrix expect = TileMatrix::from_dense(b0.view(), c.nb);
  ref::apply_q(blas::Trans::Yes, factors, expect);

  // Array-side application.
  vsaqr::TreeQrOptions opt;
  opt.tree = c.cfg;
  opt.ib = c.ib;
  opt.nodes = c.nodes;
  opt.workers_per_node = c.workers;
  opt.watchdog_seconds = 20.0;
  TileMatrix got =
      vsaqr::apply_qt(factors, TileMatrix::from_dense(b0.view(), c.nb), opt);

  ASSERT_EQ(got.rows(), c.m);
  ASSERT_EQ(got.cols(), c.nrhs);
  for (int j = 0; j < c.nrhs; ++j) {
    for (int i = 0; i < c.m; ++i) {
      ASSERT_EQ(got.at(i, j), expect.at(i, j))
          << "Q^T B differs at (" << i << "," << j << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ApplyQtParam,
    ::testing::Values(
        ApplyCase{40, 10, 5, 2, 3,
                  {TreeKind::BinaryOnFlat, 2, BoundaryMode::Shifted}, 1, 2},
        ApplyCase{40, 10, 5, 2, 3,
                  {TreeKind::BinaryOnFlat, 3, BoundaryMode::Fixed}, 2, 2},
        ApplyCase{40, 10, 5, 2, 1, {TreeKind::Flat, 1, BoundaryMode::Shifted},
                  2, 2},
        ApplyCase{40, 10, 5, 2, 7,
                  {TreeKind::Binary, 1, BoundaryMode::Shifted}, 2, 2},
        ApplyCase{33, 9, 5, 3, 4,
                  {TreeKind::BinaryOnFlat, 2, BoundaryMode::Shifted}, 2,
                  2},  // ragged A and B columns
        ApplyCase{64, 8, 8, 4, 2,
                  {TreeKind::BinaryOnFlat, 2, BoundaryMode::Shifted}, 3, 2},
        ApplyCase{24, 24, 6, 3, 5,
                  {TreeKind::BinaryOnFlat, 2, BoundaryMode::Shifted}, 2,
                  2}  // square A
        ));

// Factor once, stream several independent RHS batches through apply
// arrays, solve each: the "factor once, solve many" workflow.
TEST(ApplyQt, FactorOnceSolveMany) {
  const int m = 60;
  const int n = 12;
  const int nb = 6;
  Matrix a0(m, n);
  fill_random_well_conditioned(a0.view(), 71);
  auto factors = ref::tree_qr(
      TileMatrix::from_dense(a0.view(), nb), 3,
      {TreeKind::BinaryOnFlat, 3, BoundaryMode::Shifted});
  Matrix r = ref::extract_r(factors);

  vsaqr::TreeQrOptions opt;
  opt.nodes = 2;
  for (int batch = 0; batch < 3; ++batch) {
    Matrix b(m, 2);
    fill_random(b.view(), 900 + batch);
    TileMatrix qtb = vsaqr::apply_qt(
        factors, TileMatrix::from_dense(b.view(), nb), opt);
    // x = R^{-1} (Q^T b)(0:n) per column; check normal-equation residual.
    for (int c = 0; c < 2; ++c) {
      std::vector<double> x(n);
      for (int i = 0; i < n; ++i) x[i] = qtb.at(i, c);
      blas::trsv(blas::Uplo::Upper, blas::Trans::No, blas::Diag::NonUnit,
                 r.view(), x.data());
      std::vector<double> res(m);
      for (int i = 0; i < m; ++i) res[i] = b(i, c);
      blas::gemv(blas::Trans::No, -1.0, a0.view(), x.data(), 1.0, res.data());
      std::vector<double> atr(n, 0.0);
      blas::gemv(blas::Trans::Yes, 1.0, a0.view(), res.data(), 0.0,
                 atr.data());
      EXPECT_LT(blas::nrm2(n, atr.data()), 1e-10);
    }
  }
}

// The two array-solve paths must agree: factorizing [A | B] with a
// panel-limited plan and factorizing A then streaming B through apply_qt
// compute the same Q^T B with the same kernels.
TEST(ApplyQt, ConsistentWithAugmentedSolve) {
  const int m = 40;
  const int n = 10;
  const int nb = 5;
  const int nrhs = 3;
  Matrix a0(m, n);
  fill_random_well_conditioned(a0.view(), 314);
  Matrix b0(m, nrhs);
  fill_random(b0.view(), 315);
  const PlanConfig cfg{TreeKind::BinaryOnFlat, 2, BoundaryMode::Shifted};

  vsaqr::TreeQrOptions opt;
  opt.tree = cfg;
  opt.ib = 2;
  opt.nodes = 2;
  Matrix x_aug = vsaqr::tree_qr_solve(TileMatrix::from_dense(a0.view(), nb),
                                      b0.view(), opt);

  auto factors = ref::tree_qr(TileMatrix::from_dense(a0.view(), nb), 2, cfg);
  TileMatrix qtb =
      vsaqr::apply_qt(factors, TileMatrix::from_dense(b0.view(), nb), opt);
  Matrix r = ref::extract_r(factors);
  Matrix x_apply(n, nrhs);
  for (int j = 0; j < nrhs; ++j) {
    for (int i = 0; i < n; ++i) x_apply(i, j) = qtb.at(i, j);
  }
  blas::trsm(blas::Side::Left, blas::Uplo::Upper, blas::Trans::No,
             blas::Diag::NonUnit, 1.0, r.view(), x_apply.view());
  for (int j = 0; j < nrhs; ++j) {
    for (int i = 0; i < n; ++i) {
      EXPECT_NEAR(x_apply(i, j), x_aug(i, j),
                  1e-12 * (1.0 + std::abs(x_aug(i, j))));
    }
  }
}

TEST(ApplyQt, RejectsMismatchedB) {
  Matrix a0(20, 8);
  fill_random(a0.view(), 1);
  auto factors = ref::tree_qr(TileMatrix::from_dense(a0.view(), 4), 2,
                              {TreeKind::Flat, 1, BoundaryMode::Shifted});
  vsaqr::TreeQrOptions opt;
  TileMatrix wrong_rows(16, 2, 4);
  EXPECT_THROW(vsaqr::apply_qt(factors, wrong_rows, opt), Error);
  TileMatrix wrong_nb(20, 2, 5);
  EXPECT_THROW(vsaqr::apply_qt(factors, wrong_nb, opt), Error);
}

}  // namespace
}  // namespace pulsarqr
