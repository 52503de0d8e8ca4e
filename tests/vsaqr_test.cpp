// End-to-end tests of the 3D virtual systolic array QR.
//
// The strongest check: the VSA must produce BITWISE the same factors as
// the sequential reference executor, for every tree configuration, across
// worker/node counts and schedulers — the dataflow wiring fixes each
// tile's kernel sequence, so any wiring bug shows up as a numerical
// difference.
#include <gtest/gtest.h>

#include <cmath>

#include "blas/blas.hpp"
#include "common/rng.hpp"
#include "lapack/qr.hpp"
#include "ref/apply_q.hpp"
#include "ref/reference_qr.hpp"
#include "vsaqr/tree_qr.hpp"

namespace pulsarqr {
namespace {

using plan::BoundaryMode;
using plan::PlanConfig;
using plan::TreeKind;

struct Case {
  int m, n, nb, ib;
  PlanConfig cfg;
  int nodes, workers;
  prt::Scheduling sched;
};

void expect_bitwise_equal(const ref::TreeQrFactors& a,
                          const ref::TreeQrFactors& b) {
  ASSERT_EQ(a.a.rows(), b.a.rows());
  ASSERT_EQ(a.a.cols(), b.a.cols());
  int diffs = 0;
  for (int j = 0; j < a.a.cols() && diffs < 5; ++j) {
    for (int i = 0; i < a.a.rows(); ++i) {
      if (a.a.at(i, j) != b.a.at(i, j)) {
        ADD_FAILURE() << "factor tile data differs at (" << i << "," << j
                      << "): " << a.a.at(i, j) << " vs " << b.a.at(i, j);
        if (++diffs >= 5) break;
      }
    }
  }
}

class VsaQrParam : public ::testing::TestWithParam<Case> {};

TEST_P(VsaQrParam, BitwiseMatchesReference) {
  const Case& c = GetParam();
  Matrix a0(c.m, c.n);
  fill_random(a0.view(), 500 + c.m * 13 + c.n);
  TileMatrix a = TileMatrix::from_dense(a0.view(), c.nb);

  auto reference = ref::tree_qr(TileMatrix::from_dense(a0.view(), c.nb),
                                c.ib, c.cfg);

  vsaqr::TreeQrOptions opt;
  opt.tree = c.cfg;
  opt.ib = c.ib;
  opt.nodes = c.nodes;
  opt.workers_per_node = c.workers;
  opt.scheduling = c.sched;
  opt.watchdog_seconds = 20.0;
  auto run = vsaqr::tree_qr(a, opt);

  EXPECT_EQ(run.stats.leftover_packets, 0);
  expect_bitwise_equal(run.factors, reference);

  // Belt and braces: the factorization is also a valid QR. For wide
  // matrices R is upper trapezoidal: A = Q(:, 0:k) R(0:k, :), k = min(m,n).
  const int kk = std::min(c.m, c.n);
  Matrix q = ref::form_q(run.factors, c.m);
  Matrix r = ref::extract_r(run.factors);
  Matrix qr(c.m, c.n);
  blas::gemm(blas::Trans::No, blas::Trans::No, 1.0,
             q.block(0, 0, c.m, kk), r.block(0, 0, kk, c.n), 0.0, qr.view());
  double err = 0.0;
  for (int j = 0; j < c.n; ++j) {
    for (int i = 0; i < c.m; ++i) {
      err = std::fmax(err, std::fabs(qr(i, j) - a0(i, j)));
    }
  }
  EXPECT_LT(err / (1.0 + blas::norm_max(a0.view())), 1e-12 * c.m);
}

std::vector<Case> all_cases() {
  std::vector<Case> cases;
  const auto lazy = prt::Scheduling::Lazy;
  const auto aggr = prt::Scheduling::Aggressive;
  // Tree sweep on a tall-skinny matrix, single node.
  for (auto bm : {BoundaryMode::Fixed, BoundaryMode::Shifted}) {
    cases.push_back({40, 10, 5, 2, {TreeKind::Flat, 1, bm}, 1, 2, lazy});
    cases.push_back({40, 10, 5, 2, {TreeKind::Binary, 1, bm}, 1, 2, lazy});
    cases.push_back(
        {40, 10, 5, 2, {TreeKind::BinaryOnFlat, 3, bm}, 1, 2, lazy});
  }
  // Multi-node (proxy + deep-copied packets).
  cases.push_back(
      {40, 10, 5, 2, {TreeKind::BinaryOnFlat, 2, BoundaryMode::Shifted},
       3, 2, lazy});
  cases.push_back(
      {40, 10, 5, 2, {TreeKind::Binary, 1, BoundaryMode::Shifted}, 4, 1,
       lazy});
  cases.push_back(
      {40, 10, 5, 2, {TreeKind::Flat, 1, BoundaryMode::Shifted}, 2, 3, lazy});
  // Aggressive scheduling.
  cases.push_back(
      {40, 10, 5, 2, {TreeKind::BinaryOnFlat, 3, BoundaryMode::Shifted},
       2, 2, aggr});
  // Ragged tiles (m, n not multiples of nb).
  cases.push_back(
      {33, 9, 5, 3, {TreeKind::BinaryOnFlat, 2, BoundaryMode::Shifted},
       2, 2, lazy});
  cases.push_back(
      {33, 9, 5, 3, {TreeKind::BinaryOnFlat, 2, BoundaryMode::Fixed},
       1, 3, lazy});
  cases.push_back({31, 7, 4, 4, {TreeKind::Binary, 1, BoundaryMode::Shifted},
                   2, 2, lazy});
  // Square matrix.
  cases.push_back({20, 20, 5, 5, {TreeKind::BinaryOnFlat, 2,
                                  BoundaryMode::Shifted}, 2, 2, lazy});
  // Single tile column (panel only).
  cases.push_back({24, 4, 4, 2, {TreeKind::BinaryOnFlat, 2,
                                 BoundaryMode::Shifted}, 2, 2, lazy});
  // Wide matrix (mt < nt).
  cases.push_back({12, 21, 4, 2, {TreeKind::BinaryOnFlat, 2,
                                  BoundaryMode::Shifted}, 2, 2, lazy});
  // Single tile.
  cases.push_back({5, 4, 8, 3, {TreeKind::Flat, 1, BoundaryMode::Shifted},
                   1, 1, lazy});
  // Large-ish stress with many domains and levels.
  cases.push_back({96, 12, 4, 2, {TreeKind::BinaryOnFlat, 2,
                                  BoundaryMode::Shifted}, 3, 2, lazy});
  cases.push_back({96, 12, 4, 2, {TreeKind::Binary, 1, BoundaryMode::Shifted},
                   3, 2, aggr});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, VsaQrParam, ::testing::ValuesIn(all_cases()));

// Workers that park at once when idle (spin_us = 0) must produce the
// same bits: the wakeup path cannot change a dataflow-determined
// computation.
TEST(VsaQr, ParkedWorkersBitwiseMatchReference) {
  Matrix a0(60, 15);
  fill_random(a0.view(), 808);
  const plan::PlanConfig cfg{TreeKind::BinaryOnFlat, 2,
                             BoundaryMode::Shifted};
  auto reference = ref::tree_qr(TileMatrix::from_dense(a0.view(), 5), 2, cfg);
  for (int nodes : {1, 2}) {
    vsaqr::TreeQrOptions opt;
    opt.tree = cfg;
    opt.ib = 2;
    opt.nodes = nodes;
    opt.workers_per_node = 3;
    opt.spin_us = 0;
    auto run = vsaqr::tree_qr(TileMatrix::from_dense(a0.view(), 5), opt);
    EXPECT_EQ(run.stats.leftover_packets, 0);
    for (int j = 0; j < 15; ++j) {
      for (int i = 0; i < 60; ++i) {
        ASSERT_EQ(run.factors.a.at(i, j), reference.a.at(i, j))
            << "nodes=" << nodes << " at (" << i << "," << j << ")";
      }
    }
  }
}

TEST(VsaQr, DominoIsFlatTree) {
  Matrix a0(30, 10);
  fill_random(a0.view(), 42);
  TileMatrix a = TileMatrix::from_dense(a0.view(), 5);
  vsaqr::TreeQrOptions opt;
  opt.tree = {TreeKind::BinaryOnFlat, 2, BoundaryMode::Shifted};
  opt.ib = 5;
  auto run = vsaqr::domino_qr(a, opt);  // forces the flat tree
  auto reference = ref::tree_qr(
      TileMatrix::from_dense(a0.view(), 5), 5,
      {TreeKind::Flat, 1, BoundaryMode::Shifted});
  EXPECT_EQ(run.factors.plan.config().tree, TreeKind::Flat);
  for (int j = 0; j < 10; ++j) {
    for (int i = 0; i < 30; ++i) {
      EXPECT_EQ(run.factors.a.at(i, j), reference.a.at(i, j));
    }
  }
}

TEST(VsaQr, TraceRecordsAllThreeColors) {
  Matrix a0(48, 12);
  fill_random(a0.view(), 7);
  TileMatrix a = TileMatrix::from_dense(a0.view(), 4);
  vsaqr::TreeQrOptions opt;
  opt.tree = {TreeKind::BinaryOnFlat, 3, BoundaryMode::Shifted};
  opt.ib = 2;
  opt.workers_per_node = 3;
  opt.trace = true;
  auto run = vsaqr::tree_qr(a, opt);
  ASSERT_FALSE(run.events.empty());
  bool seen[3] = {false, false, false};
  for (const auto& e : run.events) {
    ASSERT_GE(e.color, 0);
    ASSERT_LE(e.color, 2);
    seen[e.color] = true;
  }
  EXPECT_TRUE(seen[vsaqr::kColorFactor]);
  EXPECT_TRUE(seen[vsaqr::kColorUpdate]);
  EXPECT_TRUE(seen[vsaqr::kColorBinary]);
  // Total firings: one per (row, column) pass of each step, i.e. the fire
  // count equals the number of plan ops.
  EXPECT_EQ(static_cast<std::size_t>(run.stats.fires),
            run.factors.plan.ops().size());
}

TEST(VsaQr, VdpAndChannelCountsAreSane) {
  Matrix a0(24, 8);
  fill_random(a0.view(), 8);
  TileMatrix a = TileMatrix::from_dense(a0.view(), 4);
  vsaqr::TreeQrOptions opt;
  opt.tree = {TreeKind::BinaryOnFlat, 2, BoundaryMode::Shifted};
  opt.ib = 4;
  auto run = vsaqr::tree_qr(a, opt);
  EXPECT_GT(run.vdp_count, 0);
  EXPECT_GT(run.channel_count, run.vdp_count / 2);
  // mt=6, nt=2: step 0 has 3 domains x 2 columns + binary; step 1 has 3
  // domains x 1 column + binary. Just bound it loosely against explosion.
  EXPECT_LT(run.vdp_count, 64);
}

TEST(VsaQr, LeastSquaresThroughVsaFactors) {
  const int m = 40;
  const int n = 8;
  Matrix a0(m, n);
  fill_random_well_conditioned(a0.view(), 77);
  Rng rng(78);
  std::vector<double> xtrue(n);
  for (auto& v : xtrue) v = rng.next_symmetric();
  std::vector<double> b(m, 0.0);
  blas::gemv(blas::Trans::No, 1.0, a0.view(), xtrue.data(), 0.0, b.data());

  TileMatrix a = TileMatrix::from_dense(a0.view(), 5);
  vsaqr::TreeQrOptions opt;
  opt.tree = {TreeKind::BinaryOnFlat, 2, BoundaryMode::Shifted};
  opt.ib = 5;
  opt.nodes = 2;
  auto run = vsaqr::tree_qr(a, opt);
  const auto x = ref::least_squares(run.factors, b);
  for (int i = 0; i < n; ++i) EXPECT_NEAR(x[i], xtrue[i], 1e-9);
}

TEST(VsaQr, TsqrSinglePanel) {
  // The communication-avoiding TSQR kernel: one tile-column panel reduced
  // by a pure binary tree.
  const int m = 64;
  const int n = 6;
  Matrix a0(m, n);
  fill_random(a0.view(), 999);
  TileMatrix a = TileMatrix::from_dense(a0.view(), 8);
  vsaqr::TreeQrOptions opt;
  opt.ib = 3;
  opt.nodes = 2;
  auto run = vsaqr::tsqr(a, opt);
  EXPECT_EQ(run.factors.plan.config().tree, TreeKind::Binary);
  // R from TSQR must match dense QR up to column signs.
  Matrix r = ref::extract_r(run.factors);
  Matrix ad = a0;
  std::vector<double> tau(n);
  lapack::geqrf(ad.view(), tau.data());
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i <= j; ++i) {
      EXPECT_NEAR(std::fabs(r(i, j)), std::fabs(ad(i, j)), 1e-10);
    }
  }
  // Multi-column panels are rejected.
  TileMatrix wide(16, 12, 4);
  EXPECT_THROW(vsaqr::tsqr(wide, opt), Error);
}

TEST(VsaQr, RejectsBadIb) {
  TileMatrix a(8, 4, 4);
  vsaqr::TreeQrOptions opt;
  opt.ib = 5;  // > nb
  EXPECT_THROW(vsaqr::tree_qr(a, opt), Error);
}

}  // namespace
}  // namespace pulsarqr
