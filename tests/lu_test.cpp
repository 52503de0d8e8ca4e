// Tests for the LU stack: dense no-pivot kernels, tile plan, sequential
// reference executor, and the PULSAR-mapped systolic LU (bitwise against
// the reference).
#include <gtest/gtest.h>

#include <cmath>

#include "blas/blas.hpp"
#include "common/rng.hpp"
#include "lapack/lu.hpp"
#include "lu/vsa_lu.hpp"

namespace pulsarqr {
namespace {

using blas::Diag;
using blas::Trans;
using blas::Uplo;

// ||A - L U|| / ||A|| from packed factors.
double lu_reconstruction_error(const Matrix& a, const Matrix& f) {
  const int m = a.rows();
  const int n = a.cols();
  const int k = std::min(m, n);
  Matrix l(m, k);
  Matrix u(k, n);
  for (int j = 0; j < k; ++j) {
    l(j, j) = 1.0;
    for (int i = j + 1; i < m; ++i) l(i, j) = f(i, j);
  }
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i <= j && i < k; ++i) u(i, j) = f(i, j);
  }
  Matrix rec(m, n);
  blas::gemm(Trans::No, Trans::No, 1.0, l.view(), u.view(), 0.0, rec.view());
  double err = 0.0;
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < m; ++i) {
      err = std::fmax(err, std::fabs(rec(i, j) - a(i, j)));
    }
  }
  return err / (1.0 + blas::norm_max(a.view()));
}

class GetrfParam : public ::testing::TestWithParam<std::tuple<int, int, int>> {
};

TEST_P(GetrfParam, FactorReconstructsA) {
  const auto [m, n, nb] = GetParam();
  Matrix a = lu::random_diag_dominant(m, n, 40 + m + n);
  Matrix f = a;
  lapack::getrf_nopiv(f.view(), nb);
  EXPECT_LT(lu_reconstruction_error(a, f), 1e-13 * std::max(m, n));
}

INSTANTIATE_TEST_SUITE_P(Shapes, GetrfParam,
                         ::testing::Values(std::make_tuple(1, 1, 4),
                                           std::make_tuple(8, 8, 3),
                                           std::make_tuple(20, 12, 5),
                                           std::make_tuple(12, 20, 5),
                                           std::make_tuple(32, 32, 32),
                                           std::make_tuple(33, 33, 8)));

TEST(Getf2, RejectsZeroPivot) {
  Matrix a(2, 2);
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;  // a(0,0) == 0
  EXPECT_THROW(lapack::getf2_nopiv(a.view()), Error);
}

TEST(Getrs, SolvesSystem) {
  const int n = 24;
  Matrix a = lu::random_diag_dominant(n, n, 9);
  Rng rng(10);
  std::vector<double> xtrue(n);
  for (auto& v : xtrue) v = rng.next_symmetric();
  std::vector<double> b(n, 0.0);
  blas::gemv(Trans::No, 1.0, a.view(), xtrue.data(), 0.0, b.data());
  Matrix f = a;
  lapack::getrf_nopiv(f.view());
  lapack::getrs_nopiv(f.view(), b.data());
  for (int i = 0; i < n; ++i) EXPECT_NEAR(b[i], xtrue[i], 1e-11);
}

TEST(LuPlan, OpCounts) {
  lu::LuPlan plan(4, 4);
  int getrf = 0, tu = 0, tl = 0, gemm = 0;
  for (const auto& op : plan.ops()) {
    switch (op.kind) {
      case lu::OpKind::Getrf: ++getrf; break;
      case lu::OpKind::TrsmU: ++tu; break;
      case lu::OpKind::TrsmL: ++tl; break;
      case lu::OpKind::Gemm: ++gemm; break;
    }
  }
  EXPECT_EQ(getrf, 4);
  EXPECT_EQ(tu, 6);
  EXPECT_EQ(tl, 6);
  EXPECT_EQ(gemm, 1 + 4 + 9);
}

TEST(LuPlan, FlopsMatchClassicalCount) {
  const int nb = 8;
  const int n = 12 * nb;
  lu::LuPlan plan(n / nb, n / nb);
  EXPECT_NEAR(lu::plan_flops(plan, n, n, nb), lu::lu_useful_flops(n),
              0.2 * lu::lu_useful_flops(n));
}

class TileLuParam
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(TileLuParam, MatchesDenseGetrf) {
  const auto [m, n, nb] = GetParam();
  Matrix a = lu::random_diag_dominant(m, n, 400 + m + n);
  TileMatrix ft = lu::tile_lu(TileMatrix::from_dense(a.view(), nb));
  Matrix f = ft.to_dense();
  EXPECT_LT(lu_reconstruction_error(a, f), 1e-12 * std::max(m, n));
  Matrix fd = a;
  lapack::getrf_nopiv(fd.view(), nb);
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < m; ++i) {
      EXPECT_NEAR(f(i, j), fd(i, j), 1e-10 * (1.0 + std::fabs(fd(i, j))));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, TileLuParam,
                         ::testing::Values(std::make_tuple(20, 20, 5),
                                           std::make_tuple(23, 23, 5),
                                           std::make_tuple(30, 18, 6),
                                           std::make_tuple(18, 30, 6),
                                           std::make_tuple(16, 16, 16)));

TEST(LuSolve, SolvesThroughTiles) {
  const int n = 30;
  Matrix a = lu::random_diag_dominant(n, n, 77);
  Rng rng(78);
  std::vector<double> xtrue(n);
  for (auto& v : xtrue) v = rng.next_symmetric();
  std::vector<double> b(n, 0.0);
  blas::gemv(Trans::No, 1.0, a.view(), xtrue.data(), 0.0, b.data());
  TileMatrix f = lu::tile_lu(TileMatrix::from_dense(a.view(), 7));
  const auto x = lu::lu_solve(f, b);
  for (int i = 0; i < n; ++i) EXPECT_NEAR(x[i], xtrue[i], 1e-11);
}

struct VsaLuCase {
  int m, n, nb, nodes, workers;
  bool park = false;  ///< spin_us = 0: an idle worker parks at once
};

class VsaLuParam : public ::testing::TestWithParam<VsaLuCase> {};

TEST_P(VsaLuParam, BitwiseMatchesReference) {
  const VsaLuCase& c = GetParam();
  Matrix a = lu::random_diag_dominant(c.m, c.n, 500 + c.m + c.n);
  TileMatrix ref = lu::tile_lu(TileMatrix::from_dense(a.view(), c.nb));
  lu::VsaLuOptions opt;
  opt.nodes = c.nodes;
  opt.workers_per_node = c.workers;
  if (c.park) opt.spin_us = 0;
  opt.watchdog_seconds = 20.0;
  auto run = lu::vsa_lu(TileMatrix::from_dense(a.view(), c.nb), opt);
  EXPECT_EQ(run.stats.leftover_packets, 0);
  for (int j = 0; j < c.n; ++j) {
    for (int i = 0; i < c.m; ++i) {
      ASSERT_EQ(run.f.at(i, j), ref.at(i, j))
          << "factors differ at (" << i << "," << j << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, VsaLuParam,
    ::testing::Values(VsaLuCase{20, 20, 5, 1, 1},
                      VsaLuCase{20, 20, 5, 2, 2},
                      VsaLuCase{20, 20, 5, 2, 2, true},
                      VsaLuCase{33, 33, 5, 2, 2},  // ragged
                      VsaLuCase{30, 18, 6, 2, 2},  // tall
                      VsaLuCase{18, 30, 6, 2, 2},  // wide
                      VsaLuCase{5, 5, 8, 1, 2},    // single tile
                      VsaLuCase{48, 48, 6, 3, 2, true},
                      VsaLuCase{48, 42, 6, 4, 1}));

// One prt::Vsa::Config reaches the driver: the reliable protocol and a
// drop-only fault plan set on the LU options run in the proxies, which
// retransmit what the fabric dropped. The factors are still bitwise.
TEST(VsaLu, RuntimeConfigReachesTheDriver) {
  Matrix a = lu::random_diag_dominant(40, 40, 19);
  TileMatrix ref = lu::tile_lu(TileMatrix::from_dense(a.view(), 8));
  lu::VsaLuOptions opt;
  opt.nodes = 2;
  opt.workers_per_node = 1;
  opt.reliable_transport = true;
  opt.retransmit_timeout_us = 800;
  opt.max_retransmits = 30;
  opt.fault_plan.seed = 19;
  opt.fault_plan.drop = 0.3;
  auto run = lu::vsa_lu(TileMatrix::from_dense(a.view(), 8), opt);
  ASSERT_GT(run.stats.remote_messages, 0);
  EXPECT_GT(run.stats.faults.dropped, 0);
  EXPECT_GT(run.stats.retransmits, 0);
  for (int j = 0; j < 40; ++j) {
    for (int i = 0; i < 40; ++i) {
      ASSERT_EQ(run.f.at(i, j), ref.at(i, j)) << "at (" << i << "," << j << ")";
    }
  }
}

TEST(VsaLu, FireCountMatchesStructure) {
  // P(k) fires mt-k, each of the nt-k-1 update VDPs fires mt-k.
  const int mt = 4;
  Matrix a = lu::random_diag_dominant(4 * 5, 4 * 5, 3);
  lu::VsaLuOptions opt;
  auto run = lu::vsa_lu(TileMatrix::from_dense(a.view(), 5), opt);
  long long expect = 0;
  for (int k = 0; k < mt; ++k) expect += (mt - k) * (1 + (mt - k - 1));
  EXPECT_EQ(run.stats.fires, expect);
}

}  // namespace
}  // namespace pulsarqr
