// Tests for the Cholesky stack: dense kernels, tile plan, sequential
// reference executor, and the PULSAR-mapped systolic Cholesky (checked
// bitwise against the reference).
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "blas/blas.hpp"
#include "chol/vsa_chol.hpp"
#include "common/rng.hpp"
#include "lapack/cholesky.hpp"

namespace pulsarqr {
namespace {

using blas::Trans;

double reconstruction_error(const Matrix& a, const Matrix& l) {
  const int n = a.rows();
  Matrix llt(n, n);
  blas::gemm(Trans::No, Trans::Yes, 1.0, l.view(), l.view(), 0.0, llt.view());
  double err = 0.0;
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < n; ++i) {
      err = std::fmax(err, std::fabs(llt(i, j) - a(i, j)));
    }
  }
  return err / (1.0 + blas::norm_max(a.view()));
}

// ---- dense kernels ---------------------------------------------------------

class PotrfParam : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(PotrfParam, FactorReconstructsA) {
  const auto [n, nb] = GetParam();
  Matrix a = chol::random_spd(n, 17 + n);
  Matrix l = a;
  lapack::potrf(l.view(), nb);
  // Strict upper triangle must be zeroed.
  for (int j = 1; j < n; ++j) {
    for (int i = 0; i < j; ++i) EXPECT_DOUBLE_EQ(l(i, j), 0.0);
  }
  EXPECT_LT(reconstruction_error(a, l), 1e-13 * n);
}

INSTANTIATE_TEST_SUITE_P(Shapes, PotrfParam,
                         ::testing::Values(std::make_tuple(1, 4),
                                           std::make_tuple(5, 2),
                                           std::make_tuple(16, 16),
                                           std::make_tuple(33, 8),
                                           std::make_tuple(64, 13)));

TEST(Potf2, RejectsIndefiniteMatrix) {
  Matrix a(2, 2);
  a(0, 0) = 1.0;
  a(1, 1) = -1.0;
  EXPECT_THROW(lapack::potf2(a.view()), Error);
}

TEST(Potrs, SolvesSpdSystem) {
  const int n = 20;
  Matrix a = chol::random_spd(n, 5);
  Rng rng(6);
  std::vector<double> xtrue(n);
  for (auto& v : xtrue) v = rng.next_symmetric();
  std::vector<double> b(n, 0.0);
  blas::gemv(Trans::No, 1.0, a.view(), xtrue.data(), 0.0, b.data());
  Matrix l = a;
  lapack::potrf(l.view());
  lapack::potrs(l.view(), b.data());
  for (int i = 0; i < n; ++i) EXPECT_NEAR(b[i], xtrue[i], 1e-10);
}

// ---- plan ------------------------------------------------------------------

TEST(CholPlan, OpCountAndCoverage) {
  const int mt = 5;
  chol::CholPlan plan(mt);
  int potrf = 0, trsm = 0, syrk = 0, gemm = 0;
  for (const auto& op : plan.ops()) {
    switch (op.kind) {
      case chol::OpKind::Potrf: ++potrf; break;
      case chol::OpKind::Trsm: ++trsm; break;
      case chol::OpKind::Syrk: ++syrk; break;
      case chol::OpKind::Gemm: ++gemm; break;
    }
  }
  EXPECT_EQ(potrf, mt);
  EXPECT_EQ(trsm, mt * (mt - 1) / 2);
  EXPECT_EQ(syrk, mt * (mt - 1) / 2);
  EXPECT_EQ(gemm, mt * (mt - 1) * (mt - 2) / 6);
}

TEST(CholPlan, FlopsMatchClassicalCount) {
  const int nb = 8;
  const int n = 10 * nb;
  chol::CholPlan plan(n / nb);
  const double got = chol::plan_flops(plan, n, nb);
  const double expect = chol::chol_useful_flops(n);
  // The tile algorithm with triangular kernels matches n^3/3 to leading
  // order (within the nb/n fringe).
  EXPECT_NEAR(got, expect, 0.35 * expect);
}

// ---- reference executor ----------------------------------------------------

class TileCholParam : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(TileCholParam, MatchesDensePotrf) {
  const auto [n, nb] = GetParam();
  Matrix a = chol::random_spd(n, 100 + n);
  TileMatrix at = TileMatrix::from_dense(a.view(), nb);
  TileMatrix lt = chol::tile_cholesky(std::move(at));
  Matrix l = chol::extract_l(lt);
  EXPECT_LT(reconstruction_error(a, l), 1e-12 * n);

  Matrix ld = a;
  lapack::potrf(ld.view());
  for (int j = 0; j < n; ++j) {
    for (int i = j; i < n; ++i) {
      EXPECT_NEAR(l(i, j), ld(i, j), 1e-10 * (1.0 + std::fabs(ld(i, j))));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, TileCholParam,
                         ::testing::Values(std::make_tuple(4, 4),
                                           std::make_tuple(20, 5),
                                           std::make_tuple(23, 5),
                                           std::make_tuple(48, 8),
                                           std::make_tuple(30, 30)));

TEST(CholSolve, SolvesThroughTiles) {
  const int n = 35;
  Matrix a = chol::random_spd(n, 71);
  Rng rng(72);
  std::vector<double> xtrue(n);
  for (auto& v : xtrue) v = rng.next_symmetric();
  std::vector<double> b(n, 0.0);
  blas::gemv(Trans::No, 1.0, a.view(), xtrue.data(), 0.0, b.data());
  TileMatrix lt =
      chol::tile_cholesky(TileMatrix::from_dense(a.view(), 6));
  const auto x = chol::chol_solve(lt, b);
  for (int i = 0; i < n; ++i) EXPECT_NEAR(x[i], xtrue[i], 1e-10);
}

// ---- the systolic array ----------------------------------------------------

struct VsaCholCase {
  int n, nb, nodes, workers;
  prt::Scheduling sched;
};

class VsaCholParam : public ::testing::TestWithParam<VsaCholCase> {};

TEST_P(VsaCholParam, BitwiseMatchesReference) {
  const VsaCholCase& c = GetParam();
  Matrix a = chol::random_spd(c.n, 300 + c.n);
  TileMatrix at = TileMatrix::from_dense(a.view(), c.nb);
  TileMatrix ref = chol::tile_cholesky(TileMatrix::from_dense(a.view(), c.nb));

  chol::VsaCholOptions opt;
  opt.nodes = c.nodes;
  opt.workers_per_node = c.workers;
  opt.scheduling = c.sched;
  opt.watchdog_seconds = 20.0;
  auto run = chol::vsa_cholesky(at, opt);
  EXPECT_EQ(run.stats.leftover_packets, 0);
  for (int j = 0; j < c.n; ++j) {
    for (int i = j; i < c.n; ++i) {
      ASSERT_EQ(run.l.at(i, j), ref.at(i, j))
          << "L differs at (" << i << "," << j << ")";
    }
  }
  // And it is a valid factorization.
  EXPECT_LT(reconstruction_error(a, chol::extract_l(run.l)), 1e-12 * c.n);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, VsaCholParam,
    ::testing::Values(
        VsaCholCase{20, 5, 1, 1, prt::Scheduling::Lazy},
        VsaCholCase{20, 5, 1, 3, prt::Scheduling::Lazy},
        VsaCholCase{20, 5, 2, 2, prt::Scheduling::Lazy},
        VsaCholCase{20, 5, 2, 2, prt::Scheduling::Aggressive},
        VsaCholCase{33, 5, 2, 2, prt::Scheduling::Lazy},  // ragged tiles
        VsaCholCase{5, 8, 1, 2, prt::Scheduling::Lazy},   // single tile
        VsaCholCase{64, 8, 3, 2, prt::Scheduling::Lazy},
        VsaCholCase{48, 4, 4, 1, prt::Scheduling::Aggressive}));

// Workers that park at once when idle (spin_us = 0) produce the same
// bits as the sequential tile Cholesky.
TEST(VsaChol, ParkedWorkersBitwiseMatchReference) {
  Matrix a = chol::random_spd(44, 21);
  TileMatrix ref = chol::tile_cholesky(TileMatrix::from_dense(a.view(), 5));
  chol::VsaCholOptions opt;
  opt.nodes = 2;
  opt.workers_per_node = 3;
  opt.spin_us = 0;
  auto run = chol::vsa_cholesky(TileMatrix::from_dense(a.view(), 5), opt);
  EXPECT_EQ(run.stats.leftover_packets, 0);
  for (int j = 0; j < 44; ++j) {
    for (int i = j; i < 44; ++i) {
      ASSERT_EQ(run.l.at(i, j), ref.at(i, j));
    }
  }
}

TEST(VsaChol, IndefiniteMatrixFailsWithTheVdpReport) {
  // A diagonal matrix with one negative entry: the potrf VDP of that
  // diagonal tile, P(3) = (0,3) at nb 64, throws; run() reports it.
  Matrix a(256, 256);
  for (int i = 0; i < 256; ++i) a(i, i) = i == 200 ? -1.0 : 1.0;
  chol::VsaCholOptions opt;
  opt.workers_per_node = 2;
  try {
    chol::vsa_cholesky(TileMatrix::from_dense(a.view(), 64), opt);
    FAIL() << "an indefinite matrix factored";
  } catch (const prt::Vsa::RunError& e) {
    EXPECT_EQ(e.report().reason, "vdp");
    EXPECT_EQ(e.report().failed_vdp, prt::Tuple({0, 3}));
    EXPECT_NE(e.report().vdp_error.find("not positive definite"),
              std::string::npos)
        << e.report().vdp_error;
  }
}

TEST(VsaChol, TraceHasBothColors) {
  Matrix a = chol::random_spd(40, 9);
  TileMatrix at = TileMatrix::from_dense(a.view(), 8);
  chol::VsaCholOptions opt;
  opt.workers_per_node = 2;
  opt.trace = true;
  auto run = chol::vsa_cholesky(at, opt);
  ASSERT_FALSE(run.events.empty());
  bool panel = false, update = false;
  for (const auto& e : run.events) {
    if (e.color == chol::kCholPanel) panel = true;
    if (e.color == chol::kCholUpdate) update = true;
  }
  EXPECT_TRUE(panel);
  EXPECT_TRUE(update);
  // Fire count: P(k) fires mt-k times, S(k,j) fires mt-k-1 times.
  const int mt = 5;
  long long expect = 0;
  for (int k = 0; k < mt; ++k) {
    expect += mt - k + static_cast<long long>(mt - k - 1) * (mt - k - 1);
  }
  EXPECT_EQ(run.stats.fires, expect);
}

// One prt::Vsa::Config reaches the driver: coalesce_bytes switches the
// proxies' egress coalescing off (no aggregates) or leaves it at the
// default (every inter-node frame rides an aggregate). The factor is
// bitwise identical either way.
TEST(VsaChol, CoalesceBytesReachesTheRuntime) {
  Matrix a = chol::random_spd(40, 17);
  TileMatrix ref = chol::tile_cholesky(TileMatrix::from_dense(a.view(), 8));
  for (const bool coalesce : {false, true}) {
    chol::VsaCholOptions opt;
    opt.nodes = 2;
    opt.workers_per_node = 1;
    if (!coalesce) opt.coalesce_bytes = 0;
    auto run = chol::vsa_cholesky(TileMatrix::from_dense(a.view(), 8), opt);
    ASSERT_GT(run.stats.remote_messages, 0);
    if (coalesce) {
      EXPECT_GT(run.stats.aggregates_sent, 0);
    } else {
      EXPECT_EQ(run.stats.aggregates_sent, 0);
    }
    for (int j = 0; j < 40; ++j) {
      for (int i = j; i < 40; ++i) {
        ASSERT_EQ(run.l.at(i, j), ref.at(i, j)) << "coalesce " << coalesce;
      }
    }
  }
}

TEST(VsaChol, RejectsNonSquare) {
  TileMatrix a(8, 12, 4);
  chol::VsaCholOptions opt;
  EXPECT_THROW(chol::vsa_cholesky(a, opt), Error);
}

}  // namespace
}  // namespace pulsarqr
