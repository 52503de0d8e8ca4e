// Tests for the Cholesky and LU performance simulations.
#include <gtest/gtest.h>

#include <string>

#include "sim/chol_sim.hpp"
#include "sim/lu_sim.hpp"

namespace pulsarqr::sim {
namespace {

TEST(CholSim, SingleWorkerMatchesSerialWork) {
  MachineModel mm = MachineModel::kraken();
  mm.cores_per_node = 2;  // one worker
  const auto r = simulate_cholesky(8 * 64, 64, mm, 1);
  EXPECT_NEAR(r.busy_fraction, 1.0, 1e-9);
  EXPECT_GT(r.seconds, 0.0);
}

TEST(CholSim, ScalesWithNodes) {
  const MachineModel mm = MachineModel::kraken();
  double prev = 1e300;
  for (int nodes : {1, 2, 4, 8}) {
    const auto r = simulate_cholesky(64 * 192, 192, mm, nodes);
    EXPECT_LT(r.seconds, prev * 1.02) << nodes;
    prev = r.seconds;
  }
}

TEST(CholSim, ActualExceedsUsefulSlightly) {
  // The tile Cholesky does (to leading order) exactly n^3/3 work, so the
  // two rates agree within the tile fringe.
  const auto r = simulate_cholesky(32 * 128, 128, MachineModel::kraken(), 4);
  EXPECT_GE(r.actual_gflops, r.useful_gflops * 0.95);
  EXPECT_LE(r.actual_gflops, r.useful_gflops * 1.6);
}

TEST(CholSim, TaskCountMatchesPlan) {
  const int mt = 20;
  chol::CholPlan plan(mt);
  const auto r = simulate_cholesky(mt * 64, 64, MachineModel::kraken(), 2);
  EXPECT_EQ(r.tasks, static_cast<long long>(plan.ops().size()));
}

TEST(CholSim, UtilizationDecaysUnderStrongScaling) {
  // Fixed problem, growing machine: utilization must fall monotonically
  // (the signature of strong scaling saturation).
  const MachineModel mm = MachineModel::kraken();
  double prev = 1.1;
  for (int nodes : {10, 40, 160}) {
    const auto r = simulate_cholesky(120 * 192, 192, mm, nodes);
    EXPECT_LT(r.busy_fraction, prev);
    prev = r.busy_fraction;
  }
}

TEST(LuSim, ScalesWithNodes) {
  const MachineModel mm = MachineModel::kraken();
  double prev = 1e300;
  for (int nodes : {1, 2, 4, 8}) {
    const auto r = simulate_lu(48 * 192, 48 * 192, 192, mm, nodes);
    EXPECT_LT(r.seconds, prev * 1.02) << nodes;
    prev = r.seconds;
  }
}

TEST(LuSim, TaskCountMatchesPlan) {
  lu::LuPlan plan(12, 12);
  const auto r = simulate_lu(12 * 64, 12 * 64, 64, MachineModel::kraken(), 2);
  EXPECT_EQ(r.tasks, static_cast<long long>(plan.ops().size()));
}

TEST(LuSim, RectangularShapesWork) {
  const MachineModel mm = MachineModel::kraken();
  const auto tall = simulate_lu(64 * 128, 8 * 128, 128, mm, 4);
  const auto wide = simulate_lu(8 * 128, 64 * 128, 128, mm, 4);
  EXPECT_GT(tall.seconds, 0.0);
  EXPECT_GT(wide.seconds, 0.0);
  // Same flop totals to leading order (LU of A and A^T differ only in
  // trsm/gemm shapes), so the times should be within a small factor.
  EXPECT_LT(tall.seconds / wide.seconds, 4.0);
  EXPECT_GT(tall.seconds / wide.seconds, 0.25);
}

TEST(LuSim, SquareLuCostsMoreThanCholesky) {
  // 2n^3/3 vs n^3/3 flops at similar kernel efficiencies; both are partly
  // pipeline-bound at this scale, so the measured ratio sits between 1
  // and the flop ratio of 2.
  const MachineModel mm = MachineModel::kraken();
  const auto l = simulate_lu(64 * 192, 64 * 192, 192, mm, 16);
  const auto c = simulate_cholesky(64 * 192, 192, mm, 16);
  const double ratio = l.seconds / c.seconds;
  EXPECT_GT(ratio, 1.1);
  EXPECT_LT(ratio, 3.5);
}

// Golden values: the exact SimResult of both column simulators at 1, 2
// and 16 nodes (Cholesky n 3000, LU square, tall and wide, nb 128 on the
// Kraken model). Any change to the task graph they build (its mapping,
// its edges or their order) moves at least one of these bits.
TEST(ColumnSims, GoldenResultsAreBitwiseStable) {
  struct Golden {
    const char* what;
    int nodes;
    double seconds, useful_gflops, busy_fraction;
    long long tasks;
    double total_flops;
  };
  const Golden cases[] = {
      {"chol", 1, 0x1.c1fdb3869p-3, 0x1.47afc100a4426p+5,
       0x1.8a3b8c1961271p-1, 2600, 0x1.0c388cfffffffp+33},
      {"lu", 1, 0x1.7243707a5p-2, 0x1.8e3f05e6d2011p+5,
       0x1.df0b4de662eebp-1, 4900, 0x1.0c388cfffffffp+34},
      {"lu_tall", 1, 0x1.2a1e6c5p-3, 0x1.251beb6c8f176p+2,
       0x1.79b27a5cc0fb8p-1, 1608, 0x1.51be82aaaaaaap+32},
      {"lu_wide", 1, 0x1.ce05df2ap-4, 0x1.7a416154a4d9ap+2,
       0x1.ea088196073d6p-1, 1608, 0x1.536546aaaaaaap+32},
      {"chol", 2, 0x1.28dca2834cbdep-3, 0x1.f0b7447b2b5bap+5,
       0x1.2acb49338f871p-1, 2600, 0x1.0c388cfffffffp+33},
      {"lu", 2, 0x1.8443b6577aa26p-3, 0x1.7bc8474ea178fp+6,
       0x1.c8d5939ec102dp-1, 4900, 0x1.0c388cfffffffp+34},
      {"lu_tall", 2, 0x1.4cbd27f0f10dcp-4, 0x1.069cc14203058p+3,
       0x1.52663fe61571p-1, 1608, 0x1.51be82aaaaaaap+32},
      {"lu_wide", 2, 0x1.e4fc7ba9e21b8p-5, 0x1.685879643ffdap+3,
       0x1.d2d4b83a0c18ap-1, 1608, 0x1.536546aaaaaaap+32},
      {"chol", 16, 0x1.8b64a42fea262p-5, 0x1.74ef66982573dp+7,
       0x1.c0ab953a18c14p-3, 2600, 0x1.0c388cfffffffp+33},
      {"lu", 16, 0x1.9f72c2082a26p-5, 0x1.62eea974cf10cp+8,
       0x1.aaf14965314fep-2, 4900, 0x1.0c388cfffffffp+34},
      {"lu_tall", 16, 0x1.8cdcc5a9a6528p-5, 0x1.b85c61c98354ep+3,
       0x1.1bb8dde0c2ff9p-3, 1608, 0x1.51be82aaaaaaap+32},
      {"lu_wide", 16, 0x1.fa904a7c43707p-7, 0x1.58ff18afd9a28p+5,
       0x1.bef22cff67ffp-2, 1608, 0x1.536546aaaaaaap+32},
  };
  const MachineModel mm = MachineModel::kraken();
  for (const Golden& c : cases) {
    SCOPED_TRACE(std::string(c.what) + " on " + std::to_string(c.nodes) +
                 " nodes");
    const std::string what = c.what;
    const SimResult r =
        what == "chol"      ? simulate_cholesky(3000, 128, mm, c.nodes)
        : what == "lu"      ? simulate_lu(3000, 3000, 128, mm, c.nodes)
        : what == "lu_tall" ? simulate_lu(6000, 1000, 128, mm, c.nodes)
                            : simulate_lu(1000, 6000, 128, mm, c.nodes);
    EXPECT_EQ(r.seconds, c.seconds);
    EXPECT_EQ(r.useful_gflops, c.useful_gflops);
    EXPECT_EQ(r.busy_fraction, c.busy_fraction);
    EXPECT_EQ(r.tasks, c.tasks);
    EXPECT_EQ(r.total_flops, c.total_flops);
  }
}

}  // namespace
}  // namespace pulsarqr::sim
