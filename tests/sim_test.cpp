// Tests for the performance-simulator substrate: thread-map closed forms,
// task-graph structure, DES scheduling invariants, and model properties
// the paper's figures rely on.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "plan/domains.hpp"
#include "sim/scalapack_model.hpp"
#include "sim/simulator.hpp"

namespace pulsarqr::sim {
namespace {

using plan::BoundaryMode;
using plan::PlanConfig;
using plan::TreeKind;

TEST(VdpThreadMap, DomainIndexMatchesEnumeration) {
  const int mt = 29;
  for (auto tree : {TreeKind::Flat, TreeKind::Binary, TreeKind::BinaryOnFlat}) {
    for (auto bm : {BoundaryMode::Fixed, BoundaryMode::Shifted}) {
      for (int h : {1, 3, 4}) {
        PlanConfig cfg{tree, h, bm};
        VdpThreadMap map(mt, 8, cfg, 16);
        for (int k = 0; k < 8; ++k) {
          const auto doms = plan::domains_for_panel(mt, k, cfg);
          for (std::size_t d = 0; d < doms.size(); ++d) {
            EXPECT_EQ(map.domain_index(k, doms[d].head()),
                      static_cast<int>(d))
                << "tree=" << static_cast<int>(tree)
                << " bm=" << static_cast<int>(bm) << " h=" << h << " k=" << k;
          }
        }
      }
    }
  }
}

TEST(VdpThreadMap, FlatThreadIsCyclicInCreationOrder) {
  PlanConfig cfg{TreeKind::BinaryOnFlat, 2, BoundaryMode::Shifted};
  const int mt = 10;
  const int nt = 4;
  const int threads = 7;
  VdpThreadMap map(mt, nt, cfg, threads);
  int expect = 0;
  for (int k = 0; k < nt; ++k) {
    const auto doms = plan::domains_for_panel(mt, k, cfg);
    for (std::size_t d = 0; d < doms.size(); ++d) {
      for (int l = k; l < nt; ++l) {
        EXPECT_EQ(map.flat_thread(k, static_cast<int>(d), l),
                  expect % threads);
        ++expect;
      }
    }
  }
}

TEST(TaskGraph, StructureIsSane) {
  plan::ReductionPlan plan(12, 4, {TreeKind::BinaryOnFlat, 3,
                                   BoundaryMode::Shifted});
  MachineModel mm = MachineModel::kraken();
  CostModel cost(mm, 12 * 32, 4 * 32, 32, 8);
  TaskGraph g = build_task_graph(plan, cost, 2);
  EXPECT_EQ(g.num_tasks, static_cast<int>(plan.ops().size()));
  EXPECT_EQ(g.num_threads, 2 * mm.workers_per_node());
  for (int x = 0; x < g.num_tasks; ++x) {
    EXPECT_GE(g.thread[x], 0);
    EXPECT_LT(g.thread[x], g.num_threads);
    EXPECT_GT(g.duration[x], 0.0f);
    // Edges only point backwards (the plan order is dependency-valid).
    for (auto e = g.pred_offset[x]; e < g.pred_offset[x + 1]; ++e) {
      EXPECT_LT(g.pred_task[e], x);
    }
  }
}

TEST(TaskGraph, FirstTaskHasNoPreds) {
  plan::ReductionPlan plan(6, 3, {TreeKind::Flat, 1, BoundaryMode::Shifted});
  MachineModel mm = MachineModel::kraken();
  CostModel cost(mm, 6 * 8, 3 * 8, 8, 4);
  TaskGraph g = build_task_graph(plan, cost, 1);
  EXPECT_EQ(g.pred_offset[1] - g.pred_offset[0], 0);
}

// The column arrays' (Cholesky, LU) graph: a VDP's later op waits for its
// earlier one (Serial), an op waits for the last writer of each tile it
// touches (Tile), an edge already implied by Serial is not repeated, and
// step k's VDPs continue the cyclic thread count where step k-1 stopped.
TEST(TaskGraph, ColumnGraphHasSerialAndLastWriterEdges) {
  MachineModel mm = MachineModel::kraken();
  mm.cores_per_node = 3;  // 2 workers + proxy
  auto op = [](int k, int j, double s) {
    ColumnTask t;
    t.k = k;
    t.j = j;
    t.seconds = s;
    return t;
  };
  std::vector<ColumnTask> tasks;
  tasks.push_back(op(0, 0, 1.0));
  tasks.back().touch(0, 0, true);
  tasks.push_back(op(0, 1, 2.0));
  tasks.back().touch(0, 0, false);
  tasks.back().touch(0, 1, true);
  tasks.push_back(op(0, 0, 3.0));
  tasks.back().touch(1, 0, true);
  tasks.push_back(op(1, 1, 4.0));
  tasks.back().touch(0, 1, false);
  tasks.back().touch(1, 0, false);
  tasks.back().touch(1, 1, true);
  tasks.push_back(op(1, 1, 5.0));
  tasks.back().touch(1, 1, true);

  const int n = static_cast<int>(tasks.size());
  const TaskGraph g = build_column_task_graph(
      n, 2, 2, mm, 1, [&](int x) { return tasks[static_cast<std::size_t>(x)]; });
  ASSERT_EQ(g.num_tasks, n);
  EXPECT_EQ(g.num_threads, 2);
  EXPECT_EQ(g.workers_per_node, 2);
  EXPECT_EQ(g.duration, (std::vector<float>{1, 2, 3, 4, 5}));
  EXPECT_EQ(g.thread, (std::vector<std::int32_t>{0, 1, 0, 0, 0}));

  using E = std::pair<std::int32_t, EdgeKind>;
  auto preds = [&](int x) {
    std::vector<E> out;
    for (auto e = g.pred_offset[x]; e < g.pred_offset[x + 1]; ++e) {
      out.emplace_back(g.pred_task[e], g.pred_kind[e]);
    }
    return out;
  };
  EXPECT_TRUE(preds(0).empty());
  EXPECT_EQ(preds(1), (std::vector<E>{{0, EdgeKind::Tile}}));
  EXPECT_EQ(preds(2), (std::vector<E>{{0, EdgeKind::Serial}}));
  EXPECT_EQ(preds(3),
            (std::vector<E>{{1, EdgeKind::Tile}, {2, EdgeKind::Tile}}));
  EXPECT_EQ(preds(4), (std::vector<E>{{3, EdgeKind::Serial}}));
}

TEST(Simulator, SingleWorkerEqualsSerialSum) {
  MachineModel mm = MachineModel::kraken();
  mm.cores_per_node = 2;  // 1 worker + proxy
  const int nb = 16;
  plan::ReductionPlan plan(8, 2, {TreeKind::Flat, 1, BoundaryMode::Shifted});
  CostModel cost(mm, 8 * nb, 2 * nb, nb, 8);
  TaskGraph g = build_task_graph(plan, cost, 1);
  auto r = simulate_graph(g, cost, 1.0, 1.0);
  double serial = 0.0;
  for (float d : g.duration) serial += d;
  EXPECT_NEAR(r.seconds, serial, 1e-9 * serial);
  EXPECT_NEAR(r.busy_fraction, 1.0, 1e-9);
}

TEST(Simulator, MoreNodesNeverSlowerMuch) {
  // Communication can make more nodes slightly slower in corner cases,
  // but across a doubling sweep the trend must be monotone non-increasing
  // within a small tolerance.
  MachineModel mm = MachineModel::kraken();
  const PlanConfig cfg{TreeKind::BinaryOnFlat, 6, BoundaryMode::Shifted};
  double prev = 1e300;
  for (int nodes : {1, 2, 4, 8, 16}) {
    auto r = simulate_tree_qr(48 * 192, 4 * 192, 192, 48, cfg, mm, nodes);
    EXPECT_LT(r.seconds, prev * 1.05) << nodes;
    prev = r.seconds;
  }
}

TEST(Simulator, TallSkinnyTreeOrderingMatchesFigure10) {
  // The headline result: hierarchical > binary > flat in useful Gflop/s
  // for a tall-skinny matrix at scale.
  MachineModel mm = MachineModel::kraken();
  const int m = 256 * 192;
  const int n = 8 * 192;
  const int nodes = 96;
  auto hier = simulate_tree_qr(
      m, n, 192, 48, {TreeKind::BinaryOnFlat, 6, BoundaryMode::Shifted}, mm,
      nodes);
  auto bin = simulate_tree_qr(
      m, n, 192, 48, {TreeKind::Binary, 1, BoundaryMode::Shifted}, mm, nodes);
  auto flat = simulate_tree_qr(
      m, n, 192, 48, {TreeKind::Flat, 1, BoundaryMode::Shifted}, mm, nodes);
  EXPECT_GT(hier.useful_gflops, bin.useful_gflops);
  EXPECT_GT(bin.useful_gflops, flat.useful_gflops);
  EXPECT_GT(hier.useful_gflops, 2.5 * flat.useful_gflops);
}

TEST(Simulator, ShiftedBoundariesBeatFixed) {
  // Figure 7's point: shifting the domain boundary pipelines consecutive
  // panels, so it must not be slower than the fixed boundary.
  MachineModel mm = MachineModel::kraken();
  auto shifted = simulate_tree_qr(
      128 * 192, 4 * 192, 192, 48,
      {TreeKind::BinaryOnFlat, 8, BoundaryMode::Shifted}, mm, 16);
  auto fixed = simulate_tree_qr(
      128 * 192, 4 * 192, 192, 48,
      {TreeKind::BinaryOnFlat, 8, BoundaryMode::Fixed}, mm, 16);
  EXPECT_LE(shifted.seconds, fixed.seconds * 1.02);
}

TEST(Simulator, MakespanRespectsLowerBounds) {
  MachineModel mm = MachineModel::kraken();
  const PlanConfig cfg{TreeKind::BinaryOnFlat, 4, BoundaryMode::Shifted};
  const int nb = 64;
  const int m = 32 * nb;
  const int n = 4 * nb;
  plan::ReductionPlan plan(32, 4, cfg);
  CostModel cost(mm, m, n, nb, 16);
  for (int nodes : {1, 4}) {
    TaskGraph g = build_task_graph(plan, cost, nodes);
    auto r = simulate_graph(g, cost, plan::qr_useful_flops(m, n),
                            plan::plan_flops(plan, m, n, nb));
    // Work bound.
    double total = 0.0;
    for (float d : g.duration) total += d;
    EXPECT_GE(r.seconds * g.num_threads, total * 0.999);
    // Longest-task bound.
    EXPECT_GE(r.seconds,
              *std::max_element(g.duration.begin(), g.duration.end()));
    EXPECT_LE(r.busy_fraction, 1.0 + 1e-9);
    EXPECT_GT(r.busy_fraction, 0.0);
  }
}

TEST(Simulator, UsefulVersusActualGflops) {
  MachineModel mm = MachineModel::kraken();
  auto r = simulate_tree_qr(64 * 64, 4 * 64, 64, 16,
                            {TreeKind::Binary, 1, BoundaryMode::Shifted}, mm,
                            4);
  // Tree algorithms do more raw flops than the useful count.
  EXPECT_GT(r.actual_gflops, r.useful_gflops);
}

TEST(Simulator, NicContentionNeverSpeedsUp) {
  MachineModel mm = MachineModel::kraken();
  const PlanConfig cfg{TreeKind::BinaryOnFlat, 4, BoundaryMode::Shifted};
  const auto base = simulate_tree_qr(96 * 128, 8 * 128, 128, 32, cfg, mm, 8);
  mm.model_nic_contention = true;
  const auto cont = simulate_tree_qr(96 * 128, 8 * 128, 128, 32, cfg, mm, 8);
  EXPECT_GE(cont.seconds, base.seconds * 0.999);
}

TEST(Simulator, NicContentionIrrelevantOnOneNode) {
  MachineModel mm = MachineModel::kraken();
  const PlanConfig cfg{TreeKind::Flat, 1, BoundaryMode::Shifted};
  const auto base = simulate_tree_qr(32 * 64, 4 * 64, 64, 16, cfg, mm, 1);
  mm.model_nic_contention = true;
  const auto cont = simulate_tree_qr(32 * 64, 4 * 64, 64, 16, cfg, mm, 1);
  EXPECT_DOUBLE_EQ(cont.seconds, base.seconds);
}

TEST(CostModel, MessageTimesScaleWithSize) {
  MachineModel mm = MachineModel::kraken();
  CostModel small(mm, 1024, 256, 64, 16);
  CostModel large(mm, 1024, 256, 256, 16);
  EXPECT_GT(large.tile_message_seconds(), small.tile_message_seconds());
  EXPECT_GT(small.tile_message_seconds(), mm.link_latency_s);
  EXPECT_GT(small.vt_message_seconds(), small.tile_message_seconds());
}

TEST(Scalapack, GridPrefersTallForTallSkinny) {
  MachineModel mm = MachineModel::kraken();
  auto r = scalapack_qr_model(368640, 4608, 64, mm, 1920);
  EXPECT_GT(r.pr, r.pc);
  EXPECT_EQ(r.pr * r.pc, 1920);
  EXPECT_GT(r.seconds, 0.0);
  EXPECT_GT(r.panel_seconds, 0.0);
}

TEST(Scalapack, LagsTreeQrAtScale) {
  // Section VI-A: LibSci/ScaLAPACK lag tree QR by at least 3x (up to an
  // order of magnitude) for tall-skinny problems at scale.
  MachineModel mm = MachineModel::kraken();
  auto tree = simulate_tree_qr(
      368640, 4608, 192, 48, {TreeKind::BinaryOnFlat, 6,
                              BoundaryMode::Shifted}, mm, 640);
  auto scal = scalapack_qr_model(368640, 4608, 64, mm, 640 * 12);
  EXPECT_GT(scal.seconds / tree.seconds, 3.0);
}

}  // namespace
}  // namespace pulsarqr::sim
