// The plan predicts the run's traffic and its firings. GraphCheck's flow
// analysis knows, per channel, how many packets the producer delivers and
// whether its endpoints sit on different nodes; on 2 nodes the frames the
// proxies send must equal the packets those remote channels carry, and
// their payload bytes must fit the channels' declared packet sizes. Its
// per-node firing totals (the VDPs' initial counters) must equal the
// firings the run reports. QR on the flat, binary and hierarchical trees,
// Cholesky and LU, each with the frame coalescer on and off (coalescing
// repackages frames, it must not change how many cross), in process and
// over the socket transport. The last tests pin tree QR's node-blocked
// placement of the flat VDPs by the traffic and firings it plans.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>

#include "chol/reference_chol.hpp"
#include "chol/vsa_chol.hpp"
#include "common/rng.hpp"
#include "lu/reference_lu.hpp"
#include "lu/vsa_lu.hpp"
#include "plan/domains.hpp"
#include "prt/graph_check.hpp"
#include "ref/apply_q.hpp"
#include "vsaqr/tree_qr.hpp"

namespace pulsarqr {
namespace {

void expect_predicted(const prt::GraphReport& rep,
                      const prt::Vsa::RunStats& stats) {
  ASSERT_TRUE(rep.ok()) << rep.to_string();
  EXPECT_GT(rep.remote_frames(), 0) << "no channel crosses a node boundary";
  EXPECT_EQ(stats.remote_messages, rep.remote_frames());
  EXPECT_GT(stats.remote_bytes, 0);
  EXPECT_LE(stats.remote_bytes, rep.remote_bytes_bound());
  ASSERT_EQ(rep.node_fires.size(), 2u);
  EXPECT_GT(rep.node_fires[0], 0);
  EXPECT_GT(rep.node_fires[1], 0);
  EXPECT_EQ(stats.fires, rep.node_fires[0] + rep.node_fires[1]);
  EXPECT_EQ(stats.refired_fires, 0);
}

template <class Options>
Options two_nodes(int workers, std::size_t coalesce_bytes,
                  prt::Transport transport = prt::Transport::InProcess) {
  Options opt;
  opt.nodes = 2;
  opt.workers_per_node = workers;
  opt.coalesce_bytes = coalesce_bytes;
  opt.transport = transport;
  return opt;
}

TEST(Traffic, QrTreesSendWhatThePlanPredicts) {
  Matrix a0(96, 40);
  fill_random(a0.view(), 31);
  const TileMatrix a = TileMatrix::from_dense(a0.view(), 8);
  const struct {
    const char* name;
    plan::TreeKind kind;
  } trees[] = {{"flat", plan::TreeKind::Flat},
               {"binary", plan::TreeKind::Binary},
               {"hierarchical", plan::TreeKind::BinaryOnFlat}};
  for (const auto& t : trees) {
    for (std::size_t coalesce : {std::size_t{0}, std::size_t{64 * 1024}}) {
      for (int workers : {1, 2}) {
        SCOPED_TRACE(std::string(t.name) + " coalesce=" +
                     std::to_string(coalesce) +
                     " workers=" + std::to_string(workers));
        auto opt = two_nodes<vsaqr::TreeQrOptions>(workers, coalesce);
        opt.tree.tree = t.kind;
        opt.tree.domain_size = 3;
        opt.ib = 4;
        expect_predicted(vsaqr::lint_tree_qr(a, opt),
                         vsaqr::tree_qr(a, opt).stats);
      }
    }
  }
}

TEST(Traffic, CholeskySendsWhatThePlanPredicts) {
  const TileMatrix a = TileMatrix::from_dense(chol::random_spd(56, 5).view(), 8);
  for (std::size_t coalesce : {std::size_t{0}, std::size_t{64 * 1024}}) {
    for (int workers : {1, 2}) {
      SCOPED_TRACE("coalesce=" + std::to_string(coalesce) +
                   " workers=" + std::to_string(workers));
      const auto opt = two_nodes<chol::VsaCholOptions>(workers, coalesce);
      expect_predicted(chol::lint_vsa_cholesky(a, opt),
                       chol::vsa_cholesky(a, opt).stats);
    }
  }
}

TEST(Traffic, LuSendsWhatThePlanPredicts) {
  const TileMatrix a =
      TileMatrix::from_dense(lu::random_diag_dominant(56, 40, 6).view(), 8);
  for (std::size_t coalesce : {std::size_t{0}, std::size_t{64 * 1024}}) {
    for (int workers : {1, 2}) {
      SCOPED_TRACE("coalesce=" + std::to_string(coalesce) +
                   " workers=" + std::to_string(workers));
      const auto opt = two_nodes<lu::VsaLuOptions>(workers, coalesce);
      expect_predicted(lu::lint_vsa_lu(a, opt), lu::vsa_lu(a, opt).stats);
    }
  }
}

// The same predictions over the socket transport: each node is its own
// process, and the parent sums the nodes' counters.
TEST(Traffic, SocketRunsSendAndFireWhatThePlanPredicts) {
  constexpr prt::Transport kSocket = prt::Transport::Socket;
  Matrix a0(96, 40);
  fill_random(a0.view(), 31);
  const TileMatrix a = TileMatrix::from_dense(a0.view(), 8);
  for (plan::TreeKind kind : {plan::TreeKind::Flat, plan::TreeKind::Binary,
                              plan::TreeKind::BinaryOnFlat}) {
    SCOPED_TRACE("tree " + std::to_string(static_cast<int>(kind)));
    auto opt = two_nodes<vsaqr::TreeQrOptions>(1, 64 * 1024, kSocket);
    opt.tree.tree = kind;
    opt.tree.domain_size = 3;
    opt.ib = 4;
    expect_predicted(vsaqr::lint_tree_qr(a, opt),
                     vsaqr::tree_qr(a, opt).stats);
  }
  {
    SCOPED_TRACE("cholesky");
    const TileMatrix s =
        TileMatrix::from_dense(chol::random_spd(56, 5).view(), 8);
    const auto opt = two_nodes<chol::VsaCholOptions>(1, 64 * 1024, kSocket);
    expect_predicted(chol::lint_vsa_cholesky(s, opt),
                     chol::vsa_cholesky(s, opt).stats);
  }
  {
    SCOPED_TRACE("lu");
    const TileMatrix g =
        TileMatrix::from_dense(lu::random_diag_dominant(56, 40, 6).view(), 8);
    const auto opt = two_nodes<lu::VsaLuOptions>(1, 64 * 1024, kSocket);
    expect_predicted(lu::lint_vsa_lu(g, opt), lu::vsa_lu(g, opt).stats);
  }
}

// On one node the flat VDPs are dealt to the workers cyclically in
// creation order (panel step, then domain, then column), as the paper's
// mapping does; the trace names the worker each VDP fired on.
TEST(Placement, OneNodeDealsFlatVdpsCyclically) {
  Matrix a0(96, 40);
  fill_random(a0.view(), 32);
  const TileMatrix a = TileMatrix::from_dense(a0.view(), 8);
  vsaqr::TreeQrOptions opt;
  opt.nodes = 1;
  opt.workers_per_node = 3;
  opt.tree.domain_size = 3;
  opt.ib = 4;
  opt.trace = true;
  std::map<prt::Tuple, int> want;  // flat VDP -> cyclic thread
  int created = 0;
  for (int k = 0; k < a.nt(); ++k) {
    const auto domains = plan::domains_for_panel(a.mt(), k, opt.tree);
    for (int d = 0; d < static_cast<int>(domains.size()); ++d) {
      for (int l = k; l < a.nt(); ++l) {
        const prt::Tuple t = l == k ? prt::Tuple{0, k, d}
                                    : prt::Tuple{1, k, d, l};
        want[t] = created++ % opt.workers_per_node;
      }
    }
  }
  const auto run = vsaqr::tree_qr(a, opt);
  std::map<prt::Tuple, int> seen;
  for (const prt::trace::Event& e : run.events) {
    if (e.tuple.size() == 0 || e.tuple[0] > 1) continue;  // binary or mark
    seen[e.tuple] = e.thread;
    EXPECT_EQ(e.thread, want.at(e.tuple)) << e.tuple.to_string();
  }
  EXPECT_EQ(seen.size(), want.size());
}

// The qr_socket benchmark grid: 4096 x 512, nb 64, ib 16, hierarchical
// tree h 6 with shifted boundaries.
vsaqr::TreeQrOptions socket_grid(int nodes, int workers) {
  vsaqr::TreeQrOptions opt;
  opt.nodes = nodes;
  opt.workers_per_node = workers;
  opt.tree = {plan::TreeKind::BinaryOnFlat, 6, plan::BoundaryMode::Shifted};
  opt.ib = 16;
  return opt;
}

// Each domain's pipeline stays on one node from step to step, so only
// the binary merges and the block edges cross: 184 frames at 2 x 1 and
// 2 x 2 (cyclic placement sent 2914) and 502 at 4 x 1.
TEST(Placement, SocketGridKeepsDomainsOnTheirNode) {
  const TileMatrix a(4096, 512, 64);
  const prt::GraphReport two = vsaqr::lint_tree_qr(a, socket_grid(2, 1));
  ASSERT_TRUE(two.ok()) << two.to_string();
  EXPECT_LE(two.remote_frames(), 200) << two.traffic();
  EXPECT_EQ(vsaqr::lint_tree_qr(a, socket_grid(2, 2)).remote_frames(), 184);
  EXPECT_EQ(vsaqr::lint_tree_qr(a, socket_grid(4, 1)).remote_frames(), 502);

  // The blocks still share the work: each node's declared firings are
  // within 15% of the mean (1416 and 1154).
  ASSERT_EQ(two.node_fires.size(), 2u);
  const double mean = (two.node_fires[0] + two.node_fires[1]) / 2.0;
  for (long long f : two.node_fires) {
    EXPECT_LE(std::abs(f - mean), 0.15 * mean) << two.traffic();
  }
}

// The Q^T-application array places its flat VDPs by the same rule; the
// result must not depend on where the kernels ran.
TEST(Placement, ApplyQtOverTwoNodesIsBitwise) {
  Matrix a0(96, 16);
  fill_random(a0.view(), 33);
  Matrix b0(96, 24);
  fill_random(b0.view(), 34);
  const plan::PlanConfig cfg{plan::TreeKind::BinaryOnFlat, 3,
                             plan::BoundaryMode::Shifted};
  const auto factors =
      ref::tree_qr(TileMatrix::from_dense(a0.view(), 8), 4, cfg);
  TileMatrix want = TileMatrix::from_dense(b0.view(), 8);
  ref::apply_q(blas::Trans::Yes, factors, want);
  for (int workers : {1, 2}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    vsaqr::TreeQrOptions opt;
    opt.tree = cfg;
    opt.ib = 4;
    opt.nodes = 2;
    opt.workers_per_node = workers;
    const TileMatrix got =
        vsaqr::apply_qt(factors, TileMatrix::from_dense(b0.view(), 8), opt);
    for (int j = 0; j < b0.cols(); ++j) {
      for (int i = 0; i < b0.rows(); ++i) {
        ASSERT_EQ(got.at(i, j), want.at(i, j)) << "(" << i << "," << j << ")";
      }
    }
  }
}

}  // namespace
}  // namespace pulsarqr
