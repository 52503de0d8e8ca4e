// The plan predicts the run's traffic and its firings. GraphCheck's flow
// analysis knows, per channel, how many packets the producer delivers and
// whether its endpoints sit on different nodes; on 2 nodes the frames the
// proxies send must equal the packets those remote channels carry, and
// their payload bytes must fit the channels' declared packet sizes. Its
// per-node firing totals (the VDPs' initial counters) must equal the
// firings the run reports, and every frame must be one wire message. QR
// on the flat, binary and hierarchical trees, Cholesky and LU, in process
// and over the socket transport. The last tests pin the placements by the
// traffic and firings they plan: tree QR's node-blocked flat VDPs, and the
// column ownership and node-ordered L chains of Cholesky and LU.
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
  EXPECT_EQ(stats.wire_messages, rep.remote_frames());
  EXPECT_GT(stats.remote_bytes, 0);
  EXPECT_LE(stats.remote_bytes, rep.remote_bytes_bound());
  ASSERT_EQ(rep.node_fires.size(), 2u);
  EXPECT_GT(rep.node_fires[0], 0);
  EXPECT_GT(rep.node_fires[1], 0);
  EXPECT_EQ(stats.fires, rep.node_fires[0] + rep.node_fires[1]);
  EXPECT_EQ(stats.refired_fires, 0);
}

template <class Options>
Options two_nodes(int workers,
                  prt::Transport transport = prt::Transport::InProcess) {
  Options opt;
  opt.nodes = 2;
  opt.workers_per_node = workers;
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
    for (int workers : {1, 2}) {
      SCOPED_TRACE(std::string(t.name) +
                   " workers=" + std::to_string(workers));
      auto opt = two_nodes<vsaqr::TreeQrOptions>(workers);
      opt.tree.tree = t.kind;
      opt.tree.domain_size = 3;
      opt.ib = 4;
      expect_predicted(vsaqr::lint_tree_qr(a, opt),
                       vsaqr::tree_qr(a, opt).stats);
    }
  }
}

TEST(Traffic, CholeskySendsWhatThePlanPredicts) {
  const TileMatrix a = TileMatrix::from_dense(chol::random_spd(56, 5).view(), 8);
  for (int workers : {1, 2}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    const auto opt = two_nodes<chol::VsaCholOptions>(workers);
    expect_predicted(chol::lint_vsa_cholesky(a, opt),
                     chol::vsa_cholesky(a, opt).stats);
  }
}

TEST(Traffic, LuSendsWhatThePlanPredicts) {
  const TileMatrix a =
      TileMatrix::from_dense(lu::random_diag_dominant(56, 40, 6).view(), 8);
  for (int workers : {1, 2}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    const auto opt = two_nodes<lu::VsaLuOptions>(workers);
    expect_predicted(lu::lint_vsa_lu(a, opt), lu::vsa_lu(a, opt).stats);
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
    auto opt = two_nodes<vsaqr::TreeQrOptions>(1, kSocket);
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
    const auto opt = two_nodes<chol::VsaCholOptions>(1, kSocket);
    expect_predicted(chol::lint_vsa_cholesky(s, opt),
                     chol::vsa_cholesky(s, opt).stats);
  }
  {
    SCOPED_TRACE("lu");
    const TileMatrix g =
        TileMatrix::from_dense(lu::random_diag_dominant(56, 40, 6).view(), 8);
    const auto opt = two_nodes<lu::VsaLuOptions>(1, kSocket);
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

// ---- the column arrays: Cholesky and LU -----------------------------------

template <class Options>
Options layout(int nodes, int workers) {
  Options opt;
  opt.nodes = nodes;
  opt.workers_per_node = workers;
  return opt;
}

prt::GraphReport lint_chol(const TileMatrix& a, int nodes, int workers) {
  return chol::lint_vsa_cholesky(
      a, layout<chol::VsaCholOptions>(nodes, workers));
}

prt::GraphReport lint_lu(const TileMatrix& a, int nodes, int workers) {
  return lu::lint_vsa_lu(a, layout<lu::VsaLuOptions>(nodes, workers));
}

// Column of a panel VDP P(k) = {0, k} or an update VDP S(k, j) = {1, k, j}.
int column_of(const prt::Tuple& t) { return t[0] == 0 ? t[1] : t[2]; }

// On one node both arrays deal their VDPs to the workers cyclically in
// creation order: P(k), S(k, k+1), ..., S(k, nt-1), step by step.
TEST(Placement, OneNodeDealsCholeskyAndLuCyclically) {
  constexpr int kWorkers = 3;
  auto cyclic = [](int panels, int nt) {
    std::map<prt::Tuple, int> want;
    int created = 0;
    for (int k = 0; k < panels; ++k) {
      want[prt::Tuple{0, k}] = created++ % kWorkers;
      for (int j = k + 1; j < nt; ++j) {
        want[prt::Tuple{1, k, j}] = created++ % kWorkers;
      }
    }
    return want;
  };
  auto expect_threads = [](const std::vector<prt::trace::Event>& events,
                           const std::map<prt::Tuple, int>& want) {
    std::map<prt::Tuple, int> seen;
    for (const prt::trace::Event& e : events) {
      if (e.tuple.size() == 0) continue;  // a mark
      seen[e.tuple] = e.thread;
      EXPECT_EQ(e.thread, want.at(e.tuple)) << e.tuple.to_string();
    }
    EXPECT_EQ(seen.size(), want.size());
  };
  {
    SCOPED_TRACE("cholesky");
    const TileMatrix a =
        TileMatrix::from_dense(chol::random_spd(56, 7).view(), 8);
    auto opt = layout<chol::VsaCholOptions>(1, kWorkers);
    opt.trace = true;
    expect_threads(chol::vsa_cholesky(a, opt).events, cyclic(7, 7));
  }
  {
    SCOPED_TRACE("lu");
    const TileMatrix a =
        TileMatrix::from_dense(lu::random_diag_dominant(56, 40, 8).view(), 8);
    auto opt = layout<lu::VsaLuOptions>(1, kWorkers);
    opt.trace = true;
    expect_threads(lu::vsa_lu(a, opt).events, cyclic(5, 5));
  }
}

// The chol_2node benchmark grid: 24 x 24 tiles of 128. Only the L chains
// cross nodes, at most once per node per step. The creation-order cyclic
// placement planned 5546 frames (727 MB) for Cholesky and 6900 (905 MB)
// for LU at 2 x 1.
TEST(Placement, CholeskyGridSendsOnlyTheChainJoins) {
  const TileMatrix a(3072, 3072, 128);
  const prt::GraphReport chol = lint_chol(a, 2, 1);
  ASSERT_TRUE(chol.ok()) << chol.to_string();
  EXPECT_LE(chol.remote_frames(), 450) << chol.traffic();
  EXPECT_LE(chol.remote_bytes_bound(), 60'000'000) << chol.traffic();
  const prt::GraphReport lu = lint_lu(a, 2, 1);
  ASSERT_TRUE(lu.ok()) << lu.to_string();
  EXPECT_LE(lu.remote_frames(), 480) << lu.traffic();
  EXPECT_LE(lu.remote_bytes_bound(), 60'000'000) << lu.traffic();

  // Workers inside a node change no frame.
  EXPECT_EQ(lint_chol(a, 2, 2).remote_frames(), 419);
  EXPECT_EQ(lint_lu(a, 2, 2).remote_frames(), 453);
  EXPECT_EQ(lint_chol(a, 3, 2).remote_frames(), 740);
  EXPECT_EQ(lint_lu(a, 3, 2).remote_frames(), 799);
  EXPECT_EQ(lint_chol(a, 4, 1).remote_frames(), 1034);
  EXPECT_EQ(lint_lu(a, 4, 1).remote_frames(), 1115);
}

// Every flow inside a column (the solid streams) stays on its node, which
// puts each column's VDPs on one node, and each step's chain (the flows
// into the update VDPs' slot 1) crosses nodes at most `nodes` times.
void expect_column_owned(const prt::GraphReport& rep, int nodes) {
  ASSERT_TRUE(rep.ok()) << rep.to_string();
  std::map<int, int> crossings;  // step -> remote chain flows
  for (const prt::ChannelFlow& f : rep.flows) {
    if (f.from_feed) continue;
    if (column_of(f.src) == column_of(f.dst)) {
      EXPECT_FALSE(f.remote) << f.src.to_string() << " -> "
                             << f.dst.to_string();
    }
    if (f.dst[0] == 1 && f.dst_slot == 1) crossings[f.dst[1]] += f.remote;
  }
  ASSERT_FALSE(crossings.empty());
  for (const auto& [k, c] : crossings) {
    EXPECT_LE(c, nodes) << "step " << k << " " << rep.traffic();
  }
}

// Each node's declared firings within `tol` of the mean.
void expect_balanced(const prt::GraphReport& rep, double tol) {
  long long total = 0;
  for (long long f : rep.node_fires) total += f;
  const double mean = static_cast<double>(total) / rep.node_fires.size();
  for (long long f : rep.node_fires) {
    EXPECT_LE(std::abs(f - mean), tol * mean) << rep.traffic();
  }
}

TEST(Placement, ColumnsStayOnTheirNodeAndChainsCrossOncePerNode) {
  const TileMatrix grid(3072, 3072, 128);
  const TileMatrix tall(128, 80, 8);  // 16 x 10 tiles
  const TileMatrix wide(80, 128, 8);  // 10 x 16 tiles
  for (int nodes : {2, 3, 4, 8}) {
    SCOPED_TRACE("nodes=" + std::to_string(nodes));
    // The serpentine deal evens the firings out: later columns carry
    // more work (at 8 x 1, Cholesky's run 529-606 around a mean of 578).
    const double tol = nodes == 2 ? 0.02 : 0.10;
    const prt::GraphReport chol = lint_chol(grid, nodes, 1);
    expect_column_owned(chol, nodes);
    expect_balanced(chol, tol);
    const prt::GraphReport lu = lint_lu(grid, nodes, 1);
    expect_column_owned(lu, nodes);
    expect_balanced(lu, tol);
    expect_column_owned(lint_lu(tall, nodes, 2), nodes);
    expect_column_owned(lint_lu(wide, nodes, 2), nodes);
  }
}

}  // namespace
}  // namespace pulsarqr
