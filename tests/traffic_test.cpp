// The plan predicts the run's traffic and its firings. GraphCheck's flow
// analysis knows, per channel, how many packets the producer delivers and
// whether its endpoints sit on different nodes; on 2 nodes the frames the
// proxies send must equal the packets those remote channels carry, and
// their payload bytes must fit the channels' declared packet sizes. Its
// per-node firing totals (the VDPs' initial counters) must equal the
// firings the run reports. QR on the flat, binary and hierarchical trees,
// Cholesky and LU, each with the frame coalescer on and off (coalescing
// repackages frames, it must not change how many cross), in process and
// over the socket transport.
#include <gtest/gtest.h>

#include <string>

#include "chol/reference_chol.hpp"
#include "chol/vsa_chol.hpp"
#include "common/rng.hpp"
#include "lu/reference_lu.hpp"
#include "lu/vsa_lu.hpp"
#include "prt/graph_check.hpp"
#include "vsaqr/tree_qr.hpp"

namespace pulsarqr {
namespace {

void expect_predicted(const prt::GraphReport& rep,
                      const prt::Vsa::RunStats& stats) {
  ASSERT_TRUE(rep.ok()) << rep.to_string();
  long long frames = 0;
  long long byte_bound = 0;
  int remote_channels = 0;
  for (const prt::ChannelFlow& f : rep.flows) {
    if (!f.remote) continue;
    ++remote_channels;
    frames += f.delivered - f.fed;
    byte_bound += f.delivered * static_cast<long long>(f.max_bytes);
  }
  EXPECT_GT(remote_channels, 0) << "no channel crosses a node boundary";
  EXPECT_EQ(stats.remote_messages, frames);
  EXPECT_GT(stats.remote_bytes, 0);
  EXPECT_LE(stats.remote_bytes, byte_bound);
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

}  // namespace
}  // namespace pulsarqr
