// Node-process crash recovery over the Socket transport: the kill fault
// (FaultPlan::kill_rank / kill_after), parent-side respawn from the
// pristine copy-on-write image, survivor-side history replay
// (Reliable::replay_link + the proxy's per-channel dedup), and the
// exactly-once deposit discipline of the result stores.
//
// The soak at the bottom SIGKILLs one node per schedule across three
// array shapes and verifies every recovered run bit-for-bit against the
// fault-free sequential reference — recovery must be completely
// invisible in the output. PQR_CHAOS_SCHEDULES shrinks the per-shape
// schedule count for smoke runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <string>
#include <vector>

#include "blas/blas.hpp"
#include "chol/vsa_chol.hpp"
#include "common/rng.hpp"
#include "lu/vsa_lu.hpp"
#include "prt/graph_check.hpp"
#include "prt/transport.hpp"
#include "prt/vsa.hpp"
#include "ref/reference_qr.hpp"
#include "vsaqr/result_store.hpp"
#include "vsaqr/tree_qr.hpp"

namespace pulsarqr {
namespace {

using prt::Packet;
using Comm = prt::net::MailboxComm;
using prt::net::Message;
using prt::net::Reliable;
using Clock = std::chrono::steady_clock;

// ---- Reliable: replay-log retention and survivor-side replay ----------------

Reliable::Params replay_params(std::size_t log_bytes) {
  Reliable::Params p;
  p.rto_us = 60'000'000;  // no spurious retransmits inside a unit test
  p.replay_log_bytes = log_bytes;
  return p;
}

TEST(ReliableReplayTest, ReplayLinkRequeuesAckedHistoryWithOriginalSeqs) {
  Comm comm(2);
  Reliable a(comm, 0, replay_params(1 << 20));
  Reliable b(comm, 1, replay_params(0));
  for (int i = 0; i < 3; ++i) a.send(1, 4, Packet::make(8), 40 + i);
  std::deque<Message> inbox;
  while (auto m = comm.try_recv(1)) b.on_receive(std::move(*m), inbox);
  ASSERT_EQ(inbox.size(), 3u);
  b.flush_acks();
  std::deque<Message> back;
  while (auto m = comm.try_recv(0)) a.on_receive(std::move(*m), back);
  // Fully acked: nothing pending, but the history is retained.
  EXPECT_TRUE(a.poll(Clock::now() + std::chrono::hours(1)));
  EXPECT_EQ(a.retransmits(), 0);

  // Rank 1 "dies"; its replacement receives from expected = 0. Replay
  // requeues the entire history with the ORIGINAL sequence numbers.
  ASSERT_EQ(a.replay_link(1, Clock::now()), 3);
  EXPECT_EQ(a.replayed(), 3);
  EXPECT_TRUE(a.poll(Clock::now() + std::chrono::seconds(1)));
  Reliable fresh(comm, 1, replay_params(0));
  std::deque<Message> redelivered;
  while (auto m = comm.try_recv(1)) {
    EXPECT_GE(m->seq, 0);
    EXPECT_LE(m->seq, 2);
    fresh.on_receive(std::move(*m), redelivered);
  }
  ASSERT_EQ(redelivered.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(redelivered[static_cast<std::size_t>(i)].meta, 40 + i);
    EXPECT_EQ(redelivered[static_cast<std::size_t>(i)].seq, i);
  }
}

TEST(ReliableReplayTest, EvictionMakesReplayReportAnUnrecoverableGap) {
  Comm comm(2);
  // Budget fits one 8-byte frame: acking the second evicts the first.
  Reliable a(comm, 0, replay_params(8));
  Reliable b(comm, 1, replay_params(0));
  for (int i = 0; i < 2; ++i) a.send(1, 4, Packet::make(8), i);
  std::deque<Message> inbox;
  while (auto m = comm.try_recv(1)) b.on_receive(std::move(*m), inbox);
  b.flush_acks();
  std::deque<Message> back;
  while (auto m = comm.try_recv(0)) a.on_receive(std::move(*m), back);
  // Part of the history is gone; a replay would silently lose frame 0,
  // so it must refuse instead.
  EXPECT_EQ(a.replay_link(1, Clock::now()), -1);
}

TEST(ReliableReplayTest, ResetRecvLinkAcceptsAFreshStreamFromSeqZero) {
  Comm comm(2);
  Reliable a(comm, 0, replay_params(0));
  Reliable b(comm, 1, replay_params(0));
  for (int i = 0; i < 5; ++i) a.send(1, 2, Packet::make(8), i);
  std::deque<Message> inbox;
  while (auto m = comm.try_recv(1)) b.on_receive(std::move(*m), inbox);
  ASSERT_EQ(inbox.size(), 5u);
  // Rank 0's replacement restarts its stream at seq 0; without the reset
  // those frames would all be "duplicates" of the dead incarnation.
  b.reset_recv_link(0);
  Reliable a2(comm, 0, replay_params(0));
  a2.send(1, 2, Packet::make(8), 100);
  std::deque<Message> fresh;
  while (auto m = comm.try_recv(1)) b.on_receive(std::move(*m), fresh);
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(fresh[0].meta, 100);
  EXPECT_EQ(fresh[0].seq, 0);
  EXPECT_EQ(b.duplicates_suppressed(), 0);
}

// ---- ResultStore: exactly-once deposits under replay ------------------------

TEST(ResultStoreDedupTest, ReplayedDepositsAreVerifiedAndSkipped) {
  // A respawned node re-executes from scratch, so it re-deposits into the
  // shared slots what its dead incarnation already published there. With
  // dedup on, identical re-deposits are verified and skipped.
  vsaqr::ResultStore store(10, 5, 5, 2, prt::Transport::Socket);
  store.enable_dedup();
  Matrix tile(5, 5), t(2, 5);
  fill_random(tile.view(), 31);
  fill_random(t.view(), 32);
  for (int incarnation = 0; incarnation < 2; ++incarnation) {
    store.put_tile(0, 0, tile.view());
    store.put_tile(1, 0, tile.view());
    store.put_tg(0, 0, t.view());
    store.put_tt(1, 0, t.view());
  }
  const ref::TreeQrFactors f = store.finish(
      plan::ReductionPlan(2, 1, {plan::TreeKind::Flat, 1,
                                 plan::BoundaryMode::Shifted}),
      2);
  EXPECT_EQ(f.a.at(7, 3), tile(2, 3));
  EXPECT_EQ(f.tg.t(0, 0)(1, 4), t(1, 4));
  EXPECT_EQ(f.tt.t(1, 0)(0, 2), t(0, 2));
}

TEST(ResultStoreDedupTest, WithoutDedupADoubleDepositStillAborts) {
  vsaqr::ResultStore store(10, 5, 5, 2);
  Matrix tile(5, 5);
  fill_random(tile.view(), 33);
  store.put_tile(0, 0, tile.view());
  EXPECT_DEATH(store.put_tile(0, 0, tile.view()), "deposited twice");
}

TEST(ResultStoreDedupTest, ConflictingReplayContentAbortsEvenWithDedup) {
  // Dedup forgives identical replays, not two VDPs claiming one slot.
  vsaqr::ResultStore store(10, 5, 5, 2);
  store.enable_dedup();
  Matrix tile(5, 5), other(5, 5);
  fill_random(tile.view(), 34);
  fill_random(other.view(), 35);
  store.put_tile(0, 0, tile.view());
  EXPECT_DEATH(store.put_tile(0, 0, other.view()), "conflicting re-deposit");
}

// ---- configuration guards ---------------------------------------------------

TEST(CrashRecoveryTest, RespawnBudgetRequiresReliableSocketTransport) {
  Matrix a0(40, 10);
  fill_random(a0.view(), 41);
  TileMatrix a = TileMatrix::from_dense(a0.view(), 5);
  vsaqr::TreeQrOptions opt;
  opt.tree = {plan::TreeKind::BinaryOnFlat, 2, plan::BoundaryMode::Shifted};
  opt.ib = 2;
  opt.nodes = 2;
  opt.workers_per_node = 2;
  opt.max_respawns = 1;  // recovery without the socket backend: rejected
  EXPECT_THROW(vsaqr::tree_qr(a, opt), Error);
  opt.transport = prt::Transport::Socket;
  opt.reliable_transport = false;  // and without reliable delivery too
  EXPECT_THROW(vsaqr::tree_qr(a, opt), Error);
}

// ---- structured failure without a respawn budget ----------------------------

TEST(CrashRecoveryTest, KillWithoutBudgetYieldsStructuredProcessFailure) {
  Matrix a0(48, 12);
  fill_random(a0.view(), 42);
  TileMatrix a = TileMatrix::from_dense(a0.view(), 6);
  vsaqr::TreeQrOptions opt;
  opt.tree = {plan::TreeKind::Binary, 1, plan::BoundaryMode::Shifted};
  opt.ib = 3;
  opt.nodes = 3;
  opt.workers_per_node = 1;
  opt.watchdog_seconds = 60.0;
  opt.transport = prt::Transport::Socket;
  opt.reliable_transport = true;
  opt.retransmit_timeout_us = 800;
  opt.max_retransmits = 30;
  opt.fault_plan.kill_rank = 1;
  opt.fault_plan.kill_after = 4;
  opt.max_respawns = 0;  // a death is immediately terminal
  try {
    vsaqr::tree_qr(a, opt);
    FAIL() << "a SIGKILLed node without respawn budget must fail the run";
  } catch (const prt::Vsa::RunError& e) {
    const auto& r = e.report();
    EXPECT_EQ(r.reason, "process");
    ASSERT_EQ(r.dead_ranks.size(), 1u);
    EXPECT_EQ(r.dead_ranks[0], 1);
    // The parent names the VDP tuples that died with the rank, from its
    // own pristine image of the graph.
    EXPECT_FALSE(r.stuck_vdps.empty());
    const std::string what = e.what();
    EXPECT_NE(what.find("dead node process"), std::string::npos);
    EXPECT_NE(what.find("respawn"), std::string::npos);
  }
}

// ---- a kill among a rank's deposits -----------------------------------------

/// The referenced part of a T tile (the upper triangle of each ib-column
/// block) is bitwise equal.
bool t_bitwise(ConstMatrixView got, ConstMatrixView want, int ib) {
  for (int c = 0; c < got.cols; ++c) {
    const auto rows = static_cast<std::size_t>(std::min(c % ib + 1, got.rows));
    if (std::memcmp(got.col(c), want.col(c), sizeof(double) * rows) != 0) {
      return false;
    }
  }
  return true;
}

TEST(CrashRecoveryTest, AKillAmongARanksDepositsRecoversBitwise) {
  // Rank 1 dies after a growing share of its firings: before its first
  // deposit, among them, and near its last. What its dead incarnation
  // published stays in the shared slots (a copy it was in the middle of
  // stays unpublished), and its replacement re-deposits everything. The
  // factors must equal the in-process run's bit for bit every time.
  Matrix a0(384, 96);
  fill_random(a0.view(), 61);
  const TileMatrix a = TileMatrix::from_dense(a0.view(), 16);
  vsaqr::TreeQrOptions inproc;
  inproc.tree = {plan::TreeKind::BinaryOnFlat, 2, plan::BoundaryMode::Shifted};
  inproc.ib = 4;
  inproc.nodes = 2;
  inproc.workers_per_node = 1;
  inproc.watchdog_seconds = 60.0;
  const vsaqr::TreeQrRun want = vsaqr::tree_qr(a, inproc);
  vsaqr::TreeQrOptions opt = inproc;
  opt.transport = prt::Transport::Socket;
  opt.reliable_transport = true;
  opt.retransmit_timeout_us = 800;
  opt.max_retransmits = 30;
  opt.max_respawns = 1;
  opt.fault_plan.kill_rank = 1;
  const long long fires = vsaqr::lint_tree_qr(a, opt).node_fires[1];
  ASSERT_GT(fires, 8);
  int respawned = 0;
  for (int q = 0; q < 4; ++q) {
    opt.fault_plan.kill_after = 1 + q * (fires - 1) / 4;
    SCOPED_TRACE("kill after " + std::to_string(opt.fault_plan.kill_after) +
                 " of " + std::to_string(fires) + " firings");
    const vsaqr::TreeQrRun got = vsaqr::tree_qr(a, opt);
    respawned += static_cast<int>(got.stats.respawns);
    for (int j = 0; j < a.nt(); ++j) {
      for (int i = 0; i < a.mt(); ++i) {
        const ConstMatrixView g = got.factors.a.tile(i, j);
        const ConstMatrixView w = want.factors.a.tile(i, j);
        ASSERT_EQ(std::memcmp(g.data, w.data, sizeof(double) * g.rows * g.cols),
                  0)
            << "tile (" << i << "," << j << ")";
      }
    }
    for (const plan::Op& op : want.factors.plan.ops()) {
      if (op.kind == plan::OpKind::Geqrt) {
        ASSERT_TRUE(t_bitwise(got.factors.tg.t(op.i, op.j),
                              want.factors.tg.t(op.i, op.j), opt.ib))
            << "geqrt T (" << op.i << "," << op.j << ")";
      } else if (op.kind == plan::OpKind::Tsqrt ||
                 op.kind == plan::OpKind::Ttqrt) {
        ASSERT_TRUE(t_bitwise(got.factors.tt.t(op.k, op.j),
                              want.factors.tt.t(op.k, op.j), opt.ib))
            << "tree T (" << op.k << "," << op.j << ")";
      }
    }
  }
  EXPECT_GE(respawned, 2) << "the kill rarely landed inside the run";
}

// ---- a socket result outlives later socket calls ----------------------------

TEST(CrashRecoveryTest, ASocketResultOutlivesLaterSocketCalls) {
  // A socket run's factors stay in the shared arenas its node processes
  // wrote, so every later socket run forks with them mapped shared. No
  // node process of a later run, respawned or not, may write them: each
  // later run factors another matrix, so a stray write would show.
  Matrix a0(384, 96), b0(384, 96);
  fill_random(a0.view(), 71);
  fill_random(b0.view(), 72);
  const TileMatrix a = TileMatrix::from_dense(a0.view(), 16);
  const TileMatrix b = TileMatrix::from_dense(b0.view(), 16);
  vsaqr::TreeQrOptions opt;
  opt.tree = {plan::TreeKind::BinaryOnFlat, 2, plan::BoundaryMode::Shifted};
  opt.ib = 4;
  opt.nodes = 2;
  opt.workers_per_node = 1;
  opt.watchdog_seconds = 60.0;
  opt.transport = prt::Transport::Socket;
  opt.reliable_transport = true;
  opt.retransmit_timeout_us = 800;
  opt.max_retransmits = 30;
  const vsaqr::TreeQrRun first = vsaqr::tree_qr(a, opt);
  ASSERT_TRUE(first.factors.a.shared());
  const ref::TreeQrFactors kept = first.factors;  // a private deep copy
  ASSERT_FALSE(kept.a.shared());

  (void)vsaqr::tree_qr(b, opt);
  opt.max_respawns = 1;
  opt.fault_plan.kill_rank = 1;
  opt.fault_plan.kill_after = vsaqr::lint_tree_qr(b, opt).node_fires[1] / 2;
  EXPECT_GE(vsaqr::tree_qr(b, opt).stats.respawns, 1);

  auto same = [](ConstMatrixView g, ConstMatrixView w) {
    return g.rows == w.rows && g.cols == w.cols &&
           std::memcmp(g.data, w.data, sizeof(double) * g.rows * g.cols) == 0;
  };
  for (int j = 0; j < a.nt(); ++j) {
    for (int i = 0; i < a.mt(); ++i) {
      ASSERT_TRUE(same(first.factors.a.tile(i, j), kept.a.tile(i, j)))
          << "tile (" << i << "," << j << ")";
    }
  }
  for (const plan::Op& op : kept.plan.ops()) {
    if (op.kind == plan::OpKind::Geqrt) {
      ASSERT_TRUE(same(first.factors.tg.t(op.i, op.j), kept.tg.t(op.i, op.j)))
          << "geqrt T (" << op.i << "," << op.j << ")";
    } else if (op.kind == plan::OpKind::Tsqrt ||
               op.kind == plan::OpKind::Ttqrt) {
      ASSERT_TRUE(same(first.factors.tt.t(op.k, op.j), kept.tt.t(op.k, op.j)))
          << "tree T (" << op.k << "," << op.j << ")";
    }
  }
}

// ---- the crash-chaos soak ---------------------------------------------------

struct SoakShape {
  int m, n, nb, ib;
  plan::PlanConfig tree;
  int nodes, workers;
};

constexpr int kKillSchedules = 24;

// Per-shape schedule count; >= 24 by default (acceptance criterion),
// shrinkable via PQR_CHAOS_SCHEDULES for smoke runs.
int kill_schedules() {
  if (const char* e = std::getenv("PQR_CHAOS_SCHEDULES")) {
    const int n = std::atoi(e);
    if (n > 0) return std::min(n, kKillSchedules);
  }
  return kKillSchedules;
}

TEST(CrashRecoveryTest, KillSoakRecoversBitwiseAcrossShapesAndSeeds) {
  // The message faults act on the wire messages between nodes: 2-3 tile
  // columns on 3 nodes keep enough traffic off-node (about 185 faults over
  // the 72 default runs).
  const std::vector<SoakShape> shapes = {
      {40, 15, 5, 2, {plan::TreeKind::BinaryOnFlat, 2,
                      plan::BoundaryMode::Shifted}, 3, 1},
      {48, 12, 6, 3, {plan::TreeKind::Binary, 1,
                      plan::BoundaryMode::Shifted}, 3, 1},
      {30, 15, 5, 5, {plan::TreeKind::Flat, 1,
                      plan::BoundaryMode::Fixed}, 3, 2},
  };
  const int schedules = kill_schedules();
  long long total_respawns = 0;
  long long total_replayed = 0;
  long long total_faults = 0;
  for (std::size_t which = 0; which < shapes.size(); ++which) {
    const auto& sh = shapes[which];
    Matrix a0(sh.m, sh.n);
    fill_random(a0.view(), 900 + static_cast<int>(which));
    const auto reference =
        ref::tree_qr(TileMatrix::from_dense(a0.view(), sh.nb), sh.ib, sh.tree);
    for (int s = 0; s < schedules; ++s) {
      TileMatrix a = TileMatrix::from_dense(a0.view(), sh.nb);
      vsaqr::TreeQrOptions opt;
      opt.tree = sh.tree;
      opt.ib = sh.ib;
      opt.nodes = sh.nodes;
      opt.workers_per_node = sh.workers;
      opt.watchdog_seconds = 60.0;
      opt.transport = prt::Transport::Socket;
      opt.reliable_transport = true;
      opt.retransmit_timeout_us = 800;
      opt.max_retransmits = 30;
      opt.max_respawns = 2;
      // Rotate the victim and the crash point across schedules. The kill
      // can race run completion on these small arrays (a node may finish
      // before its monitor loop fires the fault) — that is fine, the
      // soak's contract is that the OUTPUT is identical either way.
      opt.fault_plan.kill_rank = s % sh.nodes;
      opt.fault_plan.kill_after = 1 + 3 * (s % 8);
      // Odd schedules add message-level chaos on top of the crash.
      if (s % 2 == 1) {
        opt.fault_plan.seed = 1000 + static_cast<std::uint64_t>(s);
        opt.fault_plan.drop = 0.05;
        opt.fault_plan.dup = 0.05;
        opt.fault_plan.reorder = 0.05;
      }

      const prt::GraphReport plan_report = vsaqr::lint_tree_qr(a, opt);
      auto run = vsaqr::tree_qr(a, opt);
      total_respawns += run.stats.respawns;
      total_replayed += run.stats.replayed_frames;
      total_faults += run.stats.faults.total();
      // Firings: the killed incarnation's count dies with it, and its
      // replacement re-fires the rank's VDPs from scratch, so the run
      // reports exactly the firings the counters declare, and those of
      // the first incarnations are the survivors' share.
      long long declared = 0;
      for (long long f : plan_report.node_fires) declared += f;
      EXPECT_EQ(run.stats.fires, declared)
          << "shape " << which << " schedule " << s;
      if (run.stats.respawns > 0) {
        EXPECT_GT(run.stats.refired_fires, 0)
            << "shape " << which << " schedule " << s
            << ": a respawned node reported no re-fired work";
        ASSERT_EQ(run.stats.respawns, 1);
        EXPECT_EQ(run.stats.fires - run.stats.refired_fires,
                  declared - plan_report.node_fires[opt.fault_plan.kill_rank])
            << "shape " << which << " schedule " << s;
      } else {
        EXPECT_EQ(run.stats.refired_fires, 0);
      }
      ASSERT_EQ(run.stats.leftover_packets, 0)
          << "shape " << which << " schedule " << s;
      for (int j = 0; j < reference.a.cols(); ++j) {
        for (int i = 0; i < reference.a.rows(); ++i) {
          ASSERT_EQ(run.factors.a.at(i, j), reference.a.at(i, j))
              << "shape " << which << " schedule " << s << " diverged at ("
              << i << "," << j << ")";
        }
      }
    }
  }
  std::printf("[ soak     ] %d kill runs: %lld respawns, %lld replayed "
              "frames, %lld faults\n",
              schedules * static_cast<int>(shapes.size()), total_respawns,
              total_replayed, total_faults);
  // The soak must actually exercise recovery: across all schedules at
  // least one node died and was respawned, and at least one survivor
  // replayed retained frames to a replacement.
  EXPECT_GT(total_respawns, 0) << "no schedule ever triggered the kill";
  EXPECT_GT(total_replayed, 0) << "no survivor ever replayed history";
  // The odd schedules' message faults: a floor at the default count keeps
  // a placement change from hollowing the soak out unnoticed.
  if (schedules == kKillSchedules) {
    EXPECT_GE(total_faults, 90);
  }
}

// ---- Cholesky and LU ride the same recovery machinery -----------------------

TEST(CrashRecoveryTest, CholeskyOverSocketSurvivesAKill) {
  const int n = 256, nb = 32;
  Matrix spd = chol::random_spd(n, 51);
  chol::VsaCholOptions base;
  base.nodes = 3;
  base.workers_per_node = 2;
  const auto reference =
      chol::vsa_cholesky(TileMatrix::from_dense(spd.view(), nb), base);
  chol::VsaCholOptions opt = base;
  opt.transport = prt::Transport::Socket;
  opt.reliable_transport = true;
  opt.retransmit_timeout_us = 800;
  opt.max_retransmits = 30;
  opt.max_respawns = 2;
  opt.fault_plan.kill_rank = 1;
  opt.fault_plan.kill_after = 2;
  auto run = chol::vsa_cholesky(TileMatrix::from_dense(spd.view(), nb), opt);
  EXPECT_GE(run.stats.respawns, 1) << "the kill never fired";
  EXPECT_GT(run.stats.remote_messages, 0);
  EXPECT_GT(run.stats.replayed_frames, 0) << "no survivor replayed history";
  const Matrix want = chol::extract_l(reference.l);
  const Matrix got = chol::extract_l(run.l);
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < n; ++i) {
      ASSERT_EQ(got(i, j), want(i, j))
          << "L diverged at (" << i << "," << j << ")";
    }
  }
}

TEST(CrashRecoveryTest, LuOverSocketSurvivesAKill) {
  const int n = 256, nb = 32;
  Matrix m = lu::random_diag_dominant(n, n, 52);
  lu::VsaLuOptions base;
  base.nodes = 3;
  base.workers_per_node = 2;
  const auto reference = lu::vsa_lu(TileMatrix::from_dense(m.view(), nb), base);
  lu::VsaLuOptions opt = base;
  opt.transport = prt::Transport::Socket;
  opt.reliable_transport = true;
  opt.retransmit_timeout_us = 800;
  opt.max_retransmits = 30;
  opt.max_respawns = 2;
  opt.fault_plan.kill_rank = 2;
  opt.fault_plan.kill_after = 2;
  auto run = lu::vsa_lu(TileMatrix::from_dense(m.view(), nb), opt);
  EXPECT_GE(run.stats.respawns, 1) << "the kill never fired";
  EXPECT_GT(run.stats.remote_messages, 0);
  EXPECT_GT(run.stats.replayed_frames, 0) << "no survivor replayed history";
  const Matrix want = reference.f.to_dense();
  const Matrix got = run.f.to_dense();
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < n; ++i) {
      ASSERT_EQ(got(i, j), want(i, j))
          << "factors diverged at (" << i << "," << j << ")";
    }
  }
}

TEST(CrashRecoveryTest, CholAndLuShipResultsOverTheSocketBackend) {
  // No faults at all: the shared result slots alone must reproduce the
  // in-process factors bit-for-bit for both scenario stores.
  const int n = 120, nb = 20;
  Matrix spd = chol::random_spd(n, 53);
  chol::VsaCholOptions copt;
  copt.nodes = 2;
  copt.workers_per_node = 2;
  const auto cref =
      chol::vsa_cholesky(TileMatrix::from_dense(spd.view(), nb), copt);
  copt.transport = prt::Transport::Socket;
  const auto crun =
      chol::vsa_cholesky(TileMatrix::from_dense(spd.view(), nb), copt);
  const Matrix cwant = chol::extract_l(cref.l);
  const Matrix cgot = chol::extract_l(crun.l);
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < n; ++i) {
      ASSERT_EQ(cgot(i, j), cwant(i, j))
          << "chol diverged at (" << i << "," << j << ")";
    }
  }

  Matrix dd = lu::random_diag_dominant(n, n, 54);
  lu::VsaLuOptions lopt;
  lopt.nodes = 2;
  lopt.workers_per_node = 2;
  const auto lref = lu::vsa_lu(TileMatrix::from_dense(dd.view(), nb), lopt);
  lopt.transport = prt::Transport::Socket;
  const auto lrun = lu::vsa_lu(TileMatrix::from_dense(dd.view(), nb), lopt);
  const Matrix lwant = lref.f.to_dense();
  const Matrix lgot = lrun.f.to_dense();
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < n; ++i) {
      ASSERT_EQ(lgot(i, j), lwant(i, j))
          << "lu diverged at (" << i << "," << j << ")";
    }
  }
}

}  // namespace
}  // namespace pulsarqr
