// The out-of-process transport backend: net::SocketComm over a Unix-
// domain socketpair mesh, and the Vsa fork-per-node run path on top of
// it. The unit tests drive two SocketComm instances inside one process
// (the mesh does not care which side of a socketpair lives where); the
// end-to-end tests fork real node processes through Vsa::run().
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <new>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "blas/blas.hpp"
#include "chol/reference_chol.hpp"
#include "chol/vsa_chol.hpp"
#include "common/rng.hpp"
#include "lu/reference_lu.hpp"
#include "lu/vsa_lu.hpp"
#include "prt/transport.hpp"
#include "prt/socket_comm.hpp"
#include "prt/vsa.hpp"
#include "prt/wire.hpp"
#include "ref/reference_qr.hpp"
#include "vsaqr/tree_qr.hpp"

namespace pulsarqr {
namespace {

using prt::Packet;
using prt::net::FaultPlan;
using prt::net::MailboxComm;
using prt::net::Message;
using prt::net::SocketComm;

/// A 2-rank mesh with both ends living in this test process.
struct Pair {
  std::unique_ptr<SocketComm> a;  // rank 0
  std::unique_ptr<SocketComm> b;  // rank 1
  Pair() {
    auto mesh = SocketComm::socketpair_mesh(2);
    a = std::make_unique<SocketComm>(2, 0, mesh[0]);
    b = std::make_unique<SocketComm>(2, 1, mesh[1]);
  }
};

TEST(SocketCommTest, FullMessageHeaderSurvivesTheWire) {
  Pair p;
  Packet payload = Packet::make(24, /*meta=*/0);
  for (int i = 0; i < 24; ++i) {
    payload.bytes()[i] = static_cast<std::byte>(i * 7);
  }
  p.a->isend(0, 1, /*tag=*/5, payload, /*meta=*/-3, /*seq=*/42, /*ack=*/7,
             /*is_ack=*/false);
  auto m = p.b->recv_wait(1, 2'000'000);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->source, 0);
  EXPECT_EQ(m->tag, 5);
  EXPECT_EQ(m->meta, -3);
  EXPECT_EQ(m->seq, 42);
  EXPECT_EQ(m->ack, 7);
  EXPECT_FALSE(m->is_ack);
  EXPECT_EQ(m->epoch, 0u);  // first incarnation unless told otherwise
  ASSERT_EQ(prt::net::Comm::get_count(*m), 24u);
  for (int i = 0; i < 24; ++i) {
    EXPECT_EQ(m->payload.bytes()[i], static_cast<std::byte>(i * 7));
  }
  EXPECT_EQ(p.a->messages_offered(), 1);
  EXPECT_EQ(p.a->messages_sent(), 1);
  EXPECT_EQ(p.a->bytes_sent(), 24);
}

TEST(SocketCommTest, EpochStampsEveryFrameIncludingSelfDelivery) {
  // Crash recovery fences stale frames by sender incarnation: every frame
  // a comm emits — wire and self-delivered alike — must carry its epoch.
  auto mesh = SocketComm::socketpair_mesh(2);
  SocketComm a(2, 0, mesh[0], /*epoch=*/3, {3, 0});
  SocketComm b(2, 1, mesh[1], /*epoch=*/0, {3, 0});
  a.isend(0, 1, 5, Packet::make(8), 1);
  auto m = b.recv_wait(1, 2'000'000);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->epoch, 3u);
  a.isend(0, 0, 5, Packet::make(8), 2);
  auto s = a.try_recv(0);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->epoch, 3u);
  // The ctor-provided incarnation vector seeds the receiver-side fence.
  EXPECT_EQ(b.peer_epoch(0), 3u);
  EXPECT_EQ(a.peer_epoch(1), 0u);
}

TEST(SocketCommTest, SelfSendStaysLocal) {
  Pair p;
  p.a->isend(0, 0, 1, Packet::make(8), 11);
  auto m = p.a->try_recv(0);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->meta, 11);
  // drain() empties the own mailbox in one call.
  p.a->isend(0, 0, 1, Packet::make(8), 12);
  p.a->isend(0, 0, 1, Packet::make(8), 13);
  auto all = p.a->drain(0);
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].meta, 12);
  EXPECT_EQ(all[1].meta, 13);
}

TEST(SocketCommTest, StreamOrderIsPreservedPerPeer) {
  Pair p;
  for (int i = 0; i < 200; ++i) p.a->isend(0, 1, 2, Packet::make(8), i);
  for (int i = 0; i < 200; ++i) {
    auto m = p.b->recv_wait(1, 2'000'000);
    ASSERT_TRUE(m.has_value()) << "message " << i << " never arrived";
    EXPECT_EQ(m->meta, i);  // SOCK_STREAM + in-order parse
  }
}

TEST(SocketCommTest, InterruptWakesABlockedReceiver) {
  Pair p;
  std::atomic<bool> woke{false};
  std::thread waiter([&] {
    auto m = p.b->recv_wait(1, 30'000'000);
    EXPECT_FALSE(m.has_value());  // interrupt, not a message
    woke.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  p.a->interrupt(1);  // remote interrupt travels as a control frame
  waiter.join();
  EXPECT_TRUE(woke.load());
  // Local interrupt latches even when nobody waits yet.
  p.b->interrupt(1);
  EXPECT_FALSE(p.b->recv_wait(1, 30'000'000).has_value());
}

TEST(SocketCommTest, BarrierSynchronizesAllRanks) {
  auto mesh = SocketComm::socketpair_mesh(3);
  std::vector<std::unique_ptr<SocketComm>> comms;
  for (int r = 0; r < 3; ++r) {
    comms.push_back(std::make_unique<SocketComm>(3, r, mesh[r]));
  }
  std::atomic<int> arrived{0};
  std::vector<std::thread> ts;
  for (int r = 0; r < 3; ++r) {
    ts.emplace_back([&, r] {
      for (int round = 0; round < 5; ++round) {
        arrived.fetch_add(1);
        comms[static_cast<std::size_t>(r)]->barrier();
        // After every barrier, all 3 * (round + 1) arrivals so far must
        // be visible to every rank.
        EXPECT_GE(arrived.load(), 3 * (round + 1));
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(arrived.load(), 15);
}

TEST(SocketCommTest, CancelLatchesOwnMailboxAgainstLateFrames) {
  Pair p;
  p.a->isend(0, 1, 0, Packet::make(8), 0);
  auto first = p.b->recv_wait(1, 2'000'000);
  ASSERT_TRUE(first.has_value());
  p.b->cancel(1);  // a rank cancels its own mailbox on shutdown
  p.a->isend(0, 1, 0, Packet::make(8), 1);  // late frame: must vanish
  EXPECT_FALSE(p.b->recv_wait(1, 50'000).has_value());
}

TEST(SocketCommTest, CancelLatchesDestinationOnTheSendSide) {
  Pair p;
  FaultPlan plan;
  plan.seed = 3;
  plan.delay = 1.0;  // everything goes through the sender-side limbo
  plan.delay_us = 1000;
  p.a->set_fault_plan(plan);
  p.a->isend(0, 1, 0, Packet::make(8), 0);
  p.a->cancel(1);  // clears the limbo AND latches dst 1
  for (int i = 1; i < 10; ++i) p.a->isend(0, 1, 0, Packet::make(8), i);
  // Nothing may ever reach rank 1 — not from limbo, not from new sends.
  EXPECT_FALSE(p.b->recv_wait(1, 20'000).has_value());
}

TEST(SocketCommTest, FaultScheduleMatchesTheInProcessBackend) {
  // Same seed, same (src, dst, tag) stream, same message indices: the
  // pure-hash oracle must replay the identical drop/dup schedule on both
  // backends, delivering the same meta sequence and counters.
  FaultPlan plan;
  plan.seed = 31;
  plan.drop = 0.25;
  plan.dup = 0.25;  // no delay/reorder: those depend on wall-clock timing

  MailboxComm mc(2);
  mc.set_fault_plan(plan);
  for (int i = 0; i < 300; ++i) mc.isend(0, 1, 4, Packet::make(8), i);
  std::vector<int> expect_metas;
  while (auto m = mc.try_recv(1)) expect_metas.push_back(m->meta);

  Pair p;
  p.a->set_fault_plan(plan);
  for (int i = 0; i < 300; ++i) p.a->isend(0, 1, 4, Packet::make(8), i);
  std::vector<int> metas;
  while (metas.size() < expect_metas.size()) {
    auto m = p.b->recv_wait(1, 2'000'000);
    ASSERT_TRUE(m.has_value()) << "socket backend lost scheduled messages";
    metas.push_back(m->meta);
  }
  EXPECT_FALSE(p.b->try_recv(1).has_value());
  EXPECT_EQ(metas, expect_metas);
  EXPECT_EQ(p.a->fault_counters().dropped, mc.fault_counters().dropped);
  EXPECT_EQ(p.a->fault_counters().duplicated, mc.fault_counters().duplicated);
  EXPECT_EQ(p.a->messages_sent(), mc.messages_sent());
  EXPECT_EQ(p.a->messages_offered(), mc.messages_offered());
}

// ---- the receiver against raw streams ---------------------------------------
//
// Rank 0 here is a raw socket end written byte for byte by the test, so
// a frame can be split anywhere or carry a header no SocketComm would
// send. Every stream either reassembles bitwise or takes the structured
// peer-down path (peer_alive() false, as for a dead peer process); none
// may crash the receiver thread.

/// Rank 1 as a SocketComm, rank 0 as the raw socket end talking to it.
struct RawPeer {
  int fd = -1;
  std::unique_ptr<SocketComm> b;
  RawPeer() {
    auto mesh = SocketComm::socketpair_mesh(2);
    fd = mesh[0][1];
    b = std::make_unique<SocketComm>(2, 1, mesh[1]);
  }
  ~RawPeer() {
    b.reset();
    ::close(fd);
  }
  void write(const std::byte* p, std::size_t n) const {
    while (n > 0) {
      const ssize_t k = ::send(fd, p, n, MSG_NOSIGNAL);
      ASSERT_GT(k, 0) << std::strerror(errno);
      p += k;
      n -= static_cast<std::size_t>(k);
    }
  }
  void write(const std::vector<std::byte>& bytes) const {
    write(bytes.data(), bytes.size());
  }
  /// Whether rank 1 marked rank 0 down within a few seconds.
  bool goes_down() const {
    for (int i = 0; i < 500 && b->peer_alive(0); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return !b->peer_alive(0);
  }
};

/// One wire frame (socket_comm.hpp layout) on rank 0's stream with the
/// given header fields; `len` is what the header claims, whatever
/// `payload` is, and `source` the rank the header names as its sender.
std::vector<std::byte> raw_frame(std::uint32_t kind, int tag, int meta,
                                 std::uint64_t len,
                                 const std::vector<std::byte>& payload,
                                 int source = 0) {
  namespace wire = prt::net::wire;
  std::vector<std::byte> f(SocketComm::kFrameHeaderBytes + payload.size());
  wire::put_u32(f.data(), kind);
  wire::put_u32(f.data() + 4, 0);
  wire::put_i32(f.data() + 8, source);
  wire::put_i32(f.data() + 12, tag);
  wire::put_i32(f.data() + 16, meta);
  wire::put_u64(f.data() + 20, len);
  wire::put_i64(f.data() + 28, -1);
  wire::put_i64(f.data() + 36, -1);
  wire::put_u32(f.data() + 44, 0);
  if (!payload.empty()) {
    std::memcpy(f.data() + SocketComm::kFrameHeaderBytes, payload.data(),
                payload.size());
  }
  return f;
}

std::vector<std::byte> pattern(std::size_t n, int salt) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((i * 131 + static_cast<std::size_t>(salt)) & 0xff);
  }
  return v;
}

/// Receive one data message and check its tag, meta and payload bitwise.
void expect_frame(SocketComm& c, int tag, int meta,
                  const std::vector<std::byte>& payload) {
  auto m = c.recv_wait(1, 5'000'000);
  ASSERT_TRUE(m.has_value()) << "frame meta " << meta << " never arrived";
  EXPECT_EQ(m->source, 0);
  EXPECT_EQ(m->tag, tag);
  EXPECT_EQ(m->meta, meta);
  ASSERT_EQ(m->payload.size(), payload.size());
  if (!payload.empty()) {
    EXPECT_EQ(std::memcmp(m->payload.bytes(), payload.data(), payload.size()),
              0)
        << "payload of frame meta " << meta << " differs";
  }
}

TEST(SocketCommTest, HostileHeadersTakeThePeerDownPath) {
  struct Case {
    const char* what;
    std::uint32_t kind;
    std::uint64_t len;
    int source = 0;
  };
  const Case cases[] = {
      // Header plus payload length wraps past 2^64.
      {"wrapping length", SocketComm::kData, ~std::uint64_t{0} - 8},
      // No wrap, but unbounded buffering for as long as the peer sends.
      {"oversized length", SocketComm::kData,
       std::uint64_t{SocketComm::kMaxPayloadBytes} + 1},
      {"unknown kind", 7, 0},
      {"control frame with a payload", SocketComm::kBarrier, 16},
      // Rank 0's stream claiming rank 1 sent it: without the check it
      // would be delivered as rank 1's own frame.
      {"source is not the peer", SocketComm::kData, 0, 1},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    RawPeer p;
    // A valid frame ahead of the bad header is still delivered.
    const std::vector<std::byte> good = pattern(40, 1);
    std::vector<std::byte> bytes = raw_frame(SocketComm::kData, 3, 9, 40, good);
    const std::vector<std::byte> bad =
        raw_frame(c.kind, 3, 10, c.len, {}, c.source);
    bytes.insert(bytes.end(), bad.begin(), bad.end());
    p.write(bytes);
    expect_frame(*p.b, 3, 9, good);
    EXPECT_FALSE(p.b->recv_wait(1, 20'000).has_value());
    // Asserted: a peer left up keeps its socket open, and the probe
    // below would block.
    ASSERT_TRUE(p.goes_down());
    // The socket is shut, so rank 1's own sends to the peer fail fast
    // instead of filling a buffer nobody reads.
    std::byte probe;
    EXPECT_EQ(::recv(p.fd, &probe, 1, 0), 0);
  }
}

TEST(SocketCommTest, AFrameWrittenOneByteAtATimeReassemblesBitwise) {
  RawPeer p;
  // Larger than the receiver's stage (its payload is read straight into
  // a packet), then one that fits it.
  const std::vector<std::byte> big = pattern(5000, 2);
  const std::vector<std::byte> small = pattern(24, 3);
  std::vector<std::byte> bytes = raw_frame(SocketComm::kData, 4, 1, 5000, big);
  const std::vector<std::byte> tail =
      raw_frame(SocketComm::kData, 4, 2, 24, small);
  bytes.insert(bytes.end(), tail.begin(), tail.end());
  for (const std::byte& b : bytes) p.write(&b, 1);
  expect_frame(*p.b, 4, 1, big);
  expect_frame(*p.b, 4, 2, small);
  EXPECT_TRUE(p.b->peer_alive(0));
}

TEST(SocketCommTest, SplitHeaderThenASmallFrameBurstReassembles) {
  RawPeer p;
  // A tile-sized frame whose header arrives in two reads, the second
  // carrying the rest of it and a burst of small frames behind it.
  const std::vector<std::byte> tile = pattern(32784, 4);
  const std::vector<std::byte> first =
      raw_frame(SocketComm::kData, 5, 0, tile.size(), tile);
  p.write(first.data(), 20);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  std::vector<std::byte> rest(first.begin() + 20, first.end());
  std::vector<std::vector<std::byte>> smalls;
  for (int i = 1; i <= 100; ++i) {
    smalls.push_back(pattern(static_cast<std::size_t>(8 * (i % 5)), i));
    const std::vector<std::byte> f =
        raw_frame(SocketComm::kData, 5, i, smalls.back().size(), smalls.back());
    rest.insert(rest.end(), f.begin(), f.end());
  }
  p.write(rest);
  expect_frame(*p.b, 5, 0, tile);
  for (int i = 1; i <= 100; ++i) expect_frame(*p.b, 5, i, smalls[i - 1]);
  EXPECT_TRUE(p.b->peer_alive(0));
}

TEST(SocketCommTest, TileFramesRoundTripBothWays) {
  // Gather-written frames (one sendmsg of header + payload) larger than
  // a socket buffer's worth in flight, both directions at once.
  Pair p;
  std::vector<Packet> sent;
  for (int i = 0; i < 64; ++i) {
    Packet t = Packet::make(32784 + 8 * static_cast<std::size_t>(i));
    const std::vector<std::byte> v = pattern(t.size(), i);
    std::memcpy(t.bytes(), v.data(), v.size());
    sent.push_back(t);
  }
  std::thread back([&] {
    for (int i = 0; i < 64; ++i) p.b->isend(1, 0, 6, sent[i], i);
  });
  for (int i = 0; i < 64; ++i) p.a->isend(0, 1, 6, sent[i], i);
  for (int i = 0; i < 64; ++i) {
    const std::vector<std::byte> v(sent[i].bytes(),
                                   sent[i].bytes() + sent[i].size());
    expect_frame(*p.b, 6, i, v);
    auto m = p.a->recv_wait(0, 5'000'000);
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->meta, i);
    ASSERT_EQ(m->payload.size(), v.size());
    EXPECT_EQ(std::memcmp(m->payload.bytes(), v.data(), v.size()), 0);
  }
  back.join();
}

// ---- end to end through Vsa::run() ------------------------------------------

vsaqr::TreeQrOptions socket_qr_options(int nodes, int workers) {
  vsaqr::TreeQrOptions opt;
  opt.tree = {plan::TreeKind::BinaryOnFlat, 2, plan::BoundaryMode::Shifted};
  opt.ib = 2;
  opt.nodes = nodes;
  opt.workers_per_node = workers;
  opt.watchdog_seconds = 60.0;
  opt.transport = prt::Transport::Socket;
  return opt;
}

TEST(SocketVsaTest, FactorizationMatchesTheReferenceBitwise) {
  Matrix a0(40, 10);
  fill_random(a0.view(), 17);
  const auto reference = ref::tree_qr(TileMatrix::from_dense(a0.view(), 5), 2,
                                      socket_qr_options(2, 2).tree);
  TileMatrix a = TileMatrix::from_dense(a0.view(), 5);
  auto run = vsaqr::tree_qr(a, socket_qr_options(2, 2));
  EXPECT_GT(run.stats.fires, 0);
  EXPECT_GT(run.stats.remote_messages, 0);
  // Clean fabric, no cancels: everything offered went out.
  EXPECT_EQ(run.stats.wire_messages, run.stats.wire_offered);
  EXPECT_EQ(run.stats.fault_streams, 0);
  EXPECT_EQ(run.stats.leftover_packets, 0);
  for (int j = 0; j < reference.a.cols(); ++j) {
    for (int i = 0; i < reference.a.rows(); ++i) {
      ASSERT_EQ(run.factors.a.at(i, j), reference.a.at(i, j))
          << "factors differ at (" << i << "," << j << ")";
    }
  }
}

TEST(SocketVsaTest, BothTransportsReportTheSameStats) {
  // One node engine serves both transports: the same graph reports the
  // same firing and traffic totals whether its nodes are thread groups
  // or forked processes whose epilogues the parent merges.
  Matrix a0(40, 10);
  fill_random(a0.view(), 22);
  auto opt = socket_qr_options(2, 2);
  TileMatrix a = TileMatrix::from_dense(a0.view(), 5);
  const auto sock = vsaqr::tree_qr(a, opt).stats;
  opt.transport = prt::Transport::InProcess;
  const auto inproc = vsaqr::tree_qr(a, opt).stats;
  EXPECT_GT(inproc.fires, 0);
  EXPECT_EQ(sock.fires, inproc.fires);
  EXPECT_EQ(sock.remote_messages, inproc.remote_messages);
  EXPECT_EQ(sock.remote_bytes, inproc.remote_bytes);
  for (const auto* s : {&sock, &inproc}) {
    EXPECT_EQ(s->leftover_packets, 0);
    EXPECT_EQ(s->busy_per_thread.size(),
              static_cast<std::size_t>(opt.nodes * opt.workers_per_node));
    EXPECT_EQ(s->proxy_busy_per_node.size(),
              static_cast<std::size_t>(opt.nodes));
  }
}

TEST(SocketVsaTest, ThreeNodesWithReliableProtocolStayCorrect) {
  Matrix a0(48, 12);
  fill_random(a0.view(), 18);
  vsaqr::TreeQrOptions opt;
  opt.tree = {plan::TreeKind::Binary, 1, plan::BoundaryMode::Shifted};
  opt.ib = 3;
  opt.nodes = 3;
  opt.workers_per_node = 1;
  opt.watchdog_seconds = 60.0;
  opt.transport = prt::Transport::Socket;
  opt.reliable_transport = true;
  opt.retransmit_timeout_us = 60'000'000;  // clean fabric: never fires
  const auto reference =
      ref::tree_qr(TileMatrix::from_dense(a0.view(), 6), 3, opt.tree);
  TileMatrix a = TileMatrix::from_dense(a0.view(), 6);
  auto run = vsaqr::tree_qr(a, opt);
  EXPECT_EQ(run.stats.retransmits, 0);
  EXPECT_EQ(run.stats.faults.total(), 0);
  for (int j = 0; j < reference.a.cols(); ++j) {
    for (int i = 0; i < reference.a.rows(); ++i) {
      ASSERT_EQ(run.factors.a.at(i, j), reference.a.at(i, j))
          << "factors differ at (" << i << "," << j << ")";
    }
  }
}

TEST(SocketVsaTest, ExhaustedRetriesSurfaceTheChildRunReport) {
  // A fully lossy fabric fails in a CHILD process; the structured report
  // must travel back over the control socket and come out of the parent's
  // throw exactly like the in-process backend's.
  Matrix a0(40, 10);
  fill_random(a0.view(), 19);
  TileMatrix a = TileMatrix::from_dense(a0.view(), 5);
  auto opt = socket_qr_options(2, 2);
  opt.fault_plan.seed = 1;
  opt.fault_plan.drop = 1.0;
  opt.reliable_transport = true;
  opt.retransmit_timeout_us = 200;
  opt.max_retransmits = 3;
  try {
    vsaqr::tree_qr(a, opt);
    FAIL() << "a fully lossy link must fail the run";
  } catch (const prt::Vsa::RunError& e) {
    const auto& r = e.report();
    EXPECT_EQ(r.reason, "transport");
    EXPECT_GT(r.faults.dropped, 0);
    EXPECT_GT(r.retransmits, 0);
    ASSERT_FALSE(r.links.empty()) << "report must name the broken streams";
    bool named = false;
    for (const auto& g : r.links) {
      if (g.exhausted && !g.pending_tags.empty()) named = true;
    }
    EXPECT_TRUE(named);
    const std::string what = e.what();
    EXPECT_NE(what.find("RETRANSMITS_EXHAUSTED"), std::string::npos);
    EXPECT_NE(what.find("retransmit limit"), std::string::npos);
  }
}

TEST(SocketVsaTest, TraceMergesChildTimelinesIntoOneRecorder) {
  // Every node process records into its copy of the Recorder run()
  // started before the fork, so its events are on the parent's clock;
  // the 'E' epilogue ships them and the parent merges them. The merged
  // trace must cover every child's lanes with sane, parent-relative
  // timestamps.
  Matrix a0(40, 10);
  fill_random(a0.view(), 20);
  TileMatrix a = TileMatrix::from_dense(a0.view(), 5);
  auto opt = socket_qr_options(2, 2);
  opt.trace = true;
  auto run = vsaqr::tree_qr(a, opt);
  ASSERT_FALSE(run.events.empty());
  // Worker lanes are global thread ids; each node's proxy gets the lane
  // total_threads + node.
  const int lanes = opt.nodes * opt.workers_per_node + opt.nodes;
  std::set<int> seen;
  for (const auto& ev : run.events) {
    ASSERT_GE(ev.thread, 0);
    ASSERT_LT(ev.thread, lanes);
    ASSERT_LE(ev.t0, ev.t1);
    // Children start after the parent's clock: a negative t0 would mean
    // a child recorded on a clock of its own.
    ASSERT_GE(ev.t0, 0.0);
    seen.insert(ev.thread);
  }
  EXPECT_GT(seen.size(), 1u) << "trace covers only one lane";
  // One span per firing, at least (proxies may add more).
  EXPECT_GE(static_cast<long long>(run.events.size()), run.stats.fires);
}

TEST(SocketVsaTest, SolveRunsOverTheSocketBackend) {
  const int m = 40, n = 10, nrhs = 2;
  Matrix a0(m, n);
  fill_random_well_conditioned(a0.view(), 23);
  Matrix b(m, nrhs);
  fill_random(b.view(), 24);
  auto opt = socket_qr_options(2, 2);
  Matrix x = vsaqr::tree_qr_solve(TileMatrix::from_dense(a0.view(), 5),
                                  b.view(), opt);
  // Residual orthogonality: A^T (b - A x) ~ 0 for least squares.
  for (int r = 0; r < nrhs; ++r) {
    std::vector<double> rhs(m), xr(n);
    for (int i = 0; i < m; ++i) rhs[i] = b(i, r);
    for (int i = 0; i < n; ++i) xr[i] = x(i, r);
    std::vector<double> res = rhs;
    blas::gemv(blas::Trans::No, -1.0, a0.view(), xr.data(), 1.0, res.data());
    std::vector<double> atr(n, 0.0);
    blas::gemv(blas::Trans::Yes, 1.0, a0.view(), res.data(), 0.0, atr.data());
    EXPECT_LT(blas::nrm2(n, atr.data()), 1e-9 * m) << "rhs " << r;
  }
}

/// Every element of the two views is bitwise equal.
void expect_bitwise(ConstMatrixView got, ConstMatrixView want,
                    const std::string& what) {
  ASSERT_EQ(got.rows, want.rows) << what;
  ASSERT_EQ(got.cols, want.cols) << what;
  for (int c = 0; c < got.cols; ++c) {
    ASSERT_EQ(std::memcmp(got.col(c), want.col(c), sizeof(double) * got.rows),
              0)
        << what << " column " << c;
  }
}

/// The referenced part of two ib-by-w T tiles is bitwise equal: the upper
/// triangle of each ib-column block (the kernels leave the rest as they
/// found it, which depends on buffer reuse).
void expect_t_bitwise(ConstMatrixView got, ConstMatrixView want, int ib,
                      const std::string& what) {
  ASSERT_EQ(got.rows, want.rows) << what;
  ASSERT_EQ(got.cols, want.cols) << what;
  for (int c = 0; c < got.cols; ++c) {
    const int rows = std::min(c % ib + 1, got.rows);
    ASSERT_EQ(std::memcmp(got.col(c), want.col(c), sizeof(double) * rows), 0)
        << what << " column " << c;
  }
}

TEST(SocketVsaTest, EveryDepositKindLandsBitwiseInTheSharedSlots) {
  // Three node processes, each depositing straight into the parent's
  // shared slots: the QR ResultStore's factor tiles, geqrt T and tree T
  // factors, then apply_qt's result tiles. Each must equal the in-process
  // run of the same array bit for bit.
  Matrix a0(48, 12);
  fill_random(a0.view(), 25);
  Matrix b0(48, 3);
  fill_random(b0.view(), 26);
  const auto opt = socket_qr_options(3, 1);
  auto inproc = opt;
  inproc.transport = prt::Transport::InProcess;
  const auto want = vsaqr::tree_qr(TileMatrix::from_dense(a0.view(), 6), inproc);
  const auto got = vsaqr::tree_qr(TileMatrix::from_dense(a0.view(), 6), opt);
  const TileMatrix& wa = want.factors.a;
  for (int i = 0; i < wa.mt(); ++i) {
    for (int j = 0; j < wa.nt(); ++j) {
      expect_bitwise(got.factors.a.tile(i, j), wa.tile(i, j),
                     "tile (" + std::to_string(i) + "," + std::to_string(j) +
                         ")");
    }
  }
  // The T slots the plan's factor ops wrote.
  for (const plan::Op& op : want.factors.plan.ops()) {
    const std::string at = std::to_string(op.i) + "," +
                           std::to_string(op.k) + "," + std::to_string(op.j);
    if (op.kind == plan::OpKind::Geqrt) {
      expect_t_bitwise(got.factors.tg.t(op.i, op.j),
                       want.factors.tg.t(op.i, op.j), opt.ib, "geqrt T " + at);
    } else if (op.kind == plan::OpKind::Tsqrt ||
               op.kind == plan::OpKind::Ttqrt) {
      expect_t_bitwise(got.factors.tt.t(op.k, op.j),
                       want.factors.tt.t(op.k, op.j), opt.ib, "tree T " + at);
    }
  }
  const TileMatrix b = TileMatrix::from_dense(b0.view(), 6);
  const TileMatrix qtb = vsaqr::apply_qt(got.factors, b, opt);
  const TileMatrix qtb_want = vsaqr::apply_qt(want.factors, b, inproc);
  for (int i = 0; i < qtb_want.mt(); ++i) {
    for (int j = 0; j < qtb_want.nt(); ++j) {
      expect_bitwise(qtb.tile(i, j), qtb_want.tile(i, j),
                     "Q^T B tile (" + std::to_string(i) + "," +
                         std::to_string(j) + ")");
    }
  }
}

// In-process multi-node shares every inter-node buffer between the node
// threads, while the socket backend copies it across real address spaces.
// An array that wrote to a buffer after pushing it (a consumer mutating a
// by-passed packet its producer still reads, say) would make the two
// disagree, so Cholesky and LU must match bit for bit across them.
TEST(SocketVsaTest, CholeskyAndLuMatchTheInProcessRunBitwise) {
  prt::Vsa::Config socket;
  socket.nodes = 3;
  socket.workers_per_node = 1;
  socket.watchdog_seconds = 60.0;
  socket.transport = prt::Transport::Socket;
  auto inproc = socket;
  inproc.transport = prt::Transport::InProcess;
  auto expect_same = [](const TileMatrix& got, const TileMatrix& want,
                        const std::string& what) {
    for (int i = 0; i < want.mt(); ++i) {
      for (int j = 0; j < want.nt(); ++j) {
        expect_bitwise(got.tile(i, j), want.tile(i, j),
                       what + " tile (" + std::to_string(i) + "," +
                           std::to_string(j) + ")");
      }
    }
  };
  const TileMatrix spd =
      TileMatrix::from_dense(chol::random_spd(40, 27).view(), 8);
  expect_same(chol::vsa_cholesky(spd, socket).l,
              chol::vsa_cholesky(spd, inproc).l, "chol");
  const TileMatrix dd =
      TileMatrix::from_dense(lu::random_diag_dominant(40, 32, 28).view(), 8);
  expect_same(lu::vsa_lu(dd, socket).f, lu::vsa_lu(dd, inproc).f, "lu");
}

TEST(SocketVsaTest, AThrowingVdpFailsItsNodeStructurally) {
  // A VDP body that throws in a node process must not unwind into the
  // caller's code inside the forked child; the node ships a report naming
  // the VDP, and the parent fails the run with it rather than respawning
  // a node that would replay into the same throw.
  prt::Vsa::Config cfg;
  cfg.nodes = 2;
  cfg.workers_per_node = 1;
  cfg.watchdog_seconds = 60.0;
  cfg.transport = prt::Transport::Socket;
  cfg.reliable_transport = true;
  cfg.max_respawns = 2;
  // Firings of the throwing VDP, counted across processes.
  void* shared = ::mmap(nullptr, sizeof(std::atomic<int>),
                        PROT_READ | PROT_WRITE, MAP_SHARED | MAP_ANONYMOUS,
                        -1, 0);
  ASSERT_NE(shared, MAP_FAILED);
  auto* throws = new (shared) std::atomic<int>(0);
  prt::Vsa vsa(cfg);
  for (int i = 0; i < 2; ++i) {
    const bool last = i == 1;
    vsa.add_vdp(
        prt::tuple2(3, i), 1,
        [last, throws](prt::VdpContext& ctx) {
          Packet p = ctx.pop(0);
          if (last) {
            throws->fetch_add(1);
            throw Error("VDP failed");
          }
          ctx.push(0, std::move(p));
        },
        1, last ? 0 : 1);
    vsa.map_vdp(prt::tuple2(3, i), i);
  }
  std::vector<Packet> init;
  init.push_back(Packet::make(64));
  vsa.feed(prt::tuple2(3, 0), 0, 64, std::move(init));
  vsa.connect(prt::tuple2(3, 0), 0, prt::tuple2(3, 1), 0, 64);
  // A node process that unwound out of run() would be back in this test
  // body; it reports so through a pipe every process inherits, then exits.
  int escaped[2];
  ASSERT_EQ(::pipe(escaped), 0);
  const pid_t self = ::getpid();
  std::optional<prt::Vsa::RunReport> report;
  try {
    vsa.run();
  } catch (const prt::Vsa::RunError& e) {
    report = e.report();
  } catch (const Error&) {
  }
  if (::getpid() != self) {
    (void)!::write(escaped[1], "x", 1);
    ::_exit(0);
  }
  ::close(escaped[1]);
  char c;
  EXPECT_EQ(::read(escaped[0], &c, 1), 0)
      << "a node process unwound into the caller's code";
  ::close(escaped[0]);
  ASSERT_TRUE(report.has_value()) << "the run did not fail with a RunError";
  EXPECT_EQ(report->reason, "vdp");
  EXPECT_EQ(report->failed_vdp, prt::tuple2(3, 1));
  EXPECT_EQ(report->vdp_error, "VDP failed");
  EXPECT_TRUE(report->dead_ranks.empty());
  EXPECT_EQ(report->leftover_packets, 0);  // the one packet was popped
  EXPECT_EQ(throws->load(), 1) << "the failed node was respawned";
  ::munmap(shared, sizeof(std::atomic<int>));
}

TEST(SocketVsaTest, IndefiniteCholeskyFailsWithTheVdpReport) {
  // A diagonal matrix with one negative entry: the potrf VDP of that
  // diagonal tile, P(3) = (0,3) at nb 64, throws in its node process.
  Matrix a(256, 256);
  for (int i = 0; i < 256; ++i) a(i, i) = i == 200 ? -1.0 : 1.0;
  chol::VsaCholOptions opt;
  opt.nodes = 2;
  opt.workers_per_node = 1;
  opt.transport = prt::Transport::Socket;
  try {
    chol::vsa_cholesky(TileMatrix::from_dense(a.view(), 64), opt);
    FAIL() << "an indefinite matrix factored";
  } catch (const prt::Vsa::RunError& e) {
    EXPECT_EQ(e.report().reason, "vdp");
    EXPECT_EQ(e.report().failed_vdp, prt::Tuple({0, 3}));
    EXPECT_NE(e.report().vdp_error.find("not positive definite"),
              std::string::npos)
        << e.report().vdp_error;
    EXPECT_TRUE(e.report().dead_ranks.empty());
  }
}

// ---- control-plane codecs ---------------------------------------------------

using prt::net::wire::Blob;
using prt::net::wire::BlobReader;
using RunStats = prt::Vsa::RunStats;

/// A RunStats with a distinct value in every field and vectors sized for
/// `threads` workers on `nodes` nodes.
RunStats distinct_stats(int threads, int nodes) {
  RunStats s;
  long long v = 100;
  s.seconds = 1.5;
  for (long long* c :
       {&s.fires, &s.remote_messages, &s.remote_bytes, &s.wire_offered,
        &s.wire_messages, &s.wire_bytes, &s.fault_streams, &s.pool_hits,
        &s.pool_misses, &s.faults.dropped, &s.faults.duplicated,
        &s.faults.delayed, &s.faults.reordered, &s.retransmits,
        &s.duplicates_suppressed, &s.acks_sent, &s.respawns,
        &s.replayed_frames, &s.refired_fires}) {
    *c = ++v;
  }
  s.leftover_packets = static_cast<int>(++v);
  for (int t = 0; t < threads; ++t) s.busy_per_thread.push_back(0.25 * t + 1);
  for (int n = 0; n < nodes; ++n) {
    s.proxy_busy_per_node.push_back(0.5 * n + 3);
    s.sys_seconds_per_node.push_back(0.125 * n + 5);
    s.minor_faults_per_node.push_back(++v);
  }
  return s;
}

RunStats empty_total(int threads, int nodes) {
  RunStats s;
  s.busy_per_thread.assign(threads, 0.0);
  s.proxy_busy_per_node.assign(nodes, 0.0);
  s.sys_seconds_per_node.assign(nodes, 0.0);
  s.minor_faults_per_node.assign(nodes, 0);
  return s;
}

TEST(RunStatsCodec, RoundTripsEveryField) {
  const RunStats in = distinct_stats(4, 2);
  Blob b;
  prt::encode_run_stats(b, in);
  BlobReader br(b.data(), b.size());
  RunStats out = empty_total(4, 2);
  prt::merge_run_stats(br, out);
  EXPECT_TRUE(br.done());
  EXPECT_EQ(out.seconds, in.seconds);
  EXPECT_EQ(out.fires, in.fires);
  EXPECT_EQ(out.remote_messages, in.remote_messages);
  EXPECT_EQ(out.remote_bytes, in.remote_bytes);
  EXPECT_EQ(out.wire_offered, in.wire_offered);
  EXPECT_EQ(out.wire_messages, in.wire_messages);
  EXPECT_EQ(out.wire_bytes, in.wire_bytes);
  EXPECT_EQ(out.fault_streams, in.fault_streams);
  EXPECT_EQ(out.pool_hits, in.pool_hits);
  EXPECT_EQ(out.pool_misses, in.pool_misses);
  EXPECT_EQ(out.leftover_packets, in.leftover_packets);
  EXPECT_EQ(out.busy_per_thread, in.busy_per_thread);
  EXPECT_EQ(out.proxy_busy_per_node, in.proxy_busy_per_node);
  EXPECT_EQ(out.sys_seconds_per_node, in.sys_seconds_per_node);
  EXPECT_EQ(out.minor_faults_per_node, in.minor_faults_per_node);
  EXPECT_EQ(out.faults.dropped, in.faults.dropped);
  EXPECT_EQ(out.faults.duplicated, in.faults.duplicated);
  EXPECT_EQ(out.faults.delayed, in.faults.delayed);
  EXPECT_EQ(out.faults.reordered, in.faults.reordered);
  EXPECT_EQ(out.retransmits, in.retransmits);
  EXPECT_EQ(out.duplicates_suppressed, in.duplicates_suppressed);
  EXPECT_EQ(out.acks_sent, in.acks_sent);
  EXPECT_EQ(out.respawns, in.respawns);
  EXPECT_EQ(out.replayed_frames, in.replayed_frames);
  EXPECT_EQ(out.refired_fires, in.refired_fires);
}

TEST(RunStatsCodec, MergingTwoNodesAddsCountersAndVectors) {
  RunStats a = empty_total(4, 2), b = empty_total(4, 2);
  a.fires = 3;
  a.seconds = 2.0;
  a.busy_per_thread = {1, 2, 0, 0};
  a.proxy_busy_per_node = {0.5, 0};
  b.fires = 4;
  b.seconds = 1.0;
  b.busy_per_thread = {0, 0, 3, 4};
  b.proxy_busy_per_node = {0, 0.25};
  RunStats total = empty_total(4, 2);
  for (const RunStats* s : {&a, &b}) {
    Blob blob;
    prt::encode_run_stats(blob, *s);
    BlobReader br(blob.data(), blob.size());
    prt::merge_run_stats(br, total);
  }
  EXPECT_EQ(total.fires, 7);
  EXPECT_EQ(total.seconds, 2.0);
  EXPECT_EQ(total.busy_per_thread, (std::vector<double>{1, 2, 3, 4}));
  EXPECT_EQ(total.proxy_busy_per_node, (std::vector<double>{0.5, 0.25}));
}

/// `blob` must be rejected with pulsarqr::Error and leave `total` as it was.
void expect_rejected(const std::vector<std::byte>& blob) {
  RunStats total = empty_total(4, 2);
  total.fires = 9;
  BlobReader br(blob.data(), blob.size());
  EXPECT_THROW(prt::merge_run_stats(br, total), Error);
  EXPECT_EQ(total.fires, 9);
  EXPECT_EQ(total.busy_per_thread, std::vector<double>(4, 0.0));
}

std::vector<std::byte> bytes_of(const Blob& b) {
  return std::vector<std::byte>(b.data(), b.data() + b.size());
}

// coalesced_frames and aggregates_sent are always 0 and left the codec: a
// node process's values never reach the parent's totals, and they do not
// change the blob.
TEST(RunStatsCodec, RetiredCoalescingCountersStayOffTheWire) {
  RunStats in = distinct_stats(4, 2);
  Blob plain;
  prt::encode_run_stats(plain, in);
  in.coalesced_frames = 123;
  in.aggregates_sent = 45;
  Blob marked;
  prt::encode_run_stats(marked, in);
  EXPECT_EQ(bytes_of(marked), bytes_of(plain));
  BlobReader br(marked.data(), marked.size());
  RunStats out = empty_total(4, 2);
  prt::merge_run_stats(br, out);
  EXPECT_TRUE(br.done());
  EXPECT_EQ(out.coalesced_frames, 0);
  EXPECT_EQ(out.aggregates_sent, 0);
  EXPECT_EQ(out.remote_messages, in.remote_messages);
}

TEST(RunStatsCodec, RejectsTruncatedBlobs) {
  Blob b;
  prt::encode_run_stats(b, distinct_stats(4, 2));
  const auto full = bytes_of(b);
  for (std::size_t n = 0; n < full.size(); n += 3) {
    expect_rejected(std::vector<std::byte>(full.begin(), full.begin() + n));
  }
}

TEST(RunStatsCodec, RejectsAWorkerCountThatDoesNotMatchTheTopology) {
  // A node process reporting more workers than workers_per_node must not
  // write past the parent's per-thread vector.
  Blob b;
  prt::encode_run_stats(b, distinct_stats(6, 2));
  expect_rejected(bytes_of(b));
  Blob fewer;
  prt::encode_run_stats(fewer, distinct_stats(4, 1));
  expect_rejected(bytes_of(fewer));
}

TEST(RunStatsCodec, RejectsAnInflatedVectorCount) {
  Blob b;
  prt::encode_run_stats(b, distinct_stats(4, 2));
  auto blob = bytes_of(b);
  // The per-thread count follows seconds, leftovers and the 19 counters.
  const std::size_t at = 8 + 8 + 19 * 8;
  ASSERT_EQ(prt::net::wire::get_u64(blob.data() + at), 4u);
  prt::net::wire::put_u64(blob.data() + at, std::uint64_t{1} << 40);
  expect_rejected(blob);
}

TEST(WireBlobReader, HugeLengthDoesNotWrapPastTheBoundsCheck) {
  // A string length near 2^64 made off + n wrap to a small value and pass
  // the old bounds check, reading far outside the blob.
  Blob b;
  b.u64(~std::uint64_t{0} - 3);
  b.u32(7);
  BlobReader br(b.data(), b.size());
  EXPECT_THROW(br.str(), Error);
  BlobReader again(b.data(), b.size());
  again.u64();
  EXPECT_THROW(again.take(~std::size_t{0}), Error);
  EXPECT_EQ(again.u32(), 7u);
}

}  // namespace
}  // namespace pulsarqr
