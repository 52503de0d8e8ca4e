// Chaos-engineering tests for the PRT transport: deterministic fault
// injection (net::FaultPlan), the ack/retransmit reliable-delivery
// protocol (net::Reliable), and the graceful-failure path
// (Vsa::RunError + RunReport).
//
// The soak test at the bottom runs the full tree QR under many seeded
// fault schedules and verifies each run bit-for-bit against the
// sequential reference plus ||A - QR|| / orthogonality residuals. The
// schedule count defaults to 102 (>= the 100 the acceptance criteria
// ask for); set PQR_CHAOS_SCHEDULES to shrink it for smoke/TSan runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "blas/blas.hpp"
#include "common/rng.hpp"
#include "prt/socket_comm.hpp"
#include "prt/transport.hpp"
#include "prt/vsa.hpp"
#include "ref/apply_q.hpp"
#include "ref/reference_qr.hpp"
#include "vsaqr/tree_qr.hpp"

namespace pulsarqr {
namespace {

using prt::Packet;
using Comm = prt::net::MailboxComm;
using prt::net::FaultPlan;
using prt::net::Message;
using prt::net::Reliable;
using Clock = std::chrono::steady_clock;
using std::chrono::microseconds;

// ---- FaultPlan determinism --------------------------------------------------

TEST(FaultPlanTest, SameSeedReplaysTheSameSchedule) {
  auto run = [](std::uint64_t seed) {
    Comm comm(2);
    FaultPlan plan;
    plan.seed = seed;
    plan.drop = 0.2;
    plan.dup = 0.2;
    comm.set_fault_plan(plan);
    for (int i = 0; i < 200; ++i) comm.isend(0, 1, 3, Packet::make(8), i);
    std::vector<int> metas;
    while (auto m = comm.try_recv(1)) metas.push_back(m->meta);
    return std::make_pair(metas, comm.fault_counters());
  };
  const auto a = run(42);
  const auto b = run(42);
  const auto c = run(43);
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second.dropped, b.second.dropped);
  EXPECT_EQ(a.second.duplicated, b.second.duplicated);
  EXPECT_NE(a.first, c.first) << "different seeds produced identical faults";
  // The plan actually did something on this schedule.
  EXPECT_GT(a.second.dropped, 0);
  EXPECT_GT(a.second.duplicated, 0);
}

TEST(FaultPlanTest, DroppedMessagesVanishAndAreCounted) {
  Comm comm(2);
  FaultPlan plan;
  plan.seed = 7;
  plan.drop = 1.0;
  comm.set_fault_plan(plan);
  for (int i = 0; i < 10; ++i) comm.isend(0, 1, 0, Packet::make(8), i);
  EXPECT_FALSE(comm.try_recv(1).has_value());
  EXPECT_EQ(comm.fault_counters().dropped, 10);
  // Accounting contract: offered counts the caller's isends; sent counts
  // what actually reached a mailbox. A dropped message was offered but
  // never sent — the old code counted it as sent and broke the invariant.
  EXPECT_EQ(comm.messages_offered(), 10);
  EXPECT_EQ(comm.messages_sent(), 0);
  EXPECT_EQ(comm.bytes_sent(), 0);
}

TEST(FaultPlanTest, AccountingInvariantHoldsUnderMixedFaults) {
  Comm comm(2);
  FaultPlan plan;
  plan.seed = 99;
  plan.drop = 0.2;
  plan.dup = 0.2;
  plan.delay = 0.2;
  plan.reorder = 0.2;
  plan.delay_us = 100;
  comm.set_fault_plan(plan);
  for (int i = 0; i < 300; ++i) comm.isend(0, 1, 4, Packet::make(8), i);
  // Drain everything (late limbo releases included).
  int received = 0;
  while (comm.recv_wait(1, 50'000).has_value()) ++received;
  const auto f = comm.fault_counters();
  EXPECT_EQ(comm.messages_offered(), 300);
  EXPECT_EQ(comm.messages_sent(), 300 - f.dropped + f.duplicated);
  EXPECT_EQ(received, comm.messages_sent());
  EXPECT_GT(comm.fault_streams(), 0u);  // one (src,dst,tag) stream used
}

TEST(FaultPlanTest, StreamIndexStateResetsOnPlanInstall) {
  // Installing a plan resets the per-stream fault indices, so the same
  // plan replays the same schedule on a reused communicator instead of
  // continuing (and growing) the previous run's stream counters.
  Comm comm(2);
  FaultPlan plan;
  plan.seed = 5;
  plan.drop = 0.3;
  auto play = [&] {
    comm.set_fault_plan(plan);
    std::vector<int> metas;
    for (int i = 0; i < 100; ++i) comm.isend(0, 1, 6, Packet::make(8), i);
    while (auto m = comm.try_recv(1)) metas.push_back(m->meta);
    return metas;
  };
  const auto first = play();
  EXPECT_EQ(comm.fault_streams(), 1u);
  const auto second = play();
  EXPECT_EQ(first, second) << "reinstalling the plan must replay it";
  EXPECT_EQ(comm.fault_streams(), 1u) << "stream state must not accumulate";
}

TEST(FaultPlanTest, CancelLatchesAgainstLimboReinsertion) {
  // Regression: cancel(rank) used to clear the mailbox and limbo once,
  // but a concurrent (or later) isend whose fault fate was delay/reorder
  // would re-insert into limbo and eventually re-fill the cancelled
  // mailbox. The latch must make every later send to the rank a no-op.
  Comm comm(2);
  FaultPlan plan;
  plan.seed = 3;
  plan.delay = 1.0;  // every message goes through limbo
  plan.delay_us = 1000;
  comm.set_fault_plan(plan);
  comm.isend(0, 1, 0, Packet::make(8), 0);
  comm.cancel(1);
  for (int i = 1; i < 20; ++i) comm.isend(0, 1, 0, Packet::make(8), i);
  EXPECT_FALSE(comm.recv_wait(1, 20'000).has_value())
      << "a cancelled rank received a message from limbo";
  // Only the pre-cancel send was counted (at fate time, before the cancel
  // discarded it from limbo — the documented cancel exception to the
  // accounting invariant); the 19 post-cancel sends hit the latch.
  EXPECT_EQ(comm.messages_offered(), 20);
  EXPECT_EQ(comm.messages_sent(), 1);
}

TEST(FaultPlanTest, DelayedMessagesArriveWithinTheBound) {
  Comm comm(2);
  FaultPlan plan;
  plan.seed = 7;
  plan.delay = 1.0;
  plan.delay_us = 2000;
  comm.set_fault_plan(plan);
  for (int i = 0; i < 5; ++i) comm.isend(0, 1, 0, Packet::make(8), i);
  // Every message is in limbo, but recv_wait caps its sleep at the next
  // pending release, so each arrives well before the 5 s timeout.
  for (int i = 0; i < 5; ++i) {
    auto m = comm.recv_wait(1, 5'000'000);
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->meta, i);  // same-fate messages keep their order
  }
  EXPECT_EQ(comm.fault_counters().delayed, 5);
}

TEST(FaultPlanTest, ReorderDeliversALaterMessageFirst) {
  // A reorder-held message is released right after the NEXT message to
  // the rank lands — producing a genuine inversion. The hold time bound
  // is huge so only the after-next mechanism can release it here.
  bool saw_inversion = false;
  for (std::uint64_t seed = 0; seed < 64 && !saw_inversion; ++seed) {
    Comm comm(2);
    FaultPlan plan;
    plan.seed = seed;
    plan.reorder = 0.5;
    plan.delay_us = 60'000'000;
    comm.set_fault_plan(plan);
    for (int i = 0; i < 20; ++i) comm.isend(0, 1, 0, Packet::make(8), i);
    std::vector<int> metas;
    while (auto m = comm.try_recv(1)) metas.push_back(m->meta);
    if (!std::is_sorted(metas.begin(), metas.end())) saw_inversion = true;
  }
  EXPECT_TRUE(saw_inversion);
}

// ---- fault-plan conformance over both backends -----------------------------
//
// The fate, limbo and accounting live once in net::Comm, so the same cases
// must hold whichever backend transmits. Rank 0 sends and rank 1 receives;
// counters and cancel are read from the sender's Comm.

/// Both ranks on one in-process MailboxComm.
struct MailboxBackend {
  prt::net::MailboxComm comm{2};
  prt::net::Comm& sender() { return comm; }
  std::optional<Message> recv(int timeout_us) {
    return comm.recv_wait(1, timeout_us);
  }
};

/// Rank 0 and rank 1 as two SocketComms over one socketpair. The limbo is
/// the sender's, so only the sender's own receive calls release it: the
/// receive loop pumps rank 0 between short waits on rank 1.
struct SocketPairBackend {
  std::unique_ptr<prt::net::SocketComm> a;  // rank 0, the sender
  std::unique_ptr<prt::net::SocketComm> b;  // rank 1, the receiver
  SocketPairBackend() {
    auto mesh = prt::net::SocketComm::socketpair_mesh(2);
    a = std::make_unique<prt::net::SocketComm>(2, 0, mesh[0]);
    b = std::make_unique<prt::net::SocketComm>(2, 1, mesh[1]);
  }
  prt::net::Comm& sender() { return *a; }
  std::optional<Message> recv(int timeout_us) {
    const auto deadline = Clock::now() + microseconds(timeout_us);
    for (;;) {
      (void)a->try_recv(0);  // the sender pumps its own limbo
      if (auto m = b->recv_wait(1, 500)) return m;
      if (Clock::now() >= deadline) return std::nullopt;
    }
  }
};

template <class Backend>
class FaultPlanConformance : public ::testing::Test {};

struct BackendNames {
  template <class T>
  static std::string GetName(int) {
    return std::is_same_v<T, MailboxBackend> ? "Mailbox" : "SocketPair";
  }
};
using Backends = ::testing::Types<MailboxBackend, SocketPairBackend>;
TYPED_TEST_SUITE(FaultPlanConformance, Backends, BackendNames);

TYPED_TEST(FaultPlanConformance, DroppedMessagesVanishAndAreCounted) {
  TypeParam be;
  FaultPlan plan;
  plan.seed = 7;
  plan.drop = 1.0;
  be.sender().set_fault_plan(plan);
  for (int i = 0; i < 10; ++i) be.sender().isend(0, 1, 0, Packet::make(8), i);
  EXPECT_FALSE(be.recv(20'000).has_value());
  EXPECT_EQ(be.sender().fault_counters().dropped, 10);
  EXPECT_EQ(be.sender().messages_offered(), 10);
  EXPECT_EQ(be.sender().messages_sent(), 0);
  EXPECT_EQ(be.sender().bytes_sent(), 0);
}

TYPED_TEST(FaultPlanConformance, AccountingInvariantHoldsUnderMixedFaults) {
  TypeParam be;
  FaultPlan plan;
  plan.seed = 99;
  plan.drop = 0.2;
  plan.dup = 0.2;
  plan.delay = 0.2;
  plan.reorder = 0.2;
  plan.delay_us = 100;
  be.sender().set_fault_plan(plan);
  for (int i = 0; i < 300; ++i) be.sender().isend(0, 1, 4, Packet::make(8), i);
  int received = 0;
  while (be.recv(50'000).has_value()) ++received;
  const auto f = be.sender().fault_counters();
  EXPECT_EQ(be.sender().messages_offered(), 300);
  EXPECT_EQ(be.sender().messages_sent(), 300 - f.dropped + f.duplicated);
  EXPECT_EQ(be.sender().bytes_sent(), 8 * be.sender().messages_sent());
  EXPECT_EQ(received, be.sender().messages_sent());
}

TYPED_TEST(FaultPlanConformance, CancelLatchesAgainstLimboReinsertion) {
  TypeParam be;
  FaultPlan plan;
  plan.seed = 3;
  plan.delay = 1.0;  // every message goes through limbo
  plan.delay_us = 1000;
  be.sender().set_fault_plan(plan);
  be.sender().isend(0, 1, 0, Packet::make(8), 0);
  be.sender().cancel(1);
  for (int i = 1; i < 20; ++i) be.sender().isend(0, 1, 0, Packet::make(8), i);
  EXPECT_FALSE(be.recv(20'000).has_value())
      << "a cancelled rank received a message from limbo";
  // Counted at fate, before the cancel discarded it from limbo; the 19
  // post-cancel sends hit the latch.
  EXPECT_EQ(be.sender().messages_offered(), 20);
  EXPECT_EQ(be.sender().messages_sent(), 1);
}

TYPED_TEST(FaultPlanConformance, DelayedMessagesArriveWithinTheBound) {
  TypeParam be;
  FaultPlan plan;
  plan.seed = 7;
  plan.delay = 1.0;
  plan.delay_us = 2000;
  be.sender().set_fault_plan(plan);
  for (int i = 0; i < 5; ++i) be.sender().isend(0, 1, 0, Packet::make(8), i);
  const auto t0 = Clock::now();
  for (int i = 0; i < 5; ++i) {
    auto m = be.recv(5'000'000);
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->meta, i);  // same-fate messages keep their order
  }
  EXPECT_LT(Clock::now() - t0, std::chrono::seconds(2));
  EXPECT_EQ(be.sender().fault_counters().delayed, 5);
}

TYPED_TEST(FaultPlanConformance, ReorderDeliversALaterMessageFirst) {
  // The hold bound is huge, so only the release after the next transmit
  // to the rank can free a reorder-held message here.
  bool saw_inversion = false;
  for (std::uint64_t seed = 0; seed < 64 && !saw_inversion; ++seed) {
    TypeParam be;
    FaultPlan plan;
    plan.seed = seed;
    plan.reorder = 0.5;
    plan.delay_us = 60'000'000;
    be.sender().set_fault_plan(plan);
    for (int i = 0; i < 20; ++i) be.sender().isend(0, 1, 0, Packet::make(8), i);
    std::vector<int> metas;
    while (auto m = be.recv(20'000)) metas.push_back(m->meta);
    if (!std::is_sorted(metas.begin(), metas.end())) saw_inversion = true;
  }
  EXPECT_TRUE(saw_inversion);
}

// ---- Reliable protocol unit tests ------------------------------------------

Reliable::Params slow_params() {
  Reliable::Params p;
  p.rto_us = 60'000'000;  // no spurious retransmits inside a unit test
  return p;
}

TEST(ReliableTest, InOrderDeliveryAndCumulativeAck) {
  Comm comm(2);
  Reliable a(comm, 0, slow_params());
  Reliable b(comm, 1, slow_params());
  a.send(1, 3, Packet::make(8), 11);
  a.send(1, 3, Packet::make(8), 22);
  std::deque<Message> inbox;
  while (auto m = comm.try_recv(1)) b.on_receive(std::move(*m), inbox);
  ASSERT_EQ(inbox.size(), 2u);
  EXPECT_EQ(inbox[0].meta, 11);
  EXPECT_EQ(inbox[1].meta, 22);
  EXPECT_EQ(inbox[0].seq, 0);
  EXPECT_EQ(inbox[1].seq, 1);
  b.flush_acks();
  EXPECT_EQ(b.acks_sent(), 1);  // one cumulative ack covers both frames
  std::deque<Message> back;
  while (auto m = comm.try_recv(0)) a.on_receive(std::move(*m), back);
  EXPECT_TRUE(back.empty());  // pure acks are consumed, not delivered
  // Everything acked: nothing to retransmit even in the far future.
  EXPECT_TRUE(a.poll(Clock::now() + std::chrono::hours(1)));
  EXPECT_EQ(a.retransmits(), 0);
}

TEST(ReliableTest, DuplicateIsSuppressedAndReAcked) {
  Comm comm(2);
  Reliable a(comm, 0, slow_params());
  Reliable b(comm, 1, slow_params());
  a.send(1, 5, Packet::make(8), 1);
  auto frame = comm.try_recv(1);
  ASSERT_TRUE(frame.has_value());
  Message dup = *frame;
  dup.payload = frame->payload.clone();
  std::deque<Message> inbox;
  b.on_receive(std::move(*frame), inbox);
  ASSERT_EQ(inbox.size(), 1u);
  b.flush_acks();
  EXPECT_EQ(b.acks_sent(), 1);
  // The duplicate (e.g. a retransmission racing the ack) is dropped, but
  // it re-arms the ack: staying silent would leave a sender whose ack was
  // lost retransmitting forever.
  b.on_receive(std::move(dup), inbox);
  EXPECT_EQ(inbox.size(), 1u);
  EXPECT_EQ(b.duplicates_suppressed(), 1);
  b.flush_acks();
  EXPECT_EQ(b.acks_sent(), 2);
}

TEST(ReliableTest, OutOfOrderFramesAreReassembled) {
  Comm comm(2);
  Reliable a(comm, 0, slow_params());
  Reliable b(comm, 1, slow_params());
  for (int i = 0; i < 3; ++i) a.send(1, 2, Packet::make(8), 100 + i);
  std::vector<Message> frames;
  while (auto m = comm.try_recv(1)) frames.push_back(std::move(*m));
  ASSERT_EQ(frames.size(), 3u);
  std::deque<Message> inbox;
  b.on_receive(std::move(frames[2]), inbox);  // future frame: buffered
  EXPECT_TRUE(inbox.empty());
  b.on_receive(std::move(frames[0]), inbox);  // head of line
  EXPECT_EQ(inbox.size(), 1u);
  b.on_receive(std::move(frames[1]), inbox);  // fills the gap: 1 then 2
  ASSERT_EQ(inbox.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(inbox[static_cast<std::size_t>(i)].meta, 100 + i);
  }
}

TEST(ReliableTest, RetransmitBackoffIsExponential) {
  Comm comm(2);
  Reliable::Params prm;
  prm.rto_us = 1000;
  prm.backoff = 2.0;
  prm.max_retries = 10;
  std::vector<long long> hook_seqs;
  prm.on_retransmit = [&](int dst, int tag, long long seq) {
    EXPECT_EQ(dst, 1);
    EXPECT_EQ(tag, 9);
    hook_seqs.push_back(seq);
  };
  Reliable a(comm, 0, prm);
  a.send(1, 9, Packet::make(8), 0);
  (void)comm.try_recv(1);  // the wire eats the frame; no ack ever comes
  // Synthetic clock: `base` is past the initial deadline, then each step
  // checks the doubled timeout (1000 -> 2000 -> 4000 us).
  const auto base = Clock::now() + std::chrono::seconds(1);
  EXPECT_TRUE(a.poll(base));
  EXPECT_EQ(a.retransmits(), 1);
  EXPECT_TRUE(a.poll(base + microseconds(1000)));  // rto doubled: not due
  EXPECT_EQ(a.retransmits(), 1);
  EXPECT_TRUE(a.poll(base + microseconds(2000)));
  EXPECT_EQ(a.retransmits(), 2);
  EXPECT_TRUE(a.poll(base + microseconds(5000)));  // rto now 4000: not due
  EXPECT_EQ(a.retransmits(), 2);
  EXPECT_TRUE(a.poll(base + microseconds(6000)));
  EXPECT_EQ(a.retransmits(), 3);
  EXPECT_EQ(hook_seqs, (std::vector<long long>{0, 0, 0}));
  // Each retransmission put a real frame on the wire, same sequence.
  int copies = 0;
  while (auto m = comm.try_recv(1)) {
    EXPECT_EQ(m->seq, 0);
    ++copies;
  }
  EXPECT_EQ(copies, 3);
}

TEST(ReliableTest, TimingKnobsAreCheckedOnlyOnASequencedEndpoint) {
  Comm comm(2);
  Reliable::Params prm;
  prm.rto_us = 0;
  prm.max_retries = -1;
  EXPECT_THROW(Reliable(comm, 0, prm), Error);
  prm.sequenced = false;  // a pass-through never times out or retries
  Reliable raw(comm, 0, prm);
  raw.send(1, 3, Packet::make(8), 7);
  auto m = comm.try_recv(1);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->seq, -1);
  EXPECT_EQ(m->meta, 7);
}

TEST(ReliableTest, ExhaustedRetriesFailTheLinkAndNameTheStream) {
  Comm comm(2);
  Reliable::Params prm;
  prm.rto_us = 100;
  prm.max_retries = 3;
  Reliable a(comm, 0, prm);
  a.send(1, 7, Packet::make(8), 0);
  auto t = Clock::now() + std::chrono::seconds(1);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(a.poll(t));
    t += std::chrono::seconds(1);  // every deadline long expired
  }
  EXPECT_EQ(a.retransmits(), 3);
  EXPECT_FALSE(a.poll(t));  // cap hit: the link is declared failed
  EXPECT_TRUE(a.failed());
  EXPECT_FALSE(a.poll(t + std::chrono::seconds(1)));  // and stays failed
  EXPECT_EQ(a.retransmits(), 3);  // no further retransmissions
  const auto gaps = a.gaps();
  ASSERT_EQ(gaps.size(), 1u);
  EXPECT_EQ(gaps[0].src, 0);
  EXPECT_EQ(gaps[0].dst, 1);
  EXPECT_TRUE(gaps[0].exhausted);
  EXPECT_EQ(gaps[0].unacked, 1);
  ASSERT_EQ(gaps[0].pending_tags.size(), 1u);
  EXPECT_EQ(gaps[0].pending_tags[0], 7);
  const std::string s = gaps[0].to_string();
  EXPECT_NE(s.find("link 0->1"), std::string::npos);
  EXPECT_NE(s.find("RETRANSMITS_EXHAUSTED"), std::string::npos);
  EXPECT_NE(s.find("tags=[7]"), std::string::npos);
}

// ---- graceful failure through Vsa::run() ------------------------------------

vsaqr::TreeQrOptions chaos_qr_options(int nodes, int workers) {
  vsaqr::TreeQrOptions opt;
  opt.tree = {plan::TreeKind::BinaryOnFlat, 2, plan::BoundaryMode::Shifted};
  opt.ib = 2;
  opt.nodes = nodes;
  opt.workers_per_node = workers;
  opt.watchdog_seconds = 30.0;
  return opt;
}

TEST(ChaosTest, ExhaustedRetriesProduceStructuredRunReport) {
  Matrix a0(40, 10);
  fill_random(a0.view(), 11);
  TileMatrix a = TileMatrix::from_dense(a0.view(), 5);
  auto opt = chaos_qr_options(2, 2);
  opt.fault_plan.seed = 1;
  opt.fault_plan.drop = 1.0;  // the fabric eats everything, acks included
  opt.reliable_transport = true;
  opt.retransmit_timeout_us = 200;
  opt.max_retransmits = 3;
  try {
    vsaqr::tree_qr(a, opt);
    FAIL() << "a fully lossy link must fail the run";
  } catch (const prt::Vsa::RunError& e) {
    const auto& r = e.report();
    EXPECT_EQ(r.reason, "transport");
    EXPECT_GT(r.vdps_alive, 0);
    EXPECT_FALSE(r.stuck_vdps.empty());
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
    EXPECT_NE(what.find("VDPs still alive"), std::string::npos);
  }
}

TEST(ChaosTest, LossWithoutReliableTripsWatchdogWithFaultCounters) {
  Matrix a0(40, 10);
  fill_random(a0.view(), 12);
  TileMatrix a = TileMatrix::from_dense(a0.view(), 5);
  auto opt = chaos_qr_options(2, 2);
  opt.fault_plan.seed = 2;
  opt.fault_plan.drop = 1.0;
  opt.reliable_transport = false;  // nothing repairs the losses
  opt.watchdog_seconds = 0.5;
  try {
    vsaqr::tree_qr(a, opt);
    FAIL() << "dropped packets without reliable delivery must deadlock";
  } catch (const prt::Vsa::RunError& e) {
    EXPECT_EQ(e.report().reason, "watchdog");
    EXPECT_GT(e.report().faults.dropped, 0);
    const std::string what = e.what();
    EXPECT_NE(what.find("PRT watchdog"), std::string::npos);
    EXPECT_NE(what.find("VDPs still alive"), std::string::npos);
    EXPECT_NE(what.find("injected faults"), std::string::npos);
  }
}

TEST(ChaosTest, ReliableTransportIsInertOnACleanFabric) {
  Matrix a0(40, 10);
  fill_random(a0.view(), 13);
  TileMatrix a = TileMatrix::from_dense(a0.view(), 5);
  auto reference = ref::tree_qr(TileMatrix::from_dense(a0.view(), 5), 2,
                                chaos_qr_options(2, 2).tree);
  auto opt = chaos_qr_options(2, 2);
  opt.reliable_transport = true;  // protocol on, zero faults
  // Huge RTO: a clean fabric must never time out, so the run is free of
  // retransmissions even on a heavily loaded (e.g. TSan) machine.
  opt.retransmit_timeout_us = 60'000'000;
  auto run = vsaqr::tree_qr(a, opt);
  EXPECT_EQ(run.stats.retransmits, 0);
  EXPECT_EQ(run.stats.faults.total(), 0);
  EXPECT_EQ(run.stats.duplicates_suppressed, 0);
  EXPECT_EQ(run.stats.leftover_packets, 0);
  for (int j = 0; j < run.factors.a.cols(); ++j) {
    for (int i = 0; i < run.factors.a.rows(); ++i) {
      ASSERT_EQ(run.factors.a.at(i, j), reference.a.at(i, j))
          << "factors differ at (" << i << "," << j << ")";
    }
  }
}

// The retransmit knobs are read only under reliable_transport: with the
// protocol off a nonsensical value is ignored, in-process and in socket
// node processes; with it on, run() rejects it up front as a named Error
// (not from inside a proxy thread, which would end the process).
TEST(ChaosTest, RetransmitKnobsAreCheckedOnlyWithTheProtocolOn) {
  Matrix a0(40, 10);
  fill_random(a0.view(), 17);
  auto reference = ref::tree_qr(TileMatrix::from_dense(a0.view(), 5), 2,
                                chaos_qr_options(2, 2).tree);
  for (auto transport : {prt::Transport::InProcess, prt::Transport::Socket}) {
    TileMatrix a = TileMatrix::from_dense(a0.view(), 5);
    auto opt = chaos_qr_options(2, 2);
    opt.transport = transport;
    opt.retransmit_timeout_us = 0;
    opt.max_retransmits = -1;
    auto run = vsaqr::tree_qr(a, opt);
    EXPECT_EQ(run.stats.retransmits, 0);
    for (int j = 0; j < run.factors.a.cols(); ++j) {
      for (int i = 0; i < run.factors.a.rows(); ++i) {
        ASSERT_EQ(run.factors.a.at(i, j), reference.a.at(i, j))
            << "factors differ at (" << i << "," << j << ")";
      }
    }
  }
  for (auto [rto, retries] : {std::pair{0, 10}, std::pair{2000, -1}}) {
    TileMatrix a = TileMatrix::from_dense(a0.view(), 5);
    auto opt = chaos_qr_options(2, 2);
    opt.reliable_transport = true;
    opt.retransmit_timeout_us = rto;
    opt.max_retransmits = retries;
    try {
      (void)vsaqr::tree_qr(a, opt);
      ADD_FAILURE() << "rto " << rto << ", retries " << retries
                    << " was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("retransmit_timeout_us"),
                std::string::npos)
          << e.what();
    }
  }
}

// ---- coalesced aggregates under chaos ---------------------------------------

// Fault injection applies per WIRE frame, so a dropped / duplicated /
// reordered aggregate hits every application frame inside it at once and
// one retransmission must repair them all. Three shapes, several seeds
// each, bitwise against the fault-free sequential reference.
TEST(ChaosTest, CoalescedAggregatesSurviveChaos) {
  struct Shape {
    int m, n, nb, ib;
    plan::PlanConfig tree;
    int nodes, workers;
  };
  const std::vector<Shape> shapes = {
      {40, 10, 5, 2, {plan::TreeKind::BinaryOnFlat, 2,
                      plan::BoundaryMode::Shifted}, 2, 2},
      {48, 12, 6, 3, {plan::TreeKind::Binary, 1,
                      plan::BoundaryMode::Shifted}, 3, 1},
      {30, 10, 5, 5, {plan::TreeKind::Flat, 1,
                      plan::BoundaryMode::Fixed}, 2, 2},
  };
  long long total_aggregates = 0;
  for (std::size_t which = 0; which < shapes.size(); ++which) {
    const auto& sh = shapes[which];
    Matrix a0(sh.m, sh.n);
    fill_random(a0.view(), 700 + static_cast<int>(which));
    const auto reference =
        ref::tree_qr(TileMatrix::from_dense(a0.view(), sh.nb), sh.ib, sh.tree);
    for (int s = 0; s < 4; ++s) {
      TileMatrix a = TileMatrix::from_dense(a0.view(), sh.nb);
      vsaqr::TreeQrOptions opt;
      opt.tree = sh.tree;
      opt.ib = sh.ib;
      opt.nodes = sh.nodes;
      opt.workers_per_node = sh.workers;
      opt.watchdog_seconds = 60.0;
      opt.reliable_transport = true;
      opt.retransmit_timeout_us = 800;
      opt.max_retransmits = 30;
      opt.coalesce_bytes = 64 * 1024;  // explicit: aggregates on the wire
      opt.fault_plan.seed = 4000 + static_cast<std::uint64_t>(s) +
                            10 * static_cast<std::uint64_t>(which);
      opt.fault_plan.drop = 0.10;
      opt.fault_plan.dup = 0.10;
      opt.fault_plan.reorder = 0.10;

      auto run = vsaqr::tree_qr(a, opt);
      EXPECT_GT(run.stats.coalesced_frames, 0);
      total_aggregates += run.stats.aggregates_sent;
      ASSERT_EQ(run.stats.leftover_packets, 0)
          << "seed " << opt.fault_plan.seed;
      for (int j = 0; j < reference.a.cols(); ++j) {
        for (int i = 0; i < reference.a.rows(); ++i) {
          ASSERT_EQ(run.factors.a.at(i, j), reference.a.at(i, j))
              << "seed " << opt.fault_plan.seed << " diverged at (" << i
              << "," << j << ")";
        }
      }
    }
  }
  EXPECT_GT(total_aggregates, 0) << "chaos never saw an aggregate frame";
}

// The uncoalesced path (coalesce_bytes = 0) is still the wire format of
// record for oversized frames; it must keep repairing losses too.
TEST(ChaosTest, RawPathWithoutCoalescingStillRepairs) {
  Matrix a0(40, 10);
  fill_random(a0.view(), 21);
  const auto tree = chaos_qr_options(2, 2).tree;
  const auto reference =
      ref::tree_qr(TileMatrix::from_dense(a0.view(), 5), 2, tree);
  TileMatrix a = TileMatrix::from_dense(a0.view(), 5);
  auto opt = chaos_qr_options(2, 2);
  opt.reliable_transport = true;
  opt.retransmit_timeout_us = 800;
  opt.max_retransmits = 30;
  opt.coalesce_bytes = 0;  // every frame is its own wire message
  opt.fault_plan.seed = 77;
  opt.fault_plan.drop = 0.10;
  opt.fault_plan.dup = 0.10;
  opt.fault_plan.reorder = 0.10;
  auto run = vsaqr::tree_qr(a, opt);
  EXPECT_EQ(run.stats.aggregates_sent, 0);
  EXPECT_EQ(run.stats.coalesced_frames, 0);
  EXPECT_GT(run.stats.remote_messages, 0);
  ASSERT_EQ(run.stats.leftover_packets, 0);
  for (int j = 0; j < reference.a.cols(); ++j) {
    for (int i = 0; i < reference.a.rows(); ++i) {
      ASSERT_EQ(run.factors.a.at(i, j), reference.a.at(i, j))
          << "diverged at (" << i << "," << j << ")";
    }
  }
}

// ---- the chaos soak ---------------------------------------------------------

struct SoakShape {
  int m, n, nb, ib;
  plan::PlanConfig tree;
  int nodes, workers;
};

// Faults act on the wire messages between nodes, so the shapes must keep
// enough traffic off-node: 2-3 tile columns on 3 nodes. The 102 in-process
// schedules inject about 730 faults, the 24 socket ones about 190.
const std::vector<SoakShape>& soak_shapes() {
  static const std::vector<SoakShape> shapes = {
      {40, 15, 5, 2, {plan::TreeKind::BinaryOnFlat, 2,
                      plan::BoundaryMode::Shifted}, 3, 1},
      {48, 12, 6, 3, {plan::TreeKind::Binary, 1,
                      plan::BoundaryMode::Shifted}, 3, 1},
      {30, 15, 5, 5, {plan::TreeKind::Flat, 1,
                      plan::BoundaryMode::Fixed}, 3, 2},
  };
  return shapes;
}

constexpr int kSoakSchedules = 102;

// >= 100 seeded schedules by default (acceptance criterion); CI smoke and
// TSan runs shrink it via PQR_CHAOS_SCHEDULES.
int soak_schedules() {
  if (const char* e = std::getenv("PQR_CHAOS_SCHEDULES")) {
    const int n = std::atoi(e);
    if (n > 0) return n;
  }
  return kSoakSchedules;
}

TEST(ChaosTest, SoakManySeededSchedulesStayCorrect) {
  const std::vector<SoakShape>& shapes = soak_shapes();
  // One matrix + sequential reference per shape; every schedule must
  // reproduce the reference factors bit-for-bit.
  std::vector<Matrix> inputs;
  std::vector<ref::TreeQrFactors> references;
  for (std::size_t s = 0; s < shapes.size(); ++s) {
    const auto& sh = shapes[s];
    Matrix a0(sh.m, sh.n);
    fill_random(a0.view(), 900 + static_cast<int>(s));
    references.push_back(ref::tree_qr(TileMatrix::from_dense(a0.view(), sh.nb),
                                      sh.ib, sh.tree));
    inputs.push_back(std::move(a0));
  }
  const int schedules = soak_schedules();
  long long total_faults = 0;
  long long total_retransmits = 0;
  for (int s = 0; s < schedules; ++s) {
    const std::size_t which = static_cast<std::size_t>(s) % shapes.size();
    const auto& sh = shapes[which];
    const Matrix& a0 = inputs[which];
    TileMatrix a = TileMatrix::from_dense(a0.view(), sh.nb);

    vsaqr::TreeQrOptions opt;
    opt.tree = sh.tree;
    opt.ib = sh.ib;
    opt.nodes = sh.nodes;
    opt.workers_per_node = sh.workers;
    opt.watchdog_seconds = 60.0;
    opt.reliable_transport = true;
    opt.retransmit_timeout_us = 800;
    opt.max_retransmits = 30;
    opt.fault_plan.seed = 1000 + static_cast<std::uint64_t>(s);
    opt.fault_plan.drop = 0.08;
    opt.fault_plan.dup = 0.08;
    opt.fault_plan.delay = 0.12;
    opt.fault_plan.reorder = 0.10;
    opt.fault_plan.delay_us = 200;

    auto run = vsaqr::tree_qr(a, opt);
    total_faults += run.stats.faults.total();
    total_retransmits += run.stats.retransmits;
    ASSERT_EQ(run.stats.leftover_packets, 0)
        << "schedule " << opt.fault_plan.seed;
    // Transport accounting invariant (clean runs never cancel a rank):
    // what hit the mailboxes = what was offered, minus drops, plus dups.
    ASSERT_EQ(run.stats.wire_messages,
              run.stats.wire_offered - run.stats.faults.dropped +
                  run.stats.faults.duplicated)
        << "schedule " << opt.fault_plan.seed;

    // Bitwise against the fault-free sequential reference: reliable
    // delivery must make the chaos completely invisible.
    const auto& ref = references[which];
    for (int j = 0; j < ref.a.cols(); ++j) {
      for (int i = 0; i < ref.a.rows(); ++i) {
        ASSERT_EQ(run.factors.a.at(i, j), ref.a.at(i, j))
            << "schedule " << opt.fault_plan.seed << " diverged at (" << i
            << "," << j << ")";
      }
    }
    // Residuals: ||A - QR|| and orthogonality ||Q^T Q - I||.
    const int kk = std::min(sh.m, sh.n);
    Matrix q = ref::form_q(run.factors, sh.m);
    Matrix r = ref::extract_r(run.factors);
    Matrix qr(sh.m, sh.n);
    blas::gemm(blas::Trans::No, blas::Trans::No, 1.0,
               q.block(0, 0, sh.m, kk), r.block(0, 0, kk, sh.n), 0.0,
               qr.view());
    double err = 0.0;
    for (int j = 0; j < sh.n; ++j) {
      for (int i = 0; i < sh.m; ++i) {
        err = std::max(err, std::abs(qr(i, j) - a0(i, j)));
      }
    }
    ASSERT_LT(err / (1.0 + blas::norm_max(a0.view())), 1e-12 * sh.m)
        << "schedule " << opt.fault_plan.seed;
    Matrix qtq(kk, kk);
    blas::gemm(blas::Trans::Yes, blas::Trans::No, 1.0,
               q.block(0, 0, sh.m, kk), q.block(0, 0, sh.m, kk), 0.0,
               qtq.view());
    double orth = 0.0;
    for (int j = 0; j < kk; ++j) {
      for (int i = 0; i < kk; ++i) {
        orth = std::max(orth,
                        std::abs(qtq(i, j) - (i == j ? 1.0 : 0.0)));
      }
    }
    ASSERT_LT(orth, 1e-12 * sh.m) << "schedule " << opt.fault_plan.seed;
  }
  // Sanity: the soak actually exercised the machinery — faults were
  // injected and at least one lost frame was repaired by retransmission.
  // At the default schedule count a floor keeps a placement change that
  // sends fewer frames from hollowing the soak out unnoticed.
  EXPECT_GT(total_faults, 0);
  if (schedules == kSoakSchedules) {
    EXPECT_GE(total_faults, 600);
  }
  EXPECT_GT(total_retransmits, 0);
}

// The same soak over the Socket transport: one forked OS process per
// node, frames over Unix-domain sockets, FaultPlan applied send-side
// before the wire — so each seed replays the identical chaos schedule the
// in-process soak saw, and the factors must still come out bit-for-bit
// equal to the fault-free sequential reference. Process startup costs
// real time, so this leg caps itself at 24 schedules; the three shapes
// still rotate, covering >= 20 seeds on >= 2 shapes.
TEST(ChaosTest, SocketSoakSeededSchedulesStayCorrect) {
  const std::vector<SoakShape>& shapes = soak_shapes();
  std::vector<Matrix> inputs;
  std::vector<ref::TreeQrFactors> references;
  for (std::size_t s = 0; s < shapes.size(); ++s) {
    const auto& sh = shapes[s];
    Matrix a0(sh.m, sh.n);
    fill_random(a0.view(), 900 + static_cast<int>(s));
    references.push_back(ref::tree_qr(TileMatrix::from_dense(a0.view(), sh.nb),
                                      sh.ib, sh.tree));
    inputs.push_back(std::move(a0));
  }
  const int schedules = std::min(soak_schedules(), 24);
  long long total_faults = 0;
  long long total_retransmits = 0;
  for (int s = 0; s < schedules; ++s) {
    const std::size_t which = static_cast<std::size_t>(s) % shapes.size();
    const auto& sh = shapes[which];
    TileMatrix a = TileMatrix::from_dense(inputs[which].view(), sh.nb);

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
    opt.fault_plan.seed = 1000 + static_cast<std::uint64_t>(s);
    opt.fault_plan.drop = 0.08;
    opt.fault_plan.dup = 0.08;
    opt.fault_plan.delay = 0.12;
    opt.fault_plan.reorder = 0.10;
    opt.fault_plan.delay_us = 200;

    auto run = vsaqr::tree_qr(a, opt);
    total_faults += run.stats.faults.total();
    total_retransmits += run.stats.retransmits;
    ASSERT_EQ(run.stats.leftover_packets, 0)
        << "schedule " << opt.fault_plan.seed;
    const auto& ref = references[which];
    for (int j = 0; j < ref.a.cols(); ++j) {
      for (int i = 0; i < ref.a.rows(); ++i) {
        ASSERT_EQ(run.factors.a.at(i, j), ref.a.at(i, j))
            << "schedule " << opt.fault_plan.seed << " diverged at (" << i
            << "," << j << ")";
      }
    }
  }
  EXPECT_GT(total_faults, 0);
  EXPECT_GT(total_retransmits, 0);
}

}  // namespace
}  // namespace pulsarqr
