// Unit tests for the PRT primitives: tuples, packets, channels and the
// loopback message-passing transport.
#include <gtest/gtest.h>

#include <thread>

#include "prt/channel.hpp"
#include "prt/packet.hpp"
#include "prt/socket_comm.hpp"
#include "prt/transport.hpp"
#include "prt/tuple.hpp"

namespace pulsarqr::prt {
namespace {

TEST(Tuple, EqualityAndHash) {
  Tuple a{1, 2, 3};
  Tuple b = tuple3(1, 2, 3);
  Tuple c{1, 2, 4};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.hash(), b.hash());
  EXPECT_LT(a, c);
  EXPECT_EQ(a.to_string(), "(1,2,3)");
  EXPECT_EQ(Tuple{}.to_string(), "()");
}

TEST(Tuple, DifferentLengthsDiffer) {
  EXPECT_NE(tuple2(1, 2), tuple3(1, 2, 0));
  EXPECT_NE(Tuple{0}, Tuple{});
}

TEST(Packet, SharesBufferOnCopy) {
  Packet p = Packet::make(8 * sizeof(double), 7);
  p.doubles()[3] = 42.0;
  Packet alias = p;  // zero-copy aliasing
  alias.doubles()[3] = 43.0;
  EXPECT_DOUBLE_EQ(p.doubles()[3], 43.0);
  EXPECT_EQ(alias.meta(), 7);
}

TEST(Packet, CloneIsIndependent) {
  Packet p = Packet::make(4 * sizeof(double), 1);
  p.doubles()[0] = 1.5;
  Packet c = p.clone();
  c.doubles()[0] = 2.5;
  EXPECT_DOUBLE_EQ(p.doubles()[0], 1.5);
  EXPECT_EQ(c.meta(), 1);
  EXPECT_EQ(c.size(), p.size());
}

TEST(Packet, EmptyByDefault) {
  Packet p;
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(p.size(), 0u);
}

TEST(Channel, FifoOrder) {
  Channel ch(64, true);
  for (int i = 0; i < 5; ++i) {
    ch.push(Packet::make(8, i));
  }
  EXPECT_EQ(ch.size(), 5);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(ch.pop().meta(), i);
  }
  EXPECT_EQ(ch.size(), 0);
}

// The SPSC regime proper: a producer thread streams sequence-numbered
// packets while the consumer pops concurrently; order must be exact and
// no packet lost. (TSan covers the memory-ordering claims.)
TEST(Channel, CrossThreadStrictFifo) {
  const int packets = 20000;
  Channel ch(8, true);
  std::thread producer([&] {
    for (int i = 0; i < packets; ++i) ch.push(Packet::make(8, i));
  });
  for (int i = 0; i < packets; ++i) {
    while (ch.size() == 0) std::this_thread::yield();
    ASSERT_EQ(ch.pop().meta(), i);
  }
  producer.join();
  EXPECT_EQ(ch.size(), 0);
}

// Regression for the destroy-vs-push race: push used to check destroyed_
// BEFORE the synchronization guarding the queue, so a racing producer
// could re-enqueue a packet after destroy() cleared the queue,
// resurrecting data on a destroyed channel. Hammered here so TSan sees
// the interleavings; after destroy() + producer exit the channel must be
// empty no matter how the race resolved.
TEST(Channel, DestroyVsPushRace) {
  const int rounds = 300;
  for (int round = 0; round < rounds; ++round) {
    Channel ch(8, true);
    std::atomic<bool> start{false};
    std::thread producer([&] {
      while (!start.load(std::memory_order_acquire)) {
      }
      for (int i = 0; i < 64; ++i) ch.push(Packet::make(8, i));
    });
    start.store(true, std::memory_order_release);
    // Destroy somewhere inside the producer's stream.
    while (ch.size() == 0 && !ch.destroyed()) std::this_thread::yield();
    ch.destroy();
    producer.join();
    ASSERT_TRUE(ch.destroyed());
    ASSERT_FALSE(ch.enabled());
    ASSERT_EQ(ch.size(), 0) << "packet resurrected on a destroyed channel "
                               "(round "
                            << round << ")";
    ch.push(Packet::make(8, 99));  // late push: still dropped
    ASSERT_EQ(ch.size(), 0);
  }
}

TEST(Channel, EnableDisable) {
  Channel ch(64, false);
  EXPECT_FALSE(ch.enabled());
  ch.set_enabled(true);
  EXPECT_TRUE(ch.enabled());
}

TEST(Channel, DestroyDropsPacketsAndFutureOnes) {
  Channel ch(64, true);
  ch.push(Packet::make(8));
  ch.destroy();
  EXPECT_EQ(ch.size(), 0);
  ch.push(Packet::make(8));
  EXPECT_EQ(ch.size(), 0);
  EXPECT_TRUE(ch.destroyed());
}

struct TestWaker : Waker {
  std::atomic<int> wakes{0};
  void wake() override { ++wakes; }
};

TEST(Channel, PushWakesOwner) {
  Channel ch(64, true);
  TestWaker w;
  ch.set_waker(&w);
  ch.push(Packet::make(8));
  EXPECT_EQ(w.wakes.load(), 1);
  ch.set_enabled(true);  // enabling also wakes
  EXPECT_EQ(w.wakes.load(), 2);
}

// In-process multi-node models shared memory between virtual nodes: the
// receiver adopts the sender's refcounted buffer on every path a message
// can take — plain, held in the fault plan's limbo (delay, reorder) or
// duplicated — and a SocketComm's self-delivery does the same. A payload
// is immutable once sent; the socket wire path is the isolation check.
TEST(Comm, ReceiverAdoptsSenderBuffer) {
  Packet p = Packet::make(2 * sizeof(double), 9);
  p.doubles()[0] = 3.25;
  auto expect_adopted = [&](net::Comm& comm, int dst, int copies) {
    comm.isend(0, dst, 5, p, p.meta());
    for (int c = 0; c < copies; ++c) {
      auto m = comm.recv_wait(dst, 2'000'000);
      ASSERT_TRUE(m.has_value()) << "delivery " << c;
      EXPECT_EQ(m->source, 0);
      EXPECT_EQ(m->tag, 5);
      EXPECT_EQ(m->meta, 9);
      EXPECT_EQ(m->payload.bytes(), p.bytes());  // the sender's own buffer
      EXPECT_EQ(net::Comm::get_count(*m), 2 * sizeof(double));
    }
    EXPECT_FALSE(comm.try_recv(dst).has_value());
  };
  struct Case {
    const char* name;
    double dup, delay, reorder;
    int copies;
  };
  for (const Case& c : {Case{"plain", 0, 0, 0, 1}, Case{"delay", 0, 1, 0, 1},
                        Case{"reorder", 0, 0, 1, 1}, Case{"dup", 1, 0, 0, 2},
                        Case{"dup+delay", 1, 1, 0, 2}}) {
    SCOPED_TRACE(c.name);
    net::FaultPlan plan;
    plan.seed = 1;
    plan.dup = c.dup;
    plan.delay = c.delay;
    plan.reorder = c.reorder;
    plan.delay_us = 100;
    net::MailboxComm comm(2);
    comm.set_fault_plan(plan);
    expect_adopted(comm, 1, c.copies);
    net::SocketComm self(1, 0, net::SocketComm::socketpair_mesh(1)[0]);
    self.set_fault_plan(plan);
    expect_adopted(self, 0, c.copies);
  }
  EXPECT_DOUBLE_EQ(p.doubles()[0], 3.25);
}

TEST(Comm, FifoPerSenderAndCounts) {
  net::MailboxComm comm(2);
  for (int i = 0; i < 10; ++i) comm.isend(0, 1, i, Packet::make(8), i);
  for (int i = 0; i < 10; ++i) {
    auto m = comm.try_recv(1);
    ASSERT_TRUE(m);
    EXPECT_EQ(m->tag, i);
  }
  EXPECT_EQ(comm.messages_sent(), 10);
  EXPECT_EQ(comm.bytes_sent(), 80);
}

TEST(Comm, DrainTakesEverythingInOrder) {
  net::MailboxComm comm(2);
  for (int i = 0; i < 6; ++i) comm.isend(0, 1, i, Packet::make(8), i);
  auto batch = comm.drain(1);
  ASSERT_EQ(batch.size(), 6u);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(batch[static_cast<std::size_t>(i)].tag, i);
    EXPECT_EQ(batch[static_cast<std::size_t>(i)].meta, i);
  }
  EXPECT_TRUE(comm.drain(1).empty());
  EXPECT_FALSE(comm.try_recv(1).has_value());
}

TEST(Comm, RecvWaitTimesOutAndWakes) {
  net::MailboxComm comm(1);
  const auto t0 = std::chrono::steady_clock::now();
  auto m = comm.recv_wait(0, 2000);
  EXPECT_FALSE(m.has_value());
  EXPECT_GE(std::chrono::steady_clock::now() - t0,
            std::chrono::microseconds(1000));
  // A sender unblocks a waiting receiver.
  std::thread t([&] { comm.isend(0, 0, 1, Packet::make(8), 0); });
  auto m2 = comm.recv_wait(0, 1000000);
  EXPECT_TRUE(m2.has_value());
  t.join();
}

TEST(Comm, CancelDropsQueued) {
  net::MailboxComm comm(2);
  comm.isend(0, 1, 0, Packet::make(8), 0);
  comm.cancel(1);
  EXPECT_FALSE(comm.try_recv(1).has_value());
}

// interrupt() is latched: delivered while nobody waits, it makes the NEXT
// recv_wait return immediately instead of being lost, and repeated
// interrupts collapse into one latch (idempotent across re-shutdowns).
TEST(Comm, InterruptIsLatchedAndIdempotent) {
  net::MailboxComm comm(1);
  comm.interrupt(0);
  comm.interrupt(0);
  comm.interrupt(0);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(comm.recv_wait(0, 5'000'000).has_value());
  EXPECT_LT(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(500));  // returned on the latch
  // The latch was consumed: the next wait times out normally.
  const auto t1 = std::chrono::steady_clock::now();
  EXPECT_FALSE(comm.recv_wait(0, 20'000).has_value());
  EXPECT_GE(std::chrono::steady_clock::now() - t1,
            std::chrono::microseconds(10'000));
  // A latch pending alongside a queued message must not eat the message.
  comm.isend(0, 0, 1, Packet::make(8), 7);
  comm.interrupt(0);
  auto m = comm.recv_wait(0, 1'000'000);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->meta, 7);
}

// The channels' lifetime counters feed the stuck-VDP diagnostics.
// ---- reserved tag space -----------------------------------------------------

TEST(Tags, RegistryClassifiesReservedValues) {
  static_assert(net::is_reserved_tag(net::kPureAckTag));
  static_assert(!net::is_reserved_tag(net::kFirstUserTag));
  static_assert(!net::is_reserved_tag(7));
  EXPECT_STREQ(net::reserved_tag_name(net::kPureAckTag),
               "reliable-protocol pure ack");
  EXPECT_EQ(net::reserved_tag_name(0), nullptr);
  EXPECT_EQ(net::reserved_tag_name(-2), nullptr);
  EXPECT_EQ(net::reserved_tag_name(-3), nullptr);
}

TEST(Tags, IsendRejectsReservedAndNegativeTags) {
  net::MailboxComm comm(2);
  const Packet p = Packet::make(8);
  // A data frame aliasing the pure-ack tag would vanish into the peer's
  // protocol endpoint instead of reaching a channel.
  try {
    comm.isend(0, 1, net::kPureAckTag, p, 0);
    FAIL() << "isend accepted the pure-ack tag for data";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("reserved"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("pure ack"), std::string::npos)
        << e.what();
  }
  // Any other negative value is a latent aliasing hazard: rejected too.
  try {
    comm.isend(0, 1, -7, p, 0);
    FAIL() << "isend accepted an arbitrary negative tag";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("negative"), std::string::npos)
        << e.what();
  }
  // Nothing leaked into the mailbox from the rejected sends.
  EXPECT_FALSE(comm.try_recv(1).has_value());
}

TEST(Tags, IsendAcceptsTheReservedTagsOnlyForTheirOwners) {
  net::MailboxComm comm(2);
  const Packet p = Packet::make(8);
  // Pure acks are protocol traffic, sendable only as acks; no other
  // reserved tag exists (-2 once carried coalesced aggregates).
  EXPECT_THROW(comm.isend(0, 1, -2, p, 1), Error);
  EXPECT_NO_THROW(
      comm.isend(0, 1, net::kPureAckTag, Packet(), 0, -1, 3, true));
  // An "ack" with a data tag is a protocol bug, not an application one.
  EXPECT_THROW(comm.isend(0, 1, 4, Packet(), 0, -1, 3, true), Error);
}

// -2 once tagged coalesced aggregates. It belongs to no owner now, so a
// send naming it is refused as a plain negative tag, not as a reserved one.
TEST(Tags, TheRetiredAggregateTagIsAPlainNegativeTag) {
  static_assert(!net::is_reserved_tag(-2));
  try {
    net::require_user_tag(-2, "send");
    FAIL() << "tag -2 was accepted for application traffic";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("tag -2 is negative"), std::string::npos) << what;
    EXPECT_EQ(what.find("reserved"), std::string::npos) << what;
  }
}

TEST(Tags, ReliableSendRejectsReservedTags) {
  net::MailboxComm comm(2);
  net::Reliable rel(comm, 0, {});
  const Packet p = Packet::make(8);
  EXPECT_THROW(rel.send(1, net::kPureAckTag, p, 0), Error);
  EXPECT_THROW(rel.send(1, -2, p, 0), Error);
  EXPECT_THROW(rel.send(1, -9, p, 0), Error);
  EXPECT_NO_THROW(rel.send(1, 0, p, 0));
}

TEST(Channel, PushedPoppedCounters) {
  Channel ch(64, true);
  EXPECT_EQ(ch.pushed(), 0);
  EXPECT_EQ(ch.popped(), 0);
  for (int i = 0; i < 4; ++i) ch.push(Packet::make(8, i));
  (void)ch.pop();
  EXPECT_EQ(ch.pushed(), 4);
  EXPECT_EQ(ch.popped(), 1);
  ch.destroy();  // drops the queued packets: they count as consumed
  EXPECT_EQ(ch.pushed(), 4);
  EXPECT_EQ(ch.popped(), 4);
}

}  // namespace
}  // namespace pulsarqr::prt
