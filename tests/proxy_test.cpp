// The node proxy's two layers (prt/proxy.hpp), driven one call at a time
// over a MailboxComm with no thread: the Egress's staging, flush and
// counters, the Ingress's aggregate split, crash-replay dedup and epoch
// fence, and the named failure for every input no route can take.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <deque>
#include <memory>
#include <vector>

#include "prt/proxy.hpp"
#include "prt/wire.hpp"

namespace pulsarqr::prt {
namespace {

using Clock = std::chrono::steady_clock;
using net::Message;

constexpr std::size_t kSmall = 8;    // staged under every capacity below
constexpr std::size_t kLarge = 600;  // direct: 2 * 616 bytes > 1024

net::Reliable::Params raw() {
  net::Reliable::Params p;
  p.sequenced = false;
  return p;
}

/// A packet of `bytes` bytes, every byte `fill`, carrying `meta`.
Packet frame(std::size_t bytes, int meta, unsigned char fill = 0) {
  Packet p = Packet::make(bytes, meta);
  if (bytes > 0) std::memset(p.bytes(), fill, bytes);
  return p;
}

/// `n` unbounded channels and a route table of `nranks` rows whose row
/// `src` routes tag t to channel t.
struct Routes {
  std::vector<std::unique_ptr<Channel>> ch;
  RouteTable table;
  Routes(int nranks, int src, int n) : table(nranks) {
    for (int t = 0; t < n; ++t) {
      ch.push_back(std::make_unique<Channel>(4096, true));
      table[src].push_back({ch.back().get()});
    }
  }
  /// Metas of everything queued on channel t, in order (consumes them).
  std::vector<int> metas(int t) {
    std::vector<int> out;
    while (ch[t]->size() > 0) out.push_back(ch[t]->pop().meta());
    return out;
  }
};

// ---- egress -----------------------------------------------------------------

TEST(Egress, DirectFrameFlushesTheStageFirstAndKeepsOrder) {
  net::MailboxComm comm(2);
  net::Reliable rel(comm, 0, raw());
  Egress eg(rel, 2, 1024);
  eg.send({1, 0, frame(kSmall, 1)});
  eg.send({1, 0, frame(kSmall, 2)});
  EXPECT_TRUE(comm.drain(1).empty());  // staged, nothing on the wire
  eg.send({1, 0, frame(kLarge, 3)});
  std::deque<Message> wire = comm.drain(1);
  ASSERT_EQ(wire.size(), 2u);
  EXPECT_EQ(wire[0].tag, net::kAggregateTag);
  EXPECT_EQ(wire[0].meta, 2);  // the two staged frames, shipped first
  EXPECT_EQ(wire[1].tag, 0);
  EXPECT_EQ(wire[1].meta, 3);
  EXPECT_EQ(wire[1].payload.size(), kLarge);

  net::Reliable rel1(comm, 1, raw());
  Routes routes(2, 0, 1);
  Ingress in(routes.table, rel1);
  in.receive(std::move(wire));
  EXPECT_EQ(routes.metas(0), (std::vector<int>{1, 2, 3}));
}

TEST(Egress, CoalescingOffSendsEveryFrameDirectly) {
  net::MailboxComm comm(2);
  net::Reliable rel(comm, 0, raw());
  Egress eg(rel, 2, 0);
  eg.send({1, 0, frame(0, 1)});
  eg.send({1, 1, frame(kSmall, 2)});
  EXPECT_FALSE(eg.flush_all());
  std::deque<Message> wire = comm.drain(1);
  ASSERT_EQ(wire.size(), 2u);
  EXPECT_EQ(wire[0].tag, 0);
  EXPECT_EQ(wire[1].tag, 1);
  EXPECT_EQ(eg.counters().aggregates, 0);
  EXPECT_EQ(eg.counters().coalesced, 0);
}

// With reliable_transport off the layers share a pass-through endpoint:
// frames leave without a protocol header and nothing comes back.
TEST(Egress, PassThroughEndpointAddsNoProtocol) {
  net::MailboxComm comm(2);
  net::Reliable rel0(comm, 0, raw());
  net::Reliable rel1(comm, 1, raw());
  Egress eg(rel0, 2, 1024);
  eg.send({1, 0, frame(kSmall, 1)});
  eg.send({1, 0, frame(kLarge, 2)});
  std::deque<Message> wire = comm.drain(1);
  ASSERT_EQ(wire.size(), 2u);
  for (const Message& m : wire) {
    EXPECT_EQ(m.seq, -1);
    EXPECT_EQ(m.ack, -1);
  }
  Routes routes(2, 0, 1);
  Ingress in(routes.table, rel1);
  in.receive(std::move(wire));
  EXPECT_EQ(routes.metas(0), (std::vector<int>{1, 2}));
  rel1.flush_acks();
  EXPECT_TRUE(rel0.poll(Clock::now() + std::chrono::seconds(60)));
  EXPECT_EQ(comm.messages_sent(), 2);  // no ack, no retransmit
  EXPECT_TRUE(rel0.gaps().empty());
  EXPECT_TRUE(rel1.gaps().empty());
}

TEST(Egress, IdleFlushShipsAPartialStage) {
  net::MailboxComm comm(2);
  net::Reliable rel(comm, 0, raw());
  Egress eg(rel, 2, 1024);
  eg.send({1, 4, frame(kSmall, 7)});
  EXPECT_TRUE(eg.flush_all());
  EXPECT_FALSE(eg.flush_all());  // nothing left
  std::deque<Message> wire = comm.drain(1);
  ASSERT_EQ(wire.size(), 1u);
  EXPECT_EQ(wire[0].tag, net::kAggregateTag);
  EXPECT_EQ(wire[0].meta, 1);
}

TEST(Egress, DeadlineFlushWaitsForTheFlushWindow) {
  static_assert(Egress::kFlushWindow == std::chrono::microseconds(50));
  net::MailboxComm comm(2);
  net::Reliable rel(comm, 0, raw());
  Egress eg(rel, 2, 1024);
  const auto t0 = Clock::now();
  eg.send({1, 0, frame(kSmall, 1)});
  const auto t1 = Clock::now();
  // The stage's deadline lies in [t0 + 50 us, t1 + 50 us].
  EXPECT_FALSE(eg.flush_due(t0));
  EXPECT_FALSE(eg.flush_due(t0 + std::chrono::microseconds(49)));
  EXPECT_TRUE(comm.drain(1).empty());
  // A frame staged behind the first keeps the first frame's deadline.
  eg.send({1, 0, frame(kSmall, 2)});
  EXPECT_TRUE(eg.flush_due(t1 + std::chrono::microseconds(50)));
  std::deque<Message> wire = comm.drain(1);
  ASSERT_EQ(wire.size(), 1u);
  EXPECT_EQ(wire[0].meta, 2);
  EXPECT_FALSE(eg.flush_due(Clock::time_point::max()));
}

TEST(Egress, CountersMatchWhatWasSent) {
  net::MailboxComm comm(3);
  net::Reliable rel(comm, 0, raw());
  Egress eg(rel, 3, 64);  // room for two small frames (2 x 24 bytes)
  eg.send({1, 0, frame(kSmall, 1)});
  eg.send({1, 0, frame(kSmall, 2)});
  eg.send({1, 0, frame(kSmall, 3)});  // stage full: ships [1, 2]
  eg.send({1, 1, frame(kLarge, 4)});  // direct: ships [3] first
  eg.send({2, 0, frame(kSmall, 5)});
  EXPECT_TRUE(eg.flush_all());  // ships [5]
  const Egress::Counters& c = eg.counters();
  EXPECT_EQ(c.frames, 5);
  EXPECT_EQ(c.bytes, static_cast<long long>(4 * kSmall + kLarge));
  EXPECT_EQ(c.coalesced, 4);
  EXPECT_EQ(c.aggregates, 3);
  EXPECT_EQ(comm.messages_sent(), 4);  // three aggregates, one direct

  std::deque<Message> to1 = comm.drain(1);
  ASSERT_EQ(to1.size(), 3u);
  EXPECT_EQ(to1[0].meta, 2);
  EXPECT_EQ(to1[1].meta, 1);
  EXPECT_EQ(to1[2].meta, 4);
  std::deque<Message> to2 = comm.drain(2);
  ASSERT_EQ(to2.size(), 1u);
  EXPECT_EQ(to2[0].meta, 1);
}

// ---- ingress ----------------------------------------------------------------

TEST(Ingress, AggregateSplitsIntoItsChannelsWithEachFramesMeta) {
  net::MailboxComm comm(2);
  net::Reliable rel0(comm, 0, raw());
  Egress eg(rel0, 2, 1024);
  eg.send({1, 0, frame(16, 11, 0xa1)});
  eg.send({1, 1, frame(0, 22)});
  eg.send({1, 0, frame(5, 33, 0xc3)});
  ASSERT_TRUE(eg.flush_all());

  net::Reliable rel1(comm, 1, raw());
  Routes routes(2, 0, 2);
  Ingress in(routes.table, rel1);
  std::deque<Message> wire = comm.drain(1);
  ASSERT_EQ(wire.size(), 1u);
  in.receive(std::move(wire));

  ASSERT_EQ(routes.ch[0]->size(), 2);
  Packet a = routes.ch[0]->pop();
  Packet c = routes.ch[0]->pop();
  EXPECT_EQ(a.meta(), 11);
  ASSERT_EQ(a.size(), 16u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.bytes()[i], std::byte{0xa1});
  }
  EXPECT_EQ(c.meta(), 33);
  ASSERT_EQ(c.size(), 5u);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_EQ(c.bytes()[i], std::byte{0xc3});
  }
  EXPECT_EQ(routes.metas(1), (std::vector<int>{22}));
  EXPECT_EQ(routes.table[0][0].delivered, 2);
  EXPECT_EQ(routes.table[0][1].delivered, 1);
}

// Node 2 receives from nodes 0 and 1 over the sequenced protocol. Node 0
// dies twice; each replacement re-executes from the start with a fresh
// endpoint, re-sending every frame of its routes.
TEST(Ingress, RejoinDropsExactlyTheDeliveredPrefixAndReArms) {
  net::MailboxComm comm(3);
  RouteTable table(3);
  std::vector<std::unique_ptr<Channel>> ch;
  for (int i = 0; i < 3; ++i) ch.push_back(std::make_unique<Channel>(64, true));
  table[0] = {{ch[0].get()}, {ch[1].get()}};  // node 0: tags 0, 1
  table[1] = {{ch[2].get()}};                 // node 1: tag 0
  net::Reliable rel2(comm, 2, {});
  Ingress in(table, rel2, [](int) { return 0u; });
  auto pump = [&] { in.receive(comm.drain(2)); };
  auto metas = [&](int c) {
    std::vector<int> out;
    while (ch[c]->size() > 0) out.push_back(ch[c]->pop().meta());
    return out;
  };
  // One incarnation of node 0, on a fresh endpoint, sends route (0, 0)
  // frames 0..n0-1 and route (0, 1) frames 0..n1-1 (meta = position on
  // the route).
  auto incarnation = [&](int n0, int n1) {
    net::Reliable rel0(comm, 0, {});
    for (int k = 0; k < n0; ++k) rel0.send(2, 0, frame(kSmall, k), k);
    for (int k = 0; k < n1; ++k) rel0.send(2, 1, frame(kSmall, k), k);
  };
  net::Reliable rel1(comm, 1, {});
  incarnation(3, 1);
  rel1.send(2, 0, frame(kSmall, 0), 0);
  pump();
  EXPECT_EQ(metas(0), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(metas(1), (std::vector<int>{0}));
  EXPECT_EQ(metas(2), (std::vector<int>{0}));

  in.rejoin(0);
  EXPECT_EQ(table[0][0].skip, 3);
  EXPECT_EQ(table[0][1].skip, 1);
  EXPECT_EQ(table[1][0].skip, 0);  // another source is untouched
  incarnation(4, 2);
  rel1.send(2, 0, frame(kSmall, 1), 1);
  pump();
  EXPECT_EQ(metas(0), (std::vector<int>{3}));
  EXPECT_EQ(metas(1), (std::vector<int>{1}));
  EXPECT_EQ(metas(2), (std::vector<int>{1}));
  EXPECT_EQ(table[0][0].delivered, 4);
  EXPECT_EQ(table[0][1].delivered, 2);

  // The second replacement dies and rejoins too: the skip re-arms from
  // the counts delivered across both earlier incarnations.
  in.rejoin(0);
  EXPECT_EQ(table[0][0].skip, 4);
  EXPECT_EQ(table[0][1].skip, 2);
  incarnation(6, 2);
  pump();
  EXPECT_EQ(metas(0), (std::vector<int>{4, 5}));
  EXPECT_TRUE(metas(1).empty());
  EXPECT_EQ(table[0][0].skip, 0);
  EXPECT_EQ(table[0][1].skip, 0);
}

TEST(Ingress, FencesFramesFromADeadIncarnation) {
  net::MailboxComm comm(2);
  net::Reliable rel(comm, 1, raw());
  Routes routes(2, 0, 1);
  Ingress in(routes.table, rel, [](int r) { return r == 0 ? 2u : 0u; });
  std::deque<Message> arrived(3);
  for (int i = 0; i < 3; ++i) {
    arrived[i].source = 0;
    arrived[i].tag = 0;
    arrived[i].meta = i;
    arrived[i].epoch = static_cast<std::uint32_t>(i + 1);  // 1, 2, 3
    arrived[i].payload = frame(kSmall, 0);
  }
  in.receive(std::move(arrived));
  EXPECT_EQ(routes.metas(0), (std::vector<int>{1, 2}));
}

// ---- inputs no route can take -------------------------------------------
//
// A route index comes off the wire, so each of these must end in the named
// proxy failure, never in a read past the route table.

using IngressDeathTest = ::testing::Test;

/// Feed one message to the ingress of node 1, whose only route is
/// (source 0, tag 0).
void feed_one(Message m) {
  net::MailboxComm comm(2);
  net::Reliable rel(comm, 1, raw());
  Routes routes(2, 0, 1);
  Ingress in(routes.table, rel);
  std::deque<Message> arrived;
  arrived.push_back(std::move(m));
  in.receive(std::move(arrived));
}

Message raw_frame(int source, int tag) {
  Message m;
  m.source = source;
  m.tag = tag;
  m.payload = frame(kSmall, 0);
  return m;
}

/// An aggregate from `source` of frames with the given tags, its meta
/// (the frame count) overridden by `meta` when >= 0.
Message aggregate(int source, const std::vector<int>& tags, int meta = -1) {
  net::FrameStager stager(4096);
  for (std::size_t i = 0; i < tags.size(); ++i) {
    stager.add(0, 0, frame(kSmall, 0));
  }
  Packet wire = stager.take();
  // FrameStager refuses a reserved or negative tag, so write the tags into
  // the headers directly (each frame is 16 header + 8 payload bytes).
  for (std::size_t i = 0; i < tags.size(); ++i) {
    net::wire::put_i32(wire.bytes() + 24 * i, tags[i]);
  }
  Message m;
  m.source = source;
  m.tag = net::kAggregateTag;
  m.meta = meta >= 0 ? meta : static_cast<int>(tags.size());
  m.payload = std::move(wire);
  return m;
}

TEST(IngressDeathTest, RawFrameFromAnUnknownSource) {
  EXPECT_DEATH(feed_one(raw_frame(2, 0)), "proxy: unroutable message");
  EXPECT_DEATH(feed_one(raw_frame(-1, 0)), "proxy: unroutable message");
  EXPECT_DEATH(feed_one(raw_frame(1 << 20, 0)), "proxy: unroutable message");
}

TEST(IngressDeathTest, RawFrameWithANegativeNonReservedTag) {
  EXPECT_DEATH(feed_one(raw_frame(0, -5)), "proxy: unroutable message");
}

TEST(IngressDeathTest, RawFrameWithATagPastTheRow) {
  EXPECT_DEATH(feed_one(raw_frame(0, 1)), "proxy: unroutable message");
  EXPECT_DEATH(feed_one(raw_frame(1, 0)), "proxy: unroutable message");
}

TEST(IngressDeathTest, AggregateFromAnUnknownSource) {
  EXPECT_DEATH(feed_one(aggregate(3, {0})), "proxy: unroutable message");
}

TEST(IngressDeathTest, AggregateFrameWithANegativeNonReservedTag) {
  EXPECT_DEATH(feed_one(aggregate(0, {0, -5})),
               "proxy: unroutable coalesced frame");
}

TEST(IngressDeathTest, AggregateFrameWithATagPastTheRow) {
  EXPECT_DEATH(feed_one(aggregate(0, {1})),
               "proxy: unroutable coalesced frame");
  EXPECT_DEATH(feed_one(aggregate(0, {0, 0, 1 << 30})),
               "proxy: unroutable coalesced frame");
}

TEST(IngressDeathTest, AggregateWhoseFrameCountDisagreesWithItsMeta) {
  EXPECT_DEATH(feed_one(aggregate(0, {0, 0}, 3)),
               "proxy: aggregate frame count mismatch");
  EXPECT_DEATH(feed_one(aggregate(0, {0, 0}, 1)),
               "proxy: aggregate frame count mismatch");
}

TEST(IngressDeathTest, WellFormedInputsDoNotDie) {
  // Positive control for the cases above: the same helpers, routable.
  feed_one(raw_frame(0, 0));
  feed_one(aggregate(0, {0, 0}));
}

}  // namespace
}  // namespace pulsarqr::prt
