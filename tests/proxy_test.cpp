// The node proxy's ingress (prt/proxy.hpp), driven one call at a time
// over a MailboxComm with no thread: the pass-through endpoint's plain
// frames, in-order delivery of sequenced frames, the crash-replay dedup
// and epoch fence, and the named failure for every input no route can
// take. Then the pump (Vsa::proxy_loop) end to end: one wire message per
// frame, and exact frame and byte counts, in process and over sockets.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "prt/proxy.hpp"
#include "prt/vsa.hpp"

namespace pulsarqr::prt {
namespace {

using Clock = std::chrono::steady_clock;
using net::Message;

constexpr std::size_t kSmall = 8;
constexpr std::size_t kLarge = 600;

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

// ---- ingress ----------------------------------------------------------------

// With reliable_transport off the proxy sends through a pass-through
// endpoint: each frame is one wire message without a protocol header, the
// ingress delivers it as it came, and nothing comes back.
TEST(Ingress, PassThroughEndpointAddsNoProtocol) {
  net::MailboxComm comm(2);
  net::Reliable rel0(comm, 0, raw());
  net::Reliable rel1(comm, 1, raw());
  rel0.send(1, 0, frame(kSmall, 1), 1);
  rel0.send(1, 0, frame(kLarge, 2), 2);
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

// Frames of several routes from one source, one wire message each: every
// frame lands on its own channel with its meta and bytes, and in process
// the channel adopts the buffer the sender handed over, without a copy.
TEST(Ingress, FramesLandOnTheirChannelsWithTheirMetaAndBytes) {
  net::MailboxComm comm(2);
  net::Reliable rel0(comm, 0, raw());
  net::Reliable rel1(comm, 1, raw());
  // The buffers carry meta 0: what a channel sees is the wire message's.
  const Packet a = frame(16, 0, 0xa1);
  const Packet b = frame(0, 0);
  const Packet c = frame(5, 0, 0xc3);
  rel0.send(1, 0, a, 11);
  rel0.send(1, 1, b, 22);
  rel0.send(1, 0, c, 33);
  std::deque<Message> wire = comm.drain(1);
  ASSERT_EQ(wire.size(), 3u);

  Routes routes(2, 0, 2);
  Ingress in(routes.table, rel1);
  in.receive(std::move(wire));
  ASSERT_EQ(routes.ch[0]->size(), 2);
  const Packet got_a = routes.ch[0]->pop();
  const Packet got_c = routes.ch[0]->pop();
  EXPECT_EQ(got_a.meta(), 11);
  ASSERT_EQ(got_a.size(), 16u);
  EXPECT_EQ(got_a.bytes(), a.bytes());
  for (std::size_t i = 0; i < got_a.size(); ++i) {
    EXPECT_EQ(got_a.bytes()[i], std::byte{0xa1});
  }
  EXPECT_EQ(got_c.meta(), 33);
  ASSERT_EQ(got_c.size(), 5u);
  EXPECT_EQ(got_c.bytes(), c.bytes());
  for (std::size_t i = 0; i < got_c.size(); ++i) {
    EXPECT_EQ(got_c.bytes()[i], std::byte{0xc3});
  }
  EXPECT_EQ(routes.metas(1), (std::vector<int>{22}));
  EXPECT_EQ(routes.table[0][0].delivered, 2);
  EXPECT_EQ(routes.table[0][1].delivered, 1);
}

// A zero-byte frame is still one wire message and still one delivery, on
// the pass-through endpoint and under the sequenced protocol.
TEST(Ingress, ZeroByteFramesAreDelivered) {
  for (const bool sequenced : {false, true}) {
    SCOPED_TRACE(sequenced ? "sequenced" : "pass-through");
    net::Reliable::Params prm;
    prm.sequenced = sequenced;
    net::MailboxComm comm(2);
    net::Reliable rel0(comm, 0, prm);
    net::Reliable rel1(comm, 1, prm);
    rel0.send(1, 0, frame(0, 0), 42);
    rel0.send(1, 0, frame(0, 0), 43);
    std::deque<Message> wire = comm.drain(1);
    ASSERT_EQ(wire.size(), 2u);
    Routes routes(2, 0, 1);
    Ingress in(routes.table, rel1);
    in.receive(std::move(wire));
    ASSERT_EQ(routes.ch[0]->size(), 2);
    const Packet first = routes.ch[0]->pop();
    const Packet second = routes.ch[0]->pop();
    EXPECT_EQ(first.size(), 0u);
    EXPECT_EQ(first.meta(), 42);
    EXPECT_EQ(second.size(), 0u);
    EXPECT_EQ(second.meta(), 43);
  }
}

// Under the protocol every frame is its own sequenced wire message, the
// link's sequence numbers run across the routes in send order, and one
// cumulative pure ack answers the lot.
TEST(Ingress, SequencedFramesAreOneWireMessageEachAndDeliverInOrder) {
  net::MailboxComm comm(2);
  net::Reliable rel0(comm, 0, {});
  net::Reliable rel1(comm, 1, {});
  // Two routes interleaved, the way one pass of the pump sends them.
  for (int k = 0; k < 6; ++k) rel0.send(1, k % 2, frame(kSmall, 0), k);
  std::deque<Message> wire = comm.drain(1);
  ASSERT_EQ(wire.size(), 6u);
  for (std::size_t i = 0; i < wire.size(); ++i) {
    EXPECT_EQ(wire[i].seq, static_cast<long long>(i));
    EXPECT_EQ(wire[i].tag, static_cast<int>(i % 2));
    EXPECT_EQ(wire[i].meta, static_cast<int>(i));
    EXPECT_FALSE(wire[i].is_ack);
  }
  Routes routes(2, 0, 2);
  Ingress in(routes.table, rel1);
  in.receive(std::move(wire));
  EXPECT_EQ(routes.metas(0), (std::vector<int>{0, 2, 4}));
  EXPECT_EQ(routes.metas(1), (std::vector<int>{1, 3, 5}));
  EXPECT_EQ(routes.table[0][0].delivered, 3);
  EXPECT_EQ(routes.table[0][1].delivered, 3);
  rel1.flush_acks();
  EXPECT_EQ(rel1.acks_sent(), 1);
  EXPECT_EQ(comm.messages_sent(), 7);  // six frames and one ack
}

// Wire messages that arrive out of order are held by the protocol and
// reach their channel only in send order, across separate receive calls.
TEST(Ingress, ReorderedFramesReachTheirChannelInSendOrder) {
  net::MailboxComm comm(2);
  net::Reliable rel0(comm, 0, {});
  net::Reliable rel1(comm, 1, {});
  for (int k = 0; k < 4; ++k) rel0.send(1, 0, frame(kSmall, k), k);
  std::deque<Message> wire = comm.drain(1);
  ASSERT_EQ(wire.size(), 4u);
  Routes routes(2, 0, 1);
  Ingress in(routes.table, rel1);
  auto arrive = [&](std::initializer_list<int> which) {
    std::deque<Message> batch;
    for (const int i : which) batch.push_back(wire[static_cast<std::size_t>(i)]);
    in.receive(std::move(batch));
  };
  arrive({3, 1});
  EXPECT_EQ(routes.ch[0]->size(), 0);
  arrive({0});
  EXPECT_EQ(routes.metas(0), (std::vector<int>{0, 1}));
  arrive({2});
  EXPECT_EQ(routes.metas(0), (std::vector<int>{2, 3}));
  EXPECT_EQ(routes.table[0][0].delivered, 4);
}

// A wire message that arrives twice (a retransmission racing its ack, or
// a duplicating fabric) reaches its channel once.
TEST(Ingress, ADuplicatedWireMessageReachesItsChannelOnce) {
  net::MailboxComm comm(2);
  net::Reliable rel0(comm, 0, {});
  net::Reliable rel1(comm, 1, {});
  rel0.send(1, 0, frame(kSmall, 1), 1);
  rel0.send(1, 0, frame(kSmall, 2), 2);
  std::deque<Message> wire = comm.drain(1);
  ASSERT_EQ(wire.size(), 2u);
  wire.push_back(wire[0]);
  wire.push_back(wire[1]);
  Routes routes(2, 0, 1);
  Ingress in(routes.table, rel1);
  in.receive(std::move(wire));
  EXPECT_EQ(routes.metas(0), (std::vector<int>{1, 2}));
  EXPECT_EQ(routes.table[0][0].delivered, 2);
  EXPECT_EQ(rel1.duplicates_suppressed(), 2);
}

// Each source's link is sequenced on its own: frames from two senders,
// both numbered from 0 and arriving interleaved and out of order, reach
// each source's channel in that source's send order.
TEST(Ingress, EachSourceLinkIsSequencedOnItsOwn) {
  net::MailboxComm comm(3);
  RouteTable table(3);
  std::vector<std::unique_ptr<Channel>> ch;
  for (int i = 0; i < 2; ++i) ch.push_back(std::make_unique<Channel>(64, true));
  table[0] = {{ch[0].get()}};
  table[1] = {{ch[1].get()}};
  net::Reliable rel0(comm, 0, {});
  net::Reliable rel1(comm, 1, {});
  net::Reliable rel2(comm, 2, {});
  for (int k = 0; k < 3; ++k) {
    rel0.send(2, 0, frame(kSmall, 10 + k), 10 + k);
    rel1.send(2, 0, frame(kSmall, 20 + k), 20 + k);
  }
  std::deque<Message> wire = comm.drain(2);
  ASSERT_EQ(wire.size(), 6u);
  std::reverse(wire.begin(), wire.end());
  Ingress in(table, rel2);
  in.receive(std::move(wire));
  auto metas = [&](int c) {
    std::vector<int> out;
    while (ch[c]->size() > 0) out.push_back(ch[c]->pop().meta());
    return out;
  };
  EXPECT_EQ(metas(0), (std::vector<int>{10, 11, 12}));
  EXPECT_EQ(metas(1), (std::vector<int>{20, 21, 22}));
  EXPECT_EQ(rel2.duplicates_suppressed(), 0);
}

// A pure ack carries the reserved tag, which no route owns: the protocol
// consumes it before routing. The sender's node here has no route from
// the receiver at all, so an ack that reached routing would be the named
// unroutable failure, and one that went unread would leave the frames to
// be retransmitted.
TEST(Ingress, PureAcksAreConsumedAndNeverRouted) {
  net::MailboxComm comm(2);
  net::Reliable rel0(comm, 0, {});
  net::Reliable rel1(comm, 1, {});
  rel0.send(1, 0, frame(kSmall, 1), 1);
  rel0.send(1, 0, frame(kSmall, 2), 2);
  Routes at1(2, 0, 1);
  Ingress in1(at1.table, rel1);
  in1.receive(comm.drain(1));
  rel1.flush_acks();
  std::deque<Message> back = comm.drain(0);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_TRUE(back[0].is_ack);
  EXPECT_EQ(back[0].tag, net::kPureAckTag);
  EXPECT_EQ(back[0].ack, 1);

  Routes at0(2, 1, 0);  // node 0: no route from node 1
  Ingress in0(at0.table, rel0);
  in0.receive(std::move(back));
  EXPECT_TRUE(rel0.poll(Clock::now() + std::chrono::hours(1)));
  EXPECT_EQ(rel0.retransmits(), 0);
  EXPECT_TRUE(comm.drain(1).empty());
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

// -2 once tagged a coalesced aggregate. Nothing sends it any more, so a
// frame carrying it is an unroutable input like any other negative tag,
// not a batch to unpack.
TEST(IngressDeathTest, RawFrameWithTheRetiredAggregateTag) {
  EXPECT_DEATH(feed_one(raw_frame(0, -2)), "proxy: unroutable message");
}

// The protocol accepts a well-sequenced frame whatever its tag; routing
// then refuses a tag past the source's row.
TEST(IngressDeathTest, SequencedFrameWithATagPastTheRow) {
  EXPECT_DEATH(
      {
        net::MailboxComm comm(2);
        net::Reliable rel0(comm, 0, {});
        net::Reliable rel1(comm, 1, {});
        rel0.send(1, 1, frame(kSmall, 0), 0);
        Routes routes(2, 0, 1);
        Ingress in(routes.table, rel1);
        in.receive(comm.drain(1));
      },
      "proxy: unroutable message");
}

TEST(IngressDeathTest, WellFormedInputsDoNotDie) {
  // Positive control for the cases above: the same helpers, routable.
  feed_one(raw_frame(0, 0));
}

// ---- the pump: Vsa::proxy_loop ---------------------------------------------
//
// The pump sends each packet a worker handed it as one wire message and
// counts the frames and payload bytes it sent. A hand-built graph whose
// traffic is known exactly pins both: kPairs producer/consumer pairs, each
// producer on one node and its consumer on the other, in both directions.

constexpr int kPairs = 4;
constexpr int kPerPair = 20;
constexpr std::size_t kPairMaxBytes = 96;

/// Payload size of packet k of pair i: 0 to 96 bytes, zero included.
std::size_t pair_bytes(int i, int k) {
  return static_cast<std::size_t>((i * 7 + k * 5) % 13) * 8;
}

unsigned char pair_fill(int i, int k) {
  return static_cast<unsigned char>(i * 31 + k);
}

long long pair_total_bytes() {
  long long total = 0;
  for (int i = 0; i < kPairs; ++i) {
    for (int k = 0; k < kPerPair; ++k) {
      total += static_cast<long long>(pair_bytes(i, k));
    }
  }
  return total;
}

Vsa::Config pair_config(Transport transport, bool reliable) {
  Vsa::Config c;
  c.nodes = 2;
  c.workers_per_node = 1;
  c.watchdog_seconds = 60.0;
  c.transport = transport;
  c.reliable_transport = reliable;
  return c;
}

/// Adds the pairs to `vsa`. Pair i's producer runs on node i % 2. Each
/// consumer checks every packet's size, bytes and meta against what its
/// producer sent, in order, and throws on a mismatch, so a run that
/// returns moved every frame intact, in process or across processes.
void build_pairs(Vsa& vsa) {
  for (int i = 0; i < kPairs; ++i) {
    const Tuple producer = tuple2(1, i);
    const Tuple consumer = tuple2(2, i);
    vsa.add_vdp(
        producer, kPerPair,
        [i](VdpContext& ctx) {
          const int k = kPerPair - ctx.counter();
          ctx.push(0, frame(pair_bytes(i, k), k, pair_fill(i, k)));
        },
        0, 1);
    vsa.add_vdp(
        consumer, kPerPair,
        [i](VdpContext& ctx) {
          const int k = kPerPair - ctx.counter();
          const Packet p = ctx.pop(0);
          bool same = p.meta() == k && p.size() == pair_bytes(i, k);
          for (std::size_t b = 0; same && b < p.size(); ++b) {
            same = p.bytes()[b] == std::byte{pair_fill(i, k)};
          }
          if (!same) {
            throw Error("pair " + std::to_string(i) + " packet " +
                        std::to_string(k) + " arrived altered or out of order");
          }
        },
        1, 0);
    vsa.connect(producer, 0, consumer, 0, kPairMaxBytes);
    vsa.map_vdp(producer, i % 2);
    vsa.map_vdp(consumer, 1 - i % 2);
  }
}

/// What every run of the pairs sends, whatever the transport: exactly one
/// frame per packet, with exactly the packets' bytes, and no aggregate.
void expect_pair_frames(const Vsa::RunStats& s) {
  EXPECT_EQ(s.fires, 2 * kPairs * kPerPair);
  EXPECT_EQ(s.remote_messages, kPairs * kPerPair);
  EXPECT_EQ(s.remote_bytes, pair_total_bytes());
  EXPECT_EQ(s.coalesced_frames, 0);
  EXPECT_EQ(s.aggregates_sent, 0);
  EXPECT_EQ(s.leftover_packets, 0);
}

TEST(ProxyLoop, SendsEachFrameAsOneWireMessageAndCountsItsBytes) {
  Vsa vsa(pair_config(Transport::InProcess, false));
  build_pairs(vsa);
  const Vsa::RunStats s = vsa.run();
  expect_pair_frames(s);
  EXPECT_EQ(s.wire_offered, kPairs * kPerPair);
  EXPECT_EQ(s.wire_messages, kPairs * kPerPair);
  EXPECT_EQ(s.wire_bytes, pair_total_bytes());
  EXPECT_EQ(s.acks_sent, 0);
  EXPECT_EQ(s.retransmits, 0);
}

// The protocol on a clean fabric adds only its pure acks (empty payload)
// to the frames: no retransmission and nothing suppressed.
TEST(ProxyLoop, TheProtocolOnACleanFabricAddsOnlyPureAcks) {
  Vsa::Config c = pair_config(Transport::InProcess, true);
  c.retransmit_timeout_us = 60'000'000;  // no spurious timeouts
  Vsa vsa(c);
  build_pairs(vsa);
  const Vsa::RunStats s = vsa.run();
  expect_pair_frames(s);
  EXPECT_EQ(s.retransmits, 0);
  EXPECT_EQ(s.duplicates_suppressed, 0);
  EXPECT_EQ(s.wire_offered, s.remote_messages + s.acks_sent);
  EXPECT_EQ(s.wire_messages, s.wire_offered);
  EXPECT_EQ(s.wire_bytes, pair_total_bytes());
}

// Drops act on wire messages, and a frame is one wire message: the
// protocol resends the frames one by one, and the wire carries nothing but
// the frames, their retransmissions and the pure acks.
TEST(ProxyLoop, DroppedFramesAreRetransmittedOneByOne) {
  Vsa::Config c = pair_config(Transport::InProcess, true);
  c.retransmit_timeout_us = 800;
  c.max_retransmits = 30;
  c.fault_plan.seed = 5;
  c.fault_plan.drop = 0.25;
  Vsa vsa(c);
  build_pairs(vsa);
  const Vsa::RunStats s = vsa.run();
  expect_pair_frames(s);
  EXPECT_GT(s.faults.dropped, 0);
  EXPECT_GT(s.retransmits, 0);
  EXPECT_EQ(s.wire_offered, s.remote_messages + s.retransmits + s.acks_sent);
  EXPECT_EQ(s.wire_messages, s.wire_offered - s.faults.dropped);
}

TEST(ProxyLoop, SocketNodesSendEachFrameAsOneWireMessage) {
  Vsa vsa(pair_config(Transport::Socket, false));
  build_pairs(vsa);
  const Vsa::RunStats s = vsa.run();
  expect_pair_frames(s);
  // Both nodes ran as processes of their own (in process these are 0).
  ASSERT_EQ(s.minor_faults_per_node.size(), 2u);
  EXPECT_GT(s.minor_faults_per_node[0], 0);
  EXPECT_GT(s.minor_faults_per_node[1], 0);
  EXPECT_EQ(s.wire_offered, kPairs * kPerPair);
  EXPECT_EQ(s.wire_messages, kPairs * kPerPair);
  EXPECT_EQ(s.wire_bytes, pair_total_bytes());
}

TEST(ProxyLoop, SocketNodesRetransmitDroppedFramesOneByOne) {
  Vsa::Config c = pair_config(Transport::Socket, true);
  c.retransmit_timeout_us = 800;
  c.max_retransmits = 30;
  c.fault_plan.seed = 5;
  c.fault_plan.drop = 0.25;
  Vsa vsa(c);
  build_pairs(vsa);
  const Vsa::RunStats s = vsa.run();
  expect_pair_frames(s);
  EXPECT_GT(s.faults.dropped, 0);
  EXPECT_GT(s.retransmits, 0);
  EXPECT_EQ(s.wire_offered, s.remote_messages + s.retransmits + s.acks_sent);
  EXPECT_EQ(s.wire_messages, s.wire_offered - s.faults.dropped);
}

}  // namespace
}  // namespace pulsarqr::prt
