// PacketPool: size-class routing, cross-thread recycling and the zero-
// allocation steady state; and the scalar wire codec.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "prt/packet.hpp"
#include "prt/packet_pool.hpp"
#include "prt/wire.hpp"
#include "vsaqr/tree_qr.hpp"

namespace {

using namespace pulsarqr;
using prt::Packet;
using prt::PacketPool;

long long misses_now() { return PacketPool::stats().misses; }
long long hits_now() { return PacketPool::stats().hits; }

TEST(PacketPoolTest, SizeClassBoundaries) {
  // Classes are powers of two from 64 bytes up; a request is served with
  // the next class up, and 0 marks the unpooled oversize regime.
  EXPECT_EQ(PacketPool::capacity_for(1), 64u);
  EXPECT_EQ(PacketPool::capacity_for(64), 64u);
  EXPECT_EQ(PacketPool::capacity_for(65), 128u);
  EXPECT_EQ(PacketPool::capacity_for(128), 128u);
  EXPECT_EQ(PacketPool::capacity_for(4096), 4096u);
  EXPECT_EQ(PacketPool::capacity_for(4097), 8192u);
  const std::size_t largest = PacketPool::capacity_for(8u << 20);
  EXPECT_EQ(largest, 8u << 20);  // 8 MiB: the largest class
  EXPECT_EQ(PacketPool::capacity_for((8u << 20) + 1), 0u);  // oversize
}

TEST(PacketPoolTest, SameThreadReuseHitsTheMagazine) {
  ASSERT_TRUE(PacketPool::enabled());
  // Warm one buffer of an odd size no other test uses, then re-acquire
  // the same class: the release/acquire pair must be a magazine hit.
  { Packet p = Packet::make(777); }
  const long long h0 = hits_now();
  const long long m0 = misses_now();
  for (int i = 0; i < 8; ++i) {
    Packet p = Packet::make(777);
    EXPECT_NE(p.bytes(), nullptr);
  }
  EXPECT_EQ(misses_now(), m0);
  EXPECT_EQ(hits_now(), h0 + 8);
}

TEST(PacketPoolTest, CrossThreadFreeComesBackThroughTheSpillList) {
  // Allocate on a worker thread, release on exit (its magazine flushes to
  // the central spill list), then re-acquire the class on this thread.
  constexpr std::size_t kBytes = 3000;  // class 4096
  std::thread t([&] {
    std::vector<Packet> held;
    for (int i = 0; i < 32; ++i) held.push_back(Packet::make(kBytes));
  });
  t.join();
  const long long m0 = misses_now();
  std::vector<Packet> again;
  for (int i = 0; i < 32; ++i) again.push_back(Packet::make(kBytes));
  EXPECT_EQ(misses_now(), m0) << "expected all 32 buffers recycled";
}

TEST(PacketPoolTest, DisabledBypassesThePool) {
  PacketPool::set_enabled(false);
  const PacketPool::Stats s0 = PacketPool::stats();
  {
    Packet p = Packet::make(512);
    EXPECT_NE(p.bytes(), nullptr);
  }
  const PacketPool::Stats s1 = PacketPool::stats();
  EXPECT_EQ(s1.hits, s0.hits);
  EXPECT_EQ(s1.misses, s0.misses);
  EXPECT_EQ(s1.recycled, s0.recycled);
  PacketPool::set_enabled(true);
}

TEST(PacketPoolTest, OversizeRequestsAreNotPooled) {
  const long long m0 = misses_now();
  const PacketPool::Stats s0 = PacketPool::stats();
  { Packet p = Packet::make((8u << 20) + 64); }
  const PacketPool::Stats s1 = PacketPool::stats();
  EXPECT_EQ(s1.oversize, s0.oversize + 1);
  EXPECT_EQ(misses_now(), m0);  // oversize is its own counter, not a miss
}

TEST(PacketPoolTest, QrSteadyStateStopsMissing) {
  // The acceptance gate of the zero-allocation fast path: after a warm-up
  // factorization, repeating the identical run draws every packet buffer
  // from the pool — the miss counter stays flat.
  const int n = 192, nb = 32;
  Matrix a0(n, n);
  fill_random(a0.view(), 7);
  const TileMatrix tiled = TileMatrix::from_dense(a0.view(), nb);
  vsaqr::TreeQrOptions opt;
  opt.tree = {plan::TreeKind::BinaryOnFlat, 3, plan::BoundaryMode::Shifted};
  opt.ib = 16;
  opt.nodes = 2;
  opt.workers_per_node = 2;
  for (int warm = 0; warm < 3; ++warm) (void)vsaqr::tree_qr(tiled, opt);
  // Each run spawns fresh worker/proxy threads whose magazines start
  // empty, and a thread's magazine keeps up to a magazine's worth of
  // buffers of a class idle while another thread, finding the spill list
  // empty, allocates. Under load a warmed run still misses a few times
  // with 40-60 tile buffers idle in other threads' magazines; every miss
  // grows the pooled population, so the runs converge on zero misses.
  // The bound is therefore taken over a fixed window of runs, not over the
  // runs up to the first zero-miss one (whose few hits made it flaky), and
  // a lost buffer, the defect the bound guards against, is caught exactly:
  // every buffer the runs drew comes back.
  const PacketPool::Stats s0 = PacketPool::stats();
  long long total_misses = 0, total_hits = 0;
  bool reached_zero = false;
  for (int r = 0; r < 8; ++r) {
    auto run = vsaqr::tree_qr(tiled, opt);
    reached_zero = reached_zero || run.stats.pool_misses == 0;
    total_misses += run.stats.pool_misses;
    total_hits += run.stats.pool_hits;
  }
  const PacketPool::Stats s1 = PacketPool::stats();
  EXPECT_TRUE(reached_zero) << "no warmed run reached the zero-allocation "
                               "steady state";
  EXPECT_GT(total_hits, 0);
  EXPECT_LT(total_misses, total_hits / 20)
      << "warmed runs still allocate more than 5% of their packets";
  const auto out = [](const PacketPool::Stats& s) {
    return s.hits + s.misses - s.recycled;
  };
  EXPECT_EQ(out(s1), out(s0))
      << "a pooled buffer drawn by the runs never came back";
}

// The shared scalar codec the socket frame header and the control-plane
// blobs are built from.
TEST(WireCodecTest, ScalarsRoundTripAndSerializeLittleEndian) {
  namespace wire = prt::net::wire;
  std::byte buf[8];
  wire::put_u32(buf, 0xDEADBEEFu);
  const unsigned char le32[4] = {0xEF, 0xBE, 0xAD, 0xDE};
  EXPECT_EQ(std::memcmp(buf, le32, 4), 0);
  EXPECT_EQ(wire::get_u32(buf), 0xDEADBEEFu);
  wire::put_u64(buf, 0x0102030405060708ULL);
  const unsigned char le64[8] = {0x08, 0x07, 0x06, 0x05,
                                 0x04, 0x03, 0x02, 0x01};
  EXPECT_EQ(std::memcmp(buf, le64, 8), 0);
  EXPECT_EQ(wire::get_u64(buf), 0x0102030405060708ULL);
  wire::put_i32(buf, -123456789);
  EXPECT_EQ(wire::get_i32(buf), -123456789);
  wire::put_i64(buf, -987654321012345LL);
  EXPECT_EQ(wire::get_i64(buf), -987654321012345LL);
  wire::put_f64(buf, -0.15625);  // exactly representable
  EXPECT_EQ(wire::get_f64(buf), -0.15625);

  wire::Blob b;
  b.u32(7);
  b.str("hello");
  b.f64(2.5);
  wire::BlobReader r(b.data(), b.size());
  EXPECT_EQ(r.u32(), 7u);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.f64(), 2.5);
  EXPECT_TRUE(r.done());
  EXPECT_THROW(r.u32(), Error);  // reading past the end throws, not UB
}

}  // namespace
