// PacketPool: size-class routing, cross-thread recycling, the zero-
// allocation steady state, and the FrameStager/FrameCursor aggregate
// codec that rides on pooled wire buffers.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "prt/packet.hpp"
#include "prt/packet_pool.hpp"
#include "prt/transport.hpp"
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

// ---- aggregate codec --------------------------------------------------------

TEST(FrameCodecTest, RoundTripPreservesFramesInOrder) {
  prt::net::FrameStager stager(4096);
  ASSERT_TRUE(stager.empty());
  std::vector<std::vector<std::byte>> payloads;
  for (int i = 0; i < 5; ++i) {
    const std::size_t bytes = 1 + 37 * static_cast<std::size_t>(i);  // odd sizes
    Packet p = Packet::make(bytes, /*meta=*/100 + i);
    for (std::size_t b = 0; b < bytes; ++b) {
      p.bytes()[b] = static_cast<std::byte>((i * 31 + b) & 0xff);
    }
    payloads.emplace_back(p.bytes(), p.bytes() + bytes);
    ASSERT_TRUE(stager.fits(bytes));
    stager.add(/*tag=*/i, p.meta(), p);
  }
  EXPECT_EQ(stager.frames(), 5);
  const Packet wire = stager.take();
  EXPECT_TRUE(stager.empty());
  EXPECT_EQ(wire.meta(), 5);  // meta carries the frame count

  prt::net::FrameCursor cursor(wire);
  prt::net::WireFrame wf;
  int i = 0;
  while (cursor.next(wf)) {
    EXPECT_EQ(wf.tag, i);
    EXPECT_EQ(wf.meta, 100 + i);
    ASSERT_EQ(wf.size, payloads[static_cast<std::size_t>(i)].size());
    EXPECT_EQ(std::memcmp(wf.data, payloads[static_cast<std::size_t>(i)].data(),
                          wf.size),
              0);
    ++i;
  }
  EXPECT_EQ(i, 5);
}

TEST(FrameCodecTest, ZeroByteFramesSurvive) {
  prt::net::FrameStager stager(256);
  Packet empty = Packet::make(0, /*meta=*/42);
  stager.add(/*tag=*/9, empty.meta(), empty);
  stager.add(/*tag=*/10, 43, empty);
  const Packet wire = stager.take();
  prt::net::FrameCursor cursor(wire);
  prt::net::WireFrame wf;
  ASSERT_TRUE(cursor.next(wf));
  EXPECT_EQ(wf.tag, 9);
  EXPECT_EQ(wf.meta, 42);
  EXPECT_EQ(wf.size, 0u);
  ASSERT_TRUE(cursor.next(wf));
  EXPECT_EQ(wf.tag, 10);
  EXPECT_EQ(wf.meta, 43);
  EXPECT_FALSE(cursor.next(wf));
}

TEST(FrameCodecTest, FitsTracksTheWireFormatExactly) {
  // wire_size = 16-byte header + payload padded to 8 bytes.
  using prt::net::FrameStager;
  EXPECT_EQ(FrameStager::wire_size(0), 16u);
  EXPECT_EQ(FrameStager::wire_size(1), 24u);
  EXPECT_EQ(FrameStager::wire_size(8), 24u);
  EXPECT_EQ(FrameStager::wire_size(9), 32u);

  FrameStager stager(2 * 24);  // room for exactly two 8-byte frames
  Packet p = Packet::make(8);
  std::memset(p.bytes(), 0, 8);
  ASSERT_TRUE(stager.fits(8));
  stager.add(0, 0, p);
  ASSERT_TRUE(stager.fits(8));
  stager.add(1, 0, p);
  EXPECT_FALSE(stager.fits(8));  // full to the byte
  EXPECT_EQ(stager.bytes(), 48u);
}

// Byte-exact golden frame: the aggregate header is explicit little-endian
// (wire.hpp), not a memcpy of host integers, so a frame staged anywhere
// must produce exactly these bytes. Catches a regression to host-endian
// headers (which happened to pass the round-trip tests on x86).
TEST(FrameCodecTest, GoldenFrameBytesAreLittleEndian) {
  prt::net::FrameStager stager(256);
  Packet p = Packet::make(3);
  p.bytes()[0] = std::byte{0xAA};
  p.bytes()[1] = std::byte{0xBB};
  p.bytes()[2] = std::byte{0xCC};
  stager.add(/*tag=*/0x01020304, /*meta=*/-2, p);
  const Packet wire = stager.take();
  ASSERT_EQ(wire.size(), 24u);  // 16-byte header + 3 bytes padded to 8
  const unsigned char golden[19] = {
      0x04, 0x03, 0x02, 0x01,                          // tag, LE
      0xFE, 0xFF, 0xFF, 0xFF,                          // meta = -2, LE
      0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // payload length, LE
      0xAA, 0xBB, 0xCC,                                // payload
  };
  // Compare header + payload only; the pad bytes are uninitialized.
  EXPECT_EQ(std::memcmp(wire.bytes(), golden, sizeof(golden)), 0);
}

// A frame header whose size is within 16 of 2^64 once wrapped the
// cursor's bounds sum: next() returned true and the proxy went on to
// allocate that size. The size is now checked against the bytes left
// first, so the named assertion fires instead.
TEST(FrameCodecTest, HugeFrameSizeFailsTheBoundsCheck) {
  const std::uint64_t max = ~std::uint64_t{0};
  for (const std::uint64_t claimed : {max - 7, max}) {
    SCOPED_TRACE(claimed);
    Packet agg = Packet::make(64);
    std::memset(agg.bytes(), 0, agg.size());
    prt::net::wire::put_i32(agg.bytes(), /*tag=*/1);
    prt::net::wire::put_u64(agg.bytes() + 8, claimed);
    EXPECT_DEATH(
        {
          prt::net::FrameCursor cursor(agg);
          prt::net::WireFrame wf;
          (void)cursor.next(wf);
        },
        "FrameCursor: truncated frame payload");
  }
}

// The shared scalar codec the aggregate header and the socket frame
// header are built from.
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
