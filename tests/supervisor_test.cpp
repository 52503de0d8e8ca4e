// The parent side of the socket control plane (prt/supervisor.hpp), driven
// with synthetic control bytes, EOFs and a fake clock: no process is
// forked. Covers every transition (the 'G' gate, the 'C' broadcast, the
// merged failure report, respawn and its budget, frame reassembly, the
// one dead-child path, the silence budget) and a seeded mutation fuzz of
// the 'E' and 'F' decoders.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <new>
#include <random>
#include <string>
#include <vector>

#include "prt/supervisor.hpp"
#include "prt/wire.hpp"

namespace {

// The largest single allocation since the last reset: the fuzz checks
// that no hostile length sizes one.
std::atomic<std::size_t> g_max_alloc{0};

}  // namespace

// The replacements pair malloc with free; GCC cannot see that through a
// replaced operator new.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t n) {
  std::size_t m = g_max_alloc.load(std::memory_order_relaxed);
  while (n > m && !g_max_alloc.compare_exchange_weak(m, n)) {
  }
  if (void* p = std::malloc(n > 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace pulsarqr::prt {
namespace {

using namespace std::chrono_literals;
using Clock = Supervisor::Clock;
using Bytes = std::vector<std::byte>;

const Clock::time_point T0{};

Vsa::Config config(int nodes, int max_respawns, double hb_timeout = 10.0,
                   double watchdog = 60.0) {
  Vsa::Config cfg;
  cfg.nodes = nodes;
  cfg.workers_per_node = 2;
  cfg.max_respawns = max_respawns;
  cfg.heartbeat_timeout_seconds = hb_timeout;
  cfg.watchdog_seconds = watchdog;
  return cfg;
}

/// What the parent knows of a rank that died without a report.
Vsa::RunReport dead_report(int rank) {
  Vsa::RunReport r;
  r.stuck_vdps.push_back("VDP of rank " + std::to_string(rank));
  return r;
}

Supervisor make(const Vsa::Config& cfg) {
  return Supervisor(cfg, dead_report, T0);
}

/// The queued actions as text: "G0" sends 'G' to rank 0, "K1" kills rank
/// 1, "S1" respawns it.
std::string acts(Supervisor& s) {
  std::string out;
  for (const Supervisor::Action& a : s.take_actions()) {
    if (!out.empty()) out += ' ';
    out += a.kind == Supervisor::Action::Send   ? a.byte
           : a.kind == Supervisor::Action::Kill ? 'K'
                                                : 'S';
    out += std::to_string(a.rank);
  }
  return out;
}

void send(Supervisor& s, int rank, const Bytes& b,
          Clock::time_point now = T0) {
  s.on_recv(rank, b.data(), b.size(), now);
}

void send(Supervisor& s, int rank, char c, Clock::time_point now = T0) {
  send(s, rank, Bytes{static_cast<std::byte>(c)}, now);
}

void eof(Supervisor& s, int rank, Clock::time_point now = T0) {
  s.on_recv(rank, nullptr, 0, now);
}

/// An 'E' or 'F' control frame around `body`.
Bytes frame(char type, const net::wire::Blob& body) {
  Bytes f(9 + body.size());
  f[0] = static_cast<std::byte>(type);
  net::wire::put_u64(f.data() + 1, body.size());
  if (body.size() > 0) std::memcpy(f.data() + 9, body.data(), body.size());
  return f;
}

/// A node's stats for `cfg`'s topology, every counter set.
Vsa::RunStats node_stats(const Vsa::Config& cfg, long long fires) {
  Vsa::RunStats s;
  s.seconds = 0.5;
  s.fires = fires;
  s.remote_bytes = 4096;
  s.busy_per_thread.assign(cfg.nodes * cfg.workers_per_node, 0.25);
  s.proxy_busy_per_node.assign(cfg.nodes, 0.125);
  s.sys_seconds_per_node.assign(cfg.nodes, 0.0625);
  s.minor_faults_per_node.assign(cfg.nodes, 1000 + fires);
  return s;
}

Bytes epilogue_frame(const Vsa::Config& cfg, long long fires) {
  std::vector<trace::Event> events;
  for (int k = 0; k < 3; ++k) {
    std::vector<int> t(static_cast<std::size_t>(k + 1), k);
    events.push_back({k, k % 3, Tuple(std::move(t)), 0.1 * k, 0.1 * k + 0.05});
  }
  net::wire::Blob b;
  encode_epilogue(b, node_stats(cfg, fires), events);
  return frame('E', b);
}

Vsa::RunReport report(const std::string& reason, std::vector<int> dead,
                      int link_src) {
  Vsa::RunReport r;
  r.reason = reason;
  r.stuck_vdps = {"VDP (0, 1) counter=2", "VDP (0, 2) counter=1"};
  r.vdps_alive = 2;
  net::LinkGap g;
  g.src = link_src;
  g.dst = 1;
  g.next_seq = 9;
  g.acked = 4;
  g.unacked = 5;
  g.exhausted = true;
  g.pending_tags = {3, 4, 5};
  r.links.push_back(g);
  r.faults.dropped = 7;
  r.retransmits = 11;
  r.dead_ranks = std::move(dead);
  return r;
}

Bytes report_frame(const Vsa::RunReport& r) {
  net::wire::Blob b;
  encode_report(b, r);
  return frame('F', b);
}

// ---- the 'G' gate -----------------------------------------------------------

TEST(Supervisor, GoGoesOutOnceAndOnlyAfterEveryLiveChildIsDone) {
  const Vsa::Config cfg = config(3, 0);
  Supervisor s = make(cfg);
  send(s, 0, 'D');
  send(s, 1, 'H');
  send(s, 1, 'D');
  EXPECT_EQ(acts(s), "");
  send(s, 2, 'D');
  EXPECT_EQ(acts(s), "G0 G1 G2");
  send(s, 2, 'D');
  send(s, 0, 'H');
  s.on_tick(T0 + 1s);
  EXPECT_EQ(acts(s), "");
  for (int r = 0; r < 3; ++r) {
    EXPECT_FALSE(s.finished());
    send(s, r, epilogue_frame(cfg, 10 + r));
  }
  EXPECT_TRUE(s.finished());
  EXPECT_FALSE(s.failure().has_value());
  EXPECT_EQ(acts(s), "");
  EXPECT_EQ(s.stats().fires, 33);
  EXPECT_EQ(s.stats().remote_bytes, 3 * 4096);
  EXPECT_DOUBLE_EQ(s.stats().seconds, 0.5);
  EXPECT_DOUBLE_EQ(s.stats().busy_per_thread[5], 0.75);
  EXPECT_DOUBLE_EQ(s.stats().sys_seconds_per_node[1], 3 * 0.0625);
  EXPECT_EQ(s.stats().minor_faults_per_node[2], 3 * 1000 + 33);
  ASSERT_EQ(s.events(2).size(), 3u);
  EXPECT_EQ(s.events(2)[2].tuple.size(), 3u);
  EXPECT_DOUBLE_EQ(s.events(2)[1].t0, 0.1);
}

// ---- failure: 'C' and the merged report -------------------------------------

TEST(Supervisor, CancelGoesOutOnceOnTheFirstFailureToRunningAndDoneChildren) {
  Supervisor s = make(config(4, 0));
  send(s, 0, 'D');
  send(s, 3, report_frame(report("transport", {}, 3)));
  EXPECT_EQ(acts(s), "C0 C1 C2");
  EXPECT_FALSE(s.live(3));
  send(s, 1, report_frame(report("transport", {}, 1)));
  eof(s, 2);
  EXPECT_EQ(acts(s), "K2");
  send(s, 0, report_frame(report("transport", {}, 0)));
  EXPECT_EQ(acts(s), "");
  EXPECT_TRUE(s.finished());
}

TEST(Supervisor, LaterReportsAddTheirLinksAndDeadRanksToTheFirst) {
  Supervisor s = make(config(3, 0));
  send(s, 2, report_frame(report("transport", {}, 2)));
  eof(s, 1);  // dead past its (zero) budget: reports rank 1 dead
  send(s, 0, report_frame(report("watchdog", {1, 5}, 0)));
  ASSERT_TRUE(s.failure().has_value());
  const Vsa::RunReport& f = *s.failure();
  EXPECT_EQ(f.reason, "transport");  // the first report leads
  EXPECT_EQ(f.stuck_vdps.size(), 2u);
  ASSERT_EQ(f.links.size(), 2u);
  EXPECT_EQ(f.links[0].src, 2);
  EXPECT_EQ(f.links[1].src, 0);
  EXPECT_EQ(f.links[1].pending_tags, (std::vector<int>{3, 4, 5}));
  EXPECT_EQ(f.dead_ranks, (std::vector<int>{1, 5}));
  EXPECT_EQ(f.faults.dropped, 7);
  EXPECT_EQ(f.retransmits, 11);
}

TEST(Supervisor, AVdpReportFailsTheRunWithoutARespawn) {
  // A node whose VDP body threw reports it; a replacement would replay
  // into the same throw, so the budget is left unspent.
  Supervisor s = make(config(2, 2));
  Vsa::RunReport r = report("vdp", {}, 1);
  r.failed_vdp = Tuple{0, 3};
  r.vdp_error = "potf2: matrix is not positive definite";
  r.leftover_packets = 2;
  send(s, 1, report_frame(r));
  EXPECT_EQ(acts(s), "C0");
  Vsa::RunReport cancelled = report("watchdog", {}, 0);
  cancelled.leftover_packets = 1;
  send(s, 0, report_frame(cancelled));
  EXPECT_TRUE(s.finished());
  EXPECT_EQ(s.respawns(), 0);
  ASSERT_TRUE(s.failure().has_value());
  const Vsa::RunReport& f = *s.failure();
  EXPECT_EQ(f.reason, "vdp");
  EXPECT_EQ(f.failed_vdp, (Tuple{0, 3}));
  EXPECT_EQ(f.vdp_error, "potf2: matrix is not positive definite");
  EXPECT_EQ(f.leftover_packets, 3);  // both nodes' queues
  EXPECT_TRUE(f.dead_ranks.empty());
}

TEST(Supervisor, ADeathPastTheBudgetFailsWithTheDeadRanksReport) {
  Supervisor s = make(config(2, 0));
  eof(s, 1);
  EXPECT_EQ(acts(s), "K1 C0");
  ASSERT_TRUE(s.failure().has_value());
  EXPECT_EQ(s.failure()->reason, "process");
  EXPECT_EQ(s.failure()->dead_ranks, (std::vector<int>{1}));
  EXPECT_EQ(s.failure()->stuck_vdps,
            (std::vector<std::string>{"VDP of rank 1"}));
}

// ---- respawn ------------------------------------------------------------------

TEST(Supervisor, RespawnsWhileTheBudgetLastsThenFails) {
  Supervisor s = make(config(2, 2));
  eof(s, 1);
  EXPECT_EQ(acts(s), "K1 S1");
  send(s, 0, 'X');  // a protocol violation takes the same path
  EXPECT_EQ(acts(s), "K0 S0");
  EXPECT_EQ(s.respawns(), 2);
  EXPECT_FALSE(s.failure().has_value());
  s.on_tick(T0 + 11s);  // both replacements silent past the budget
  EXPECT_EQ(acts(s), "K0 K1");
  EXPECT_EQ(s.failure()->dead_ranks, (std::vector<int>{0, 1}));
  EXPECT_EQ(s.incarnations(), (std::vector<std::uint32_t>{1, 1}));
  EXPECT_TRUE(s.finished());
}

TEST(Supervisor, NoRespawnOnceGoIsOut) {
  Supervisor s = make(config(2, 5));
  send(s, 0, 'D');
  send(s, 1, 'D');
  EXPECT_EQ(acts(s), "G0 G1");
  eof(s, 0);
  EXPECT_EQ(acts(s), "K0 C1");
  EXPECT_EQ(s.respawns(), 0);
  EXPECT_EQ(s.failure()->dead_ranks, (std::vector<int>{0}));
}

TEST(Supervisor, ARespawnBumpsTheIncarnationAndRegatesGo) {
  Supervisor s = make(config(2, 1));
  send(s, 1, 'D');
  send(s, 1, Bytes{std::byte{'E'}, std::byte{0}});  // a frame half sent
  eof(s, 1);
  EXPECT_EQ(acts(s), "K1 S1");
  EXPECT_EQ(s.incarnations(), (std::vector<std::uint32_t>{0, 1}));
  send(s, 0, 'D');
  EXPECT_EQ(acts(s), "");  // the replacement has to finish its node again
  send(s, 1, 'D');  // its buffer started empty: no stale half frame
  EXPECT_EQ(acts(s), "G0 G1");
}

// ---- framing ------------------------------------------------------------------

TEST(Supervisor, FramesDeliveredOneByteAtATimeReassemble) {
  const Vsa::Config cfg = config(2, 0);
  Supervisor s = make(cfg);
  send(s, 0, 'D');
  send(s, 1, 'D');
  EXPECT_EQ(acts(s), "G0 G1");
  const Bytes e = epilogue_frame(cfg, 3);
  for (std::size_t i = 0; i < e.size(); ++i) {
    EXPECT_TRUE(s.live(0));
    send(s, 0, Bytes{e[i]}, T0 + 1ms * static_cast<int>(i));
  }
  EXPECT_FALSE(s.live(0));
  EXPECT_EQ(s.stats().fires, 3);
  EXPECT_EQ(s.events(0).size(), 3u);
  const Bytes f = report_frame(report("transport", {}, 1));
  for (std::size_t i = 0; i < f.size(); ++i) {
    EXPECT_FALSE(s.failure().has_value());
    send(s, 1, Bytes{f[i]});
  }
  ASSERT_TRUE(s.failure().has_value());
  EXPECT_EQ(s.failure()->links[0].pending_tags, (std::vector<int>{3, 4, 5}));
  EXPECT_TRUE(s.finished());
  EXPECT_EQ(acts(s), "");  // no live child left to cancel
}

TEST(Supervisor, SeveralFramesInOneReadAreAllTaken) {
  const Vsa::Config cfg = config(1, 0);
  Supervisor s = make(cfg);
  Bytes b{std::byte{'H'}, std::byte{'D'}, std::byte{'H'}};
  const Bytes e = epilogue_frame(cfg, 1);
  b.insert(b.end(), e.begin(), e.end());
  b.push_back(std::byte{'X'});  // after the epilogue: never read
  send(s, 0, b);
  EXPECT_EQ(acts(s), "G0");
  EXPECT_TRUE(s.finished());
  EXPECT_FALSE(s.failure().has_value());
}

TEST(Supervisor, AProtocolViolatingByteKillsItsChild) {
  Supervisor s = make(config(2, 0));
  send(s, 0, Bytes{std::byte{'H'}, std::byte{'G'}});  // 'G' is parent -> child
  EXPECT_EQ(acts(s), "K0 C1");
  EXPECT_EQ(s.failure()->dead_ranks, (std::vector<int>{0}));
  send(s, 0, 'D');  // a dead rank's bytes are ignored
  EXPECT_EQ(acts(s), "");
}

TEST(Supervisor, AMalformedBodyKillsItsChild) {
  const Vsa::Config cfg = config(2, 0);
  Supervisor s = make(cfg);
  send(s, 0, 'D');
  send(s, 1, 'D');
  acts(s);
  // Stats for the wrong topology: merge_run_stats rejects them.
  net::wire::Blob b;
  encode_epilogue(b, node_stats(config(3, 0), 1), {});
  send(s, 1, frame('E', b));
  EXPECT_EQ(acts(s), "K1 C0");
  EXPECT_EQ(s.stats().fires, 0);  // nothing of it merged
  EXPECT_EQ(s.failure()->dead_ranks, (std::vector<int>{1}));
}

TEST(Supervisor, TrailingBytesInABodyKillItsChild) {
  const Vsa::Config cfg = config(2, 0);
  Supervisor s = make(cfg);
  net::wire::Blob e;
  encode_epilogue(e, node_stats(cfg, 1), {});
  e.u32(0);
  send(s, 0, frame('E', e));
  net::wire::Blob f;
  encode_report(f, report("transport", {}, 1));
  f.u32(0);
  send(s, 1, frame('F', f));
  EXPECT_EQ(acts(s), "K0 C1 K1");
  EXPECT_EQ(s.stats().fires, 0);
  EXPECT_EQ(s.failure()->reason, "process");
  EXPECT_EQ(s.failure()->dead_ranks, (std::vector<int>{0, 1}));
}

// ---- silence ------------------------------------------------------------------

TEST(Supervisor, AHeartbeatingChildIsNeverKilledAndASilentOneIs) {
  // Heartbeat timeout off, watchdog 60 s: the budget is 180 s of silence.
  // An absolute deadline at fork + 180 s would kill child 0 mid-run.
  Supervisor s = make(config(2, 1, /*hb_timeout=*/0.0, /*watchdog=*/60.0));
  for (int t = 1; t <= 600; ++t) {
    const Clock::time_point now = T0 + 1s * t;
    send(s, 0, 'H', now);
    if (t <= 300) send(s, 1, 'H', now);
    s.on_tick(now);
    if (t == 481) {
      EXPECT_EQ(acts(s), "K1 S1");  // silent since t=300
    } else {
      ASSERT_EQ(acts(s), "") << "t=" << t;
    }
  }
  EXPECT_TRUE(s.live(0));
  EXPECT_TRUE(s.live(1));
  EXPECT_EQ(s.incarnations()[1], 1u);
}

TEST(Supervisor, HeartbeatTimeoutIsTheBudgetWhenSet) {
  Supervisor s = make(config(2, 0, /*hb_timeout=*/10.0));
  send(s, 0, 'H', T0 + 5s);
  s.on_tick(T0 + 10s);
  EXPECT_EQ(acts(s), "");
  s.on_tick(T0 + 10s + 1ms);  // rank 1 never spoke
  EXPECT_EQ(acts(s), "K1 C0");
  s.on_tick(T0 + 15s + 1ms);
  EXPECT_EQ(acts(s), "K0");
}

TEST(Supervisor, NoBudgetMeansSilenceNeverKills) {
  Supervisor s = make(config(1, 0, /*hb_timeout=*/0.0, /*watchdog=*/0.0));
  s.on_tick(T0 + 24h);
  EXPECT_EQ(acts(s), "");
  EXPECT_TRUE(s.live(0));
  // A budget far past the clock's range is simply never reached.
  Supervisor huge = make(config(1, 0, /*hb_timeout=*/1e300));
  huge.on_tick(T0 + 24h);
  EXPECT_EQ(acts(huge), "");
}

TEST(Supervisor, OnlyWholeFramesRefreshTheSilenceDeadline) {
  const Vsa::Config cfg = config(1, 0, /*hb_timeout=*/10.0);
  Supervisor s = make(cfg);
  const Bytes e = epilogue_frame(cfg, 1);
  send(s, 0, 'H', T0 + 1s);
  // A frame trickling in keeps the child on its last whole frame's clock.
  send(s, 0, Bytes(e.begin(), e.begin() + 20), T0 + 2s);
  send(s, 0, Bytes(e.begin() + 20, e.begin() + 40), T0 + 10s);
  s.on_tick(T0 + 11s);
  EXPECT_EQ(acts(s), "");
  s.on_tick(T0 + 11s + 1ms);
  EXPECT_EQ(acts(s), "K0");
  EXPECT_EQ(s.failure()->dead_ranks, (std::vector<int>{0}));
}

// ---- seeded mutation fuzz of the 'E' and 'F' decoders ---------------------

enum class Outcome { Accepted, Dead };

/// Feed a fresh one-node supervisor's child `bytes` after its 'D', then
/// its EOF. It must end either accepted (its 'E' merged, or its 'F' the
/// failure) or dead with a structured failure naming it, without a throw
/// and without an allocation sized by a length the bytes claim.
Outcome feed(const Vsa::Config& cfg, const Bytes& bytes) {
  Supervisor s = make(cfg);
  send(s, 0, 'D');
  EXPECT_EQ(acts(s), "G0");
  g_max_alloc = 0;
  EXPECT_NO_THROW(send(s, 0, bytes));
  EXPECT_NO_THROW(eof(s, 0));
  EXPECT_LE(g_max_alloc.load(), std::size_t{1} << 20);
  EXPECT_TRUE(s.finished());
  const bool dead = s.failure().has_value() &&
                    std::count(s.failure()->dead_ranks.begin(),
                               s.failure()->dead_ranks.end(), 0) > 0 &&
                    s.failure()->reason == "process";
  return dead ? Outcome::Dead : Outcome::Accepted;
}

class ControlFuzz : public ::testing::TestWithParam<char> {
 protected:
  const Vsa::Config cfg = config(1, 0);
  Bytes valid() const {
    return GetParam() == 'E' ? epilogue_frame(cfg, 5)
                             : report_frame(report("transport", {}, 0));
  }
};

TEST_P(ControlFuzz, TheValidFrameIsAccepted) {
  EXPECT_EQ(feed(cfg, valid()), Outcome::Accepted);
}

TEST_P(ControlFuzz, EveryTruncationFailsTheChild) {
  const Bytes f = valid();
  for (std::size_t cut = 0; cut < f.size(); ++cut) {
    SCOPED_TRACE("cut at " + std::to_string(cut));
    EXPECT_EQ(feed(cfg, Bytes(f.begin(), f.begin() + cut)), Outcome::Dead);
  }
}

TEST_P(ControlFuzz, InflatedLengthsNeverSizeAnAllocation) {
  // Every offset, overwritten by a u32 and a u64 far past the frame: each
  // hits a count, a length or a value, and must end accepted or dead.
  const Bytes f = valid();
  int dead = 0;
  for (std::size_t at = 1; at + 8 <= f.size(); ++at) {
    for (const std::uint64_t v :
         {std::uint64_t{0xffffffffu}, ~std::uint64_t{0}, std::uint64_t{1} << 40}) {
      Bytes m = f;
      if (v <= 0xffffffffu) {
        net::wire::put_u32(m.data() + at, static_cast<std::uint32_t>(v));
      } else {
        net::wire::put_u64(m.data() + at, v);
      }
      SCOPED_TRACE("offset " + std::to_string(at));
      dead += feed(cfg, m) == Outcome::Dead;
    }
  }
  EXPECT_GT(dead, 0);
  // The outer length itself: the frame never completes.
  Bytes m = f;
  net::wire::put_u64(m.data() + 1, f.size());
  EXPECT_EQ(feed(cfg, m), Outcome::Dead);
}

TEST_P(ControlFuzz, SeededBitFlipsEndAcceptedOrDead) {
  std::mt19937_64 rng(0x5eed0000u + static_cast<unsigned>(GetParam()));
  const Bytes f = valid();
  int dead = 0;
  for (int round = 0; round < 2000; ++round) {
    Bytes m = f;
    const int flips = 1 + static_cast<int>(rng() % 4);
    for (int k = 0; k < flips; ++k) {
      const std::size_t bit = rng() % (8 * m.size());
      m[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
    }
    SCOPED_TRACE("round " + std::to_string(round));
    dead += feed(cfg, m) == Outcome::Dead;
  }
  EXPECT_GT(dead, 0);
}

INSTANTIATE_TEST_SUITE_P(Frames, ControlFuzz, ::testing::Values('E', 'F'),
                         [](const ::testing::TestParamInfo<char>& i) {
                           return std::string(1, i.param);
                         });

}  // namespace
}  // namespace pulsarqr::prt
