// Behavioural tests of the VSA execution engine: firing rules, counters,
// feeds, by-pass forwarding, dynamic channel enable/disable, multi-node
// execution through the proxy, schedulers, mappings, and failure modes.
#include <gtest/gtest.h>

#include <chrono>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

#include "prt/vsa.hpp"

namespace pulsarqr::prt {
namespace {

/// Shared result collector for tests.
struct Collector {
  std::mutex mu;
  std::vector<double> values;
  std::vector<int> metas;
  void add(double v, int meta) {
    std::lock_guard<std::mutex> lock(mu);
    values.push_back(v);
    metas.push_back(meta);
  }
};

Packet scalar_packet(double v, int meta = 0) {
  Packet p = Packet::make(sizeof(double), meta);
  p.doubles()[0] = v;
  return p;
}

Vsa::Config cfg(int nodes, int workers, Scheduling s = Scheduling::Lazy) {
  Vsa::Config c;
  c.nodes = nodes;
  c.workers_per_node = workers;
  c.scheduling = s;
  c.watchdog_seconds = 5.0;
  return c;
}

// A chain of VDPs, each adding 1 to every value that streams through.
// Exercises feeds, per-firing pops/pushes and the sink via globals.
void build_increment_chain(Vsa& vsa, int length, int packets) {
  for (int i = 0; i < length; ++i) {
    const bool last = i == length - 1;
    vsa.add_vdp(
        tuple2(0, i), packets,
        [last](VdpContext& ctx) {
          Packet p = ctx.pop(0);
          p.doubles()[0] += 1.0;
          if (last) {
            ctx.global<Collector>().add(p.doubles()[0], p.meta());
          } else {
            ctx.push(0, std::move(p));
          }
        },
        1, last ? 0 : 1);
  }
  std::vector<Packet> initial;
  for (int k = 0; k < packets; ++k) initial.push_back(scalar_packet(k, k));
  vsa.feed(tuple2(0, 0), 0, sizeof(double), std::move(initial));
  for (int i = 0; i + 1 < length; ++i) {
    vsa.connect(tuple2(0, i), 0, tuple2(0, i + 1), 0, sizeof(double));
  }
}

TEST(VsaPipeline, SingleNodeSingleWorker) {
  Vsa vsa(cfg(1, 1));
  auto collector = std::make_shared<Collector>();
  vsa.set_global(collector);
  build_increment_chain(vsa, 5, 8);
  auto stats = vsa.run();
  ASSERT_EQ(collector->values.size(), 8u);
  for (int k = 0; k < 8; ++k) {
    EXPECT_DOUBLE_EQ(collector->values[k], k + 5.0);  // order preserved: FIFO
    EXPECT_EQ(collector->metas[k], k);
  }
  EXPECT_EQ(stats.fires, 5 * 8);
  EXPECT_EQ(stats.leftover_packets, 0);
  EXPECT_EQ(stats.remote_messages, 0);
}

TEST(VsaPipeline, MultiWorker) {
  Vsa vsa(cfg(1, 4));
  auto collector = std::make_shared<Collector>();
  vsa.set_global(collector);
  build_increment_chain(vsa, 7, 16);
  auto stats = vsa.run();
  ASSERT_EQ(collector->values.size(), 16u);
  for (int k = 0; k < 16; ++k) EXPECT_DOUBLE_EQ(collector->values[k], k + 7.0);
  EXPECT_EQ(stats.fires, 7 * 16);
}

TEST(VsaPipeline, MultiNodeGoesThroughProxy) {
  Vsa vsa(cfg(3, 2));
  auto collector = std::make_shared<Collector>();
  vsa.set_global(collector);
  build_increment_chain(vsa, 6, 10);
  // Spread the chain across nodes explicitly: VDP i on thread i % 6.
  for (int i = 0; i < 6; ++i) vsa.map_vdp(tuple2(0, i), i);
  auto stats = vsa.run();
  ASSERT_EQ(collector->values.size(), 10u);
  for (int k = 0; k < 10; ++k) {
    EXPECT_DOUBLE_EQ(collector->values[k], k + 6.0);
    EXPECT_EQ(collector->metas[k], k);  // FIFO preserved across the proxy
  }
  // 5 of the 6 hops cross node boundaries (threads 0,1 on node 0, etc.):
  // hops 1->2, 3->4, 5->... : thread i -> i+1 crosses when i is odd.
  EXPECT_GT(stats.remote_messages, 0);
  EXPECT_EQ(stats.leftover_packets, 0);
}

TEST(VsaPipeline, AggressiveSchedulingSameResult) {
  Vsa vsa(cfg(1, 2, Scheduling::Aggressive));
  auto collector = std::make_shared<Collector>();
  vsa.set_global(collector);
  build_increment_chain(vsa, 4, 12);
  vsa.run();
  ASSERT_EQ(collector->values.size(), 12u);
  for (int k = 0; k < 12; ++k) EXPECT_DOUBLE_EQ(collector->values[k], k + 4.0);
}

TEST(Vsa, SourceVdpWithZeroInputsFiresCounterTimes) {
  Vsa vsa(cfg(1, 2));
  auto collector = std::make_shared<Collector>();
  vsa.set_global(collector);
  vsa.add_vdp(
      tuple2(1, 0), 5,
      [](VdpContext& ctx) {
        ctx.push(0, scalar_packet(ctx.counter()));  // 5,4,3,2,1
      },
      0, 1);
  vsa.add_vdp(
      tuple2(1, 1), 5,
      [](VdpContext& ctx) {
        ctx.global<Collector>().add(ctx.pop(0).doubles()[0], 0);
      },
      1, 0);
  vsa.connect(tuple2(1, 0), 0, tuple2(1, 1), 0, sizeof(double));
  auto stats = vsa.run();
  EXPECT_EQ(stats.fires, 10);
  ASSERT_EQ(collector->values.size(), 5u);
  EXPECT_DOUBLE_EQ(collector->values.front(), 5.0);
  EXPECT_DOUBLE_EQ(collector->values.back(), 1.0);
}

TEST(Vsa, LocalStatePersistsAcrossFirings) {
  Vsa vsa(cfg(1, 1));
  auto collector = std::make_shared<Collector>();
  vsa.set_global(collector);
  vsa.add_vdp(
      tuple2(2, 0), 4,
      [](VdpContext& ctx) {
        auto& sum = ctx.local<double>(0.0);
        sum += ctx.pop(0).doubles()[0];
        if (ctx.counter() == 1) ctx.global<Collector>().add(sum, 0);
      },
      1, 0);
  std::vector<Packet> init;
  for (double v : {1.0, 2.0, 3.0, 4.0}) init.push_back(scalar_packet(v));
  vsa.feed(tuple2(2, 0), 0, sizeof(double), std::move(init));
  vsa.run();
  ASSERT_EQ(collector->values.size(), 1u);
  EXPECT_DOUBLE_EQ(collector->values[0], 10.0);
}

// The by-pass pattern: a VDP forwards a packet before using it; the
// downstream consumer sees the same buffer (intra-node zero-copy).
TEST(Vsa, BypassForwardsBeforeProcessing) {
  Vsa vsa(cfg(1, 2));
  auto collector = std::make_shared<Collector>();
  vsa.set_global(collector);
  vsa.add_vdp(
      tuple2(3, 0), 1,
      [](VdpContext& ctx) {
        Packet p = ctx.pop(0);
        ctx.push(0, p);  // forward first (aliased)
        p.doubles()[0] *= 10.0;
        ctx.global<Collector>().add(p.doubles()[0], 1);
      },
      1, 1);
  vsa.add_vdp(
      tuple2(3, 1), 1,
      [](VdpContext& ctx) {
        // The downstream VDP fires once the packet arrives; with one worker
        // per VDP, this can run concurrently with the upstream mutation —
        // here we only check the buffer was shared at some point, so make
        // the upstream finish first by running on a single thread below.
        ctx.global<Collector>().add(ctx.pop(0).doubles()[0], 2);
      },
      1, 0);
  vsa.connect(tuple2(3, 0), 0, tuple2(3, 1), 0, sizeof(double));
  vsa.feed(tuple2(3, 0), 0, sizeof(double), [] {
    std::vector<Packet> v;
    v.push_back(scalar_packet(7.0));
    return v;
  }());
  vsa.map_vdp(tuple2(3, 0), 0);
  vsa.map_vdp(tuple2(3, 1), 0);  // same thread: upstream firing completes first
  vsa.run();
  ASSERT_EQ(collector->values.size(), 2u);
  EXPECT_DOUBLE_EQ(collector->values[0], 70.0);
  EXPECT_DOUBLE_EQ(collector->values[1], 70.0);  // saw the aliased mutation
}

// Dynamic channel control: a VDP with a disabled second input fires on the
// first alone; enabling the second mid-run gates the final firing. This is
// the paper's flat/binary overlap mechanism in miniature.
TEST(Vsa, EnableInputMidRun) {
  Vsa vsa(cfg(1, 2));
  auto collector = std::make_shared<Collector>();
  vsa.set_global(collector);
  // Producer pushes 3 packets on slot 0 path and 1 late packet on slot 1.
  vsa.add_vdp(
      tuple2(4, 0), 4,
      [](VdpContext& ctx) {
        (void)ctx.pop(0);
        if (ctx.counter() > 1) {
          ctx.push(0, scalar_packet(ctx.counter()));
        } else {
          ctx.push(1, scalar_packet(100.0));
        }
      },
      1, 2);
  vsa.add_vdp(
      tuple2(4, 1), 4,
      [](VdpContext& ctx) {
        auto& state = ctx.local<int>(0);
        if (state < 3) {
          Packet p = ctx.pop(0);
          ctx.global<Collector>().add(p.doubles()[0], 0);
          if (++state == 3) {
            // All solid-channel packets consumed: switch to the dashed one.
            ctx.disable_input(0);
            ctx.enable_input(1);
          }
        } else {
          ctx.global<Collector>().add(ctx.pop(1).doubles()[0], 1);
        }
      },
      2, 0);
  std::vector<Packet> ticks;
  for (int i = 0; i < 4; ++i) ticks.push_back(scalar_packet(0));
  vsa.feed(tuple2(4, 0), 0, sizeof(double), std::move(ticks));
  vsa.connect(tuple2(4, 0), 0, tuple2(4, 1), 0, sizeof(double));
  vsa.connect(tuple2(4, 0), 1, tuple2(4, 1), 1, sizeof(double),
              /*enabled=*/false);
  auto stats = vsa.run();
  ASSERT_EQ(collector->values.size(), 4u);
  EXPECT_DOUBLE_EQ(collector->values[3], 100.0);
  EXPECT_EQ(collector->metas[3], 1);
  EXPECT_EQ(stats.leftover_packets, 0);
}

// A VDP can destroy one of its input channels at runtime (the paper's
// channel-destroy option): queued and future packets on it are dropped
// and the slot leaves the firing rule.
TEST(Vsa, DestroyInputMidRun) {
  Vsa vsa(cfg(1, 2));
  auto collector = std::make_shared<Collector>();
  vsa.set_global(collector);
  // Producer sends on both outputs every firing; the consumer destroys
  // its second input after the first firing and keeps consuming slot 0.
  vsa.add_vdp(
      tuple2(10, 0), 3,
      [](VdpContext& ctx) {
        (void)ctx.pop(0);
        ctx.push(0, scalar_packet(1.0));
        ctx.push(1, scalar_packet(2.0));
      },
      1, 2);
  vsa.add_vdp(
      tuple2(10, 1), 3,
      [](VdpContext& ctx) {
        auto& fired = ctx.local<int>(0);
        double sum = ctx.pop(0).doubles()[0];
        if (fired == 0) {
          sum += ctx.pop(1).doubles()[0];
          ctx.destroy_input(1);
        }
        ++fired;
        ctx.global<Collector>().add(sum, fired);
      },
      2, 0);
  std::vector<Packet> ticks;
  for (int i = 0; i < 3; ++i) ticks.push_back(scalar_packet(0));
  vsa.feed(tuple2(10, 0), 0, sizeof(double), std::move(ticks));
  vsa.connect(tuple2(10, 0), 0, tuple2(10, 1), 0, sizeof(double));
  vsa.connect(tuple2(10, 0), 1, tuple2(10, 1), 1, sizeof(double));
  auto stats = vsa.run();
  ASSERT_EQ(collector->values.size(), 3u);
  EXPECT_DOUBLE_EQ(collector->values[0], 3.0);  // consumed both
  EXPECT_DOUBLE_EQ(collector->values[1], 1.0);  // slot 1 destroyed
  EXPECT_DOUBLE_EQ(collector->values[2], 1.0);
  // Packets pushed into the destroyed channel were dropped, not leaked.
  EXPECT_EQ(stats.leftover_packets, 0);
}

TEST(Vsa, WatchdogDetectsDeadlock) {
  Vsa::Config c = cfg(1, 1);
  c.watchdog_seconds = 0.3;
  // GraphCheck would flag the starvation statically; bypass it so the
  // runtime watchdog path itself stays covered.
  c.graph_check = false;
  Vsa vsa(c);
  // A VDP waiting on a channel that never receives anything.
  vsa.add_vdp(tuple2(5, 0), 1, [](VdpContext&) {}, 1, 0);
  vsa.feed(tuple2(5, 0), 0, 8, {});  // empty feed: never ready
  try {
    vsa.run();
    FAIL() << "expected watchdog error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("deadlock"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("(5,0)"), std::string::npos);
  }
}

// Regression: the watchdog used to measure progress by the *completed*
// fire count only, so one firing outliving watchdog_seconds aborted a
// healthy run (large-nb dgeqrt/dtsmqr). In-flight firings now count as
// progress via the per-worker heartbeat epoch.
TEST(Vsa, WatchdogToleratesOneLongFiring) {
  Vsa::Config c = cfg(1, 2);
  c.watchdog_seconds = 0.2;
  Vsa vsa(c);
  auto collector = std::make_shared<Collector>();
  vsa.set_global(collector);
  // A deliberately slow VDP: one firing sleeps for 3x the watchdog.
  vsa.add_vdp(tuple2(20, 0), 1,
              [](VdpContext& ctx) {
                std::this_thread::sleep_for(std::chrono::milliseconds(600));
                ctx.global<Collector>().add(1.0, 0);
              },
              0, 0);
  auto stats = vsa.run();  // must complete, not throw the watchdog error
  EXPECT_EQ(stats.fires, 1);
  EXPECT_EQ(collector->values.size(), 1u);
}

// The park-immediately wakeup path (spin_us = 0) stays exercised through
// the Config knob.
TEST(VsaPipeline, ImmediatePark) {
  Vsa::Config c = cfg(2, 2);
  c.spin_us = 0;
  Vsa vsa(c);
  auto collector = std::make_shared<Collector>();
  vsa.set_global(collector);
  build_increment_chain(vsa, 6, 12);
  auto stats = vsa.run();
  ASSERT_EQ(collector->values.size(), 12u);
  for (int k = 0; k < 12; ++k) {
    EXPECT_DOUBLE_EQ(collector->values[k], k + 6.0);
  }
  EXPECT_EQ(stats.fires, 6 * 12);
  EXPECT_EQ(stats.leftover_packets, 0);
}

TEST(Vsa, RejectsBadWiring) {
  {
    Vsa vsa(cfg(1, 1));
    vsa.add_vdp(tuple2(6, 0), 1, [](VdpContext&) {}, 1, 0);
    EXPECT_THROW(vsa.run(), Error);  // unconnected input
  }
  {
    Vsa vsa(cfg(1, 1));
    vsa.add_vdp(tuple2(6, 1), 1, [](VdpContext&) {}, 0, 1);
    EXPECT_THROW(vsa.run(), Error);  // unconnected output
  }
  {
    Vsa vsa(cfg(1, 1));
    vsa.add_vdp(tuple2(6, 2), 1, [](VdpContext&) {}, 0, 0);
    EXPECT_THROW(vsa.connect(tuple2(6, 2), 0, tuple2(9, 9), 0, 8);
                 vsa.run(), Error);  // unknown destination
  }
  {
    Vsa vsa(cfg(1, 1));
    vsa.add_vdp(tuple2(6, 3), 1, [](VdpContext&) {}, 0, 0);
    EXPECT_THROW(vsa.add_vdp(tuple2(6, 3), 1, [](VdpContext&) {}, 0, 0),
                 Error);  // duplicate tuple
  }
  {
    Vsa vsa(cfg(1, 2));
    vsa.add_vdp(tuple2(6, 4), 1, [](VdpContext&) {}, 0, 0);
    vsa.map_vdp(tuple2(6, 4), 99);  // out-of-range thread
    EXPECT_THROW(vsa.run(), Error);
  }
}

TEST(Vsa, DefaultMappingFunction) {
  Vsa vsa(cfg(1, 3));
  auto collector = std::make_shared<Collector>();
  vsa.set_global(collector);
  build_increment_chain(vsa, 6, 4);
  vsa.set_default_mapping([](const Tuple& t) { return t[1] % 3; });
  vsa.run();
  EXPECT_EQ(collector->values.size(), 4u);
}

TEST(Vsa, TraceRecordsFirings) {
  Vsa::Config c = cfg(1, 2);
  c.trace = true;
  Vsa vsa(c);
  auto collector = std::make_shared<Collector>();
  vsa.set_global(collector);
  build_increment_chain(vsa, 3, 5);
  vsa.run();
  const auto events = vsa.recorder().collect();
  EXPECT_EQ(events.size(), 15u);
  for (const auto& e : events) {
    EXPECT_GE(e.t1, e.t0);
    EXPECT_GE(e.thread, 0);
    EXPECT_LT(e.thread, 2);
  }
  const auto stats = trace::compute_stats(events, 2, 0);
  EXPECT_GT(stats.span, 0.0);
  EXPECT_GT(stats.busy, 0.0);
}

TEST(Vsa, CannotRunTwice) {
  Vsa vsa(cfg(1, 1));
  vsa.add_vdp(tuple2(7, 0), 1, [](VdpContext&) {}, 0, 0);
  vsa.run();
  EXPECT_THROW(vsa.run(), Error);
}

// Stress: a diamond join — two producer streams merging into one consumer
// that requires a packet on both inputs per firing (the canonical
// "fire when all active inputs are nonempty" rule).
TEST(Vsa, JoinFiringRule) {
  for (int nodes : {1, 2}) {
    Vsa vsa(cfg(nodes, 2));
    auto collector = std::make_shared<Collector>();
    vsa.set_global(collector);
    const int n = 20;
    for (int side = 0; side < 2; ++side) {
      vsa.add_vdp(
          tuple2(8, side), n,
          [side](VdpContext& ctx) {
            ctx.push(0, scalar_packet(side == 0 ? ctx.counter() : 1000.0));
          },
          0, 1);
    }
    vsa.add_vdp(
        tuple2(8, 2), n,
        [](VdpContext& ctx) {
          const double a = ctx.pop(0).doubles()[0];
          const double b = ctx.pop(1).doubles()[0];
          ctx.global<Collector>().add(a + b, 0);
        },
        2, 0);
    vsa.connect(tuple2(8, 0), 0, tuple2(8, 2), 0, sizeof(double));
    vsa.connect(tuple2(8, 1), 0, tuple2(8, 2), 1, sizeof(double));
    auto stats = vsa.run();
    ASSERT_EQ(collector->values.size(), static_cast<std::size_t>(n));
    double sum = std::accumulate(collector->values.begin(),
                                 collector->values.end(), 0.0);
    // sum of (counter + 1000) = sum(1..n) + 1000n
    EXPECT_DOUBLE_EQ(sum, n * (n + 1) / 2.0 + 1000.0 * n);
    EXPECT_EQ(stats.leftover_packets, 0);
  }
}

}  // namespace
}  // namespace pulsarqr::prt
