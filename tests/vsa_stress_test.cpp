// Randomized stress tests of the VSA engine: layered random dataflow
// graphs with token-conservation invariants, across node counts, worker
// counts, schedulers and both idle-worker wakeup paths. Any lost or
// duplicated packet, missed wakeup or premature VDP death shows up as a
// count mismatch or a watchdog timeout.
#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "common/rng.hpp"
#include "prt/vsa.hpp"

namespace pulsarqr::prt {
namespace {

struct Counters {
  std::atomic<long long> tokens{0};
  std::atomic<long long> checksum{0};
};

struct StressCase {
  std::uint64_t seed;
  int nodes;
  int workers;
  Scheduling sched;
  bool park = false;  ///< spin_us = 0: an idle worker parks at once
};

class StressParam : public ::testing::TestWithParam<StressCase> {};

// Build a random layered graph. Every VDP forwards each received packet
// to ALL of its children (one output channel per edge); every VDP in
// layer i > 0 has 1 or 2 parents and fires once per "wave". With T waves
// fed at the sources, every VDP fires exactly T times and every sink
// token count is exactly T.
TEST_P(StressParam, TokenConservation) {
  const StressCase& c = GetParam();
  Rng rng(c.seed);
  const int layers = 3 + static_cast<int>(rng.next_u64() % 4);
  const int width = 2 + static_cast<int>(rng.next_u64() % 5);
  const int waves = 5 + static_cast<int>(rng.next_u64() % 40);

  Vsa::Config cfg;
  cfg.nodes = c.nodes;
  cfg.workers_per_node = c.workers;
  cfg.scheduling = c.sched;
  // Pinned rather than automatic, so both wakeup paths run whatever the
  // host's core count: a bounded spin on the epoch, or an immediate park.
  cfg.spin_us = c.park ? 0 : 50;
  cfg.watchdog_seconds = 10.0;
  Vsa vsa(cfg);
  auto counters = std::make_shared<Counters>();
  vsa.set_global(counters);

  // Topology: edges[l][w] = list of parents (by index in layer l-1).
  std::vector<std::vector<std::vector<int>>> parents(layers);
  // children counts to size output slots.
  std::vector<std::vector<int>> nchildren(layers, std::vector<int>(width, 0));
  for (int l = 1; l < layers; ++l) {
    parents[l].resize(width);
    for (int w = 0; w < width; ++w) {
      const int np = 1 + static_cast<int>(rng.next_u64() % 2);
      for (int p = 0; p < np; ++p) {
        const int parent = static_cast<int>(rng.next_u64() % width);
        // Avoid duplicate parent edges (two channels from the same VDP
        // to the same consumer are fine, but keep counters simple).
        if (p == 1 && parents[l][w][0] == parent) continue;
        parents[l][w].push_back(parent);
        ++nchildren[l - 1][parent];
      }
    }
  }

  // Create VDPs.
  for (int l = 0; l < layers; ++l) {
    for (int w = 0; w < width; ++w) {
      const int nin = l == 0 ? 1 : static_cast<int>(parents[l][w].size());
      const int nout = l == layers - 1 ? 0 : nchildren[l][w];
      const bool sink = l == layers - 1;
      vsa.add_vdp(
          tuple2(l, w), waves,
          [nin, nout, sink](VdpContext& ctx) {
            double sum = 0.0;
            for (int s = 0; s < nin; ++s) {
              sum += ctx.pop(s).doubles()[0];
            }
            if (sink) {
              auto& cts = ctx.global<Counters>();
              cts.tokens.fetch_add(1);
              cts.checksum.fetch_add(static_cast<long long>(sum));
            } else {
              for (int s = 0; s < nout; ++s) {
                Packet p = Packet::make(sizeof(double));
                p.doubles()[0] = 1.0;
                ctx.push(s, p);
              }
            }
          },
          nin, nout);
    }
  }

  // Connect edges; track the next free slot per endpoint.
  std::vector<std::vector<int>> next_out(layers, std::vector<int>(width, 0));
  std::vector<std::vector<int>> next_in(layers, std::vector<int>(width, 0));
  for (int l = 1; l < layers; ++l) {
    for (int w = 0; w < width; ++w) {
      for (int parent : parents[l][w]) {
        vsa.connect(tuple2(l - 1, parent), next_out[l - 1][parent]++,
                    tuple2(l, w), next_in[l][w]++, sizeof(double));
      }
    }
  }
  // Feed the sources.
  for (int w = 0; w < width; ++w) {
    std::vector<Packet> init;
    for (int t = 0; t < waves; ++t) {
      Packet p = Packet::make(sizeof(double));
      p.doubles()[0] = 1.0;
      init.push_back(std::move(p));
    }
    vsa.feed(tuple2(0, w), 0, sizeof(double), std::move(init));
  }

  auto stats = vsa.run();
  EXPECT_EQ(stats.fires, static_cast<long long>(layers) * width * waves);
  EXPECT_EQ(stats.leftover_packets, 0);
  EXPECT_EQ(counters->tokens.load(),
            static_cast<long long>(width) * waves);
}

std::vector<StressCase> stress_cases() {
  std::vector<StressCase> cases;
  std::uint64_t seed = 1;
  for (int nodes : {1, 3}) {
    for (int workers : {1, 2, 4}) {
      for (auto sched : {Scheduling::Lazy, Scheduling::Aggressive}) {
        for (bool park : {false, true}) {
          for (int rep = 0; rep < 3; ++rep) {
            cases.push_back({seed++, nodes, workers, sched, park});
          }
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Random, StressParam,
                         ::testing::ValuesIn(stress_cases()));

// A long chain across many virtual nodes: every hop crosses the proxy.
TEST(VsaStress, DeepCrossNodeChain) {
  Vsa::Config cfg;
  cfg.nodes = 8;
  cfg.workers_per_node = 1;
  cfg.watchdog_seconds = 20.0;
  Vsa vsa(cfg);
  auto counters = std::make_shared<Counters>();
  vsa.set_global(counters);
  const int length = 64;
  const int waves = 32;
  for (int i = 0; i < length; ++i) {
    const bool last = i == length - 1;
    vsa.add_vdp(
        tuple2(9, i), waves,
        [last](VdpContext& ctx) {
          Packet p = ctx.pop(0);
          p.doubles()[0] += 1.0;
          if (last) {
            auto& cts = ctx.global<Counters>();
            cts.tokens.fetch_add(1);
            cts.checksum.fetch_add(
                static_cast<long long>(p.doubles()[0]));
          } else {
            ctx.push(0, std::move(p));
          }
        },
        1, last ? 0 : 1);
    vsa.map_vdp(tuple2(9, i), i % 8);  // consecutive hops on distinct nodes
  }
  std::vector<Packet> init;
  for (int t = 0; t < waves; ++t) {
    Packet p = Packet::make(sizeof(double));
    p.doubles()[0] = 0.0;
    init.push_back(std::move(p));
  }
  vsa.feed(tuple2(9, 0), 0, sizeof(double), std::move(init));
  for (int i = 0; i + 1 < length; ++i) {
    vsa.connect(tuple2(9, i), 0, tuple2(9, i + 1), 0, sizeof(double));
  }
  auto stats = vsa.run();
  EXPECT_EQ(counters->tokens.load(), waves);
  EXPECT_EQ(counters->checksum.load(), static_cast<long long>(waves) * length);
  EXPECT_GE(stats.remote_messages, static_cast<long long>(waves) * (length - 8));
}

// Strict FIFO through a single channel under the real schedulers. Every
// VSA channel runs in the SPSC regime (GraphCheck proves one producer
// per input slot), so sequence numbers must arrive in exact order
// whether the producer is a worker thread (same node) or the node proxy
// (cross-node), for both scheduling modes. This runs in the TSan CI leg,
// which additionally checks the memory-ordering claims of the lock-free
// fast path.
struct FifoProbe {
  std::atomic<long long> received{0};
  std::atomic<long long> misordered{0};
};

TEST(VsaStress, SpscStrictFifoAcrossSchedulers) {
  const int packets = 2000;
  for (int nodes : {1, 2}) {
    for (auto sched : {Scheduling::Lazy, Scheduling::Aggressive}) {
      Vsa::Config cfg;
      cfg.nodes = nodes;
      cfg.workers_per_node = 2;
      cfg.scheduling = sched;
      cfg.watchdog_seconds = 20.0;
      // Cover both wakeup paths regardless of the host's core count:
      // bounded spin on the epoch, and immediate park.
      cfg.spin_us = nodes == 1 ? 50 : 0;
      Vsa vsa(cfg);
      auto probe = std::make_shared<FifoProbe>();
      vsa.set_global(probe);
      // Successive firings of one VDP are serialized by the runtime,
      // so plain shared counters are safe on each side.
      auto seq = std::make_shared<int>(0);
      auto expect = std::make_shared<int>(0);
      vsa.add_vdp(
          tuple2(20, 0), packets,
          [seq](VdpContext& ctx) {
            (void)ctx.pop(0);
            ctx.push(0, Packet::make(8, (*seq)++));
          },
          1, 1);
      vsa.add_vdp(
          tuple2(20, 1), packets,
          [expect](VdpContext& ctx) {
            const Packet p = ctx.pop(0);
            auto& pr = ctx.global<FifoProbe>();
            pr.received.fetch_add(1);
            if (p.meta() != (*expect)++) pr.misordered.fetch_add(1);
          },
          1, 0);
      if (nodes == 2) {
        vsa.map_vdp(tuple2(20, 0), 0);
        // Thread workers_per_node is node 1's first worker: the channel
        // is fed by node 1's proxy.
        vsa.map_vdp(tuple2(20, 1), cfg.workers_per_node);
      }
      vsa.connect(tuple2(20, 0), 0, tuple2(20, 1), 0, 8);
      std::vector<Packet> ticks;
      for (int t = 0; t < packets; ++t) ticks.push_back(Packet::make(8));
      vsa.feed(tuple2(20, 0), 0, 8, std::move(ticks));
      auto stats = vsa.run();
      EXPECT_EQ(stats.fires, 2LL * packets);
      EXPECT_EQ(stats.remote_messages, nodes == 2 ? packets : 0);
      EXPECT_EQ(probe->received.load(), packets);
      EXPECT_EQ(probe->misordered.load(), 0)
          << "nodes=" << nodes << " sched="
          << (sched == Scheduling::Lazy ? "lazy" : "aggressive");
    }
  }
}

}  // namespace
}  // namespace pulsarqr::prt
