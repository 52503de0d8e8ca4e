// Microbenchmarks of the PULSAR runtime primitives: channel throughput,
// VDP firing overhead, the by-pass chain, and the inter-node proxy path.
// These quantify the "minimal scheduling overheads" claim of Section IV-B.
#include <benchmark/benchmark.h>
#include <sys/resource.h>

#include <atomic>
#include <thread>

#include "common/rng.hpp"
#include "prt/vsa.hpp"
#include "vsaqr/result_store.hpp"
#include "vsaqr/tree_qr.hpp"

namespace {

using namespace pulsarqr;
using prt::Packet;
using prt::Scheduling;
using prt::Tuple;
using prt::Vsa;

// Same-thread push/pop round trip: the per-packet bookkeeping floor.
void BM_channel_push_pop(benchmark::State& state) {
  prt::Channel ch(64, true);
  Packet p = Packet::make(64);
  for (auto _ : state) {
    ch.push(p);
    benchmark::DoNotOptimize(ch.pop());
  }
  state.SetItemsProcessed(state.iterations());
}

// Single-channel ping throughput: one producer thread streams packets
// through one channel to a consuming thread — exactly the SPSC regime
// GraphCheck proves for every VSA channel.
void BM_channel_ping(benchmark::State& state) {
  const int packets = 1 << 14;
  // Cap the in-flight count at a realistic channel occupancy: VSA
  // channels stay short, which is what keeps the SPSC node cache in
  // recycle mode. Unbounded build-up would measure malloc instead.
  const int max_queue = 1024;
  prt::Channel ch(64, true);
  Packet p = Packet::make(64);
  for (auto _ : state) {
    std::thread producer([&] {
      for (int i = 0; i < packets; ++i) {
        while (ch.size() >= max_queue) std::this_thread::yield();
        ch.push(p);
      }
    });
    int consumed = 0;
    while (consumed < packets) {
      if (ch.size() == 0) {
        // Yield rather than busy-poll: on few-core machines a spinning
        // consumer starves the producer for a whole timeslice and the
        // bench measures the scheduler instead of the queue.
        std::this_thread::yield();
        continue;
      }
      benchmark::DoNotOptimize(ch.pop());
      ++consumed;
    }
    producer.join();
  }
  state.SetItemsProcessed(state.iterations() * packets);
}

// Inter-node ping through the proxy path, one wire message per frame: an
// A/B of the ack/retransmit reliable-delivery protocol (off must show no
// measurable overhead: the sequencing machinery is not even instantiated
// then).
void BM_channel_ping_internode(benchmark::State& state) {
  const int length = 8;
  const int packets = 256;
  const bool reliable = state.range(0) == 1;
  for (auto _ : state) {
    state.PauseTiming();
    Vsa::Config cfg;
    cfg.nodes = 2;
    cfg.workers_per_node = 1;
    cfg.reliable_transport = reliable;
    Vsa vsa(cfg);
    // Alternate home nodes so every hop crosses the proxy transport.
    for (int i = 0; i < length; ++i) {
      const bool last = i == length - 1;
      vsa.add_vdp(
          prt::tuple2(2, i), packets,
          [last](prt::VdpContext& ctx) {
            Packet p = ctx.pop(0);
            if (!last) ctx.push(0, std::move(p));
          },
          1, last ? 0 : 1);
      vsa.map_vdp(prt::tuple2(2, i), i % 2);  // workers_per_node == 1
    }
    std::vector<Packet> init;
    for (int k = 0; k < packets; ++k) init.push_back(Packet::make(64));
    vsa.feed(prt::tuple2(2, 0), 0, 64, std::move(init));
    for (int i = 0; i + 1 < length; ++i) {
      vsa.connect(prt::tuple2(2, i), 0, prt::tuple2(2, i + 1), 0, 64);
    }
    state.ResumeTiming();
    auto stats = vsa.run();
    benchmark::DoNotOptimize(stats.remote_messages);
  }
  state.SetItemsProcessed(state.iterations() * length * packets);
  state.SetLabel(reliable ? "reliable-on" : "reliable-off");
}

// The same inter-node ping over the out-of-process Socket backend: one
// forked OS process per node, frames over Unix-domain sockets. Measures
// the full fork + mesh + run + epilogue cycle per iteration — the honest
// cost of process isolation against the in-process rows above. The
// argument is the packet size: 64 bytes (small frames) or 32 KiB, a
// qr_socket tile (nb 64).
void BM_channel_ping_internode_socket(benchmark::State& state) {
  const int length = 8;
  const int packets = 256;
  const auto bytes = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    Vsa::Config cfg;
    cfg.nodes = 2;
    cfg.workers_per_node = 1;
    cfg.transport = prt::Transport::Socket;
    Vsa vsa(cfg);
    for (int i = 0; i < length; ++i) {
      const bool last = i == length - 1;
      vsa.add_vdp(
          prt::tuple2(2, i), packets,
          [last](prt::VdpContext& ctx) {
            Packet p = ctx.pop(0);
            if (!last) ctx.push(0, std::move(p));
          },
          1, last ? 0 : 1);
      vsa.map_vdp(prt::tuple2(2, i), i % 2);
    }
    std::vector<Packet> init;
    for (int k = 0; k < packets; ++k) init.push_back(Packet::make(bytes));
    vsa.feed(prt::tuple2(2, 0), 0, bytes, std::move(init));
    for (int i = 0; i + 1 < length; ++i) {
      vsa.connect(prt::tuple2(2, i), 0, prt::tuple2(2, i + 1), 0, bytes);
    }
    state.ResumeTiming();
    auto stats = vsa.run();
    benchmark::DoNotOptimize(stats.remote_messages);
  }
  state.SetItemsProcessed(state.iterations() * length * packets);
  state.SetBytesProcessed(state.iterations() * length * packets *
                          static_cast<long long>(bytes));
  state.SetLabel("socket/fork-per-node");
}

// The socket result path alone: two node processes whose VDPs do nothing
// but deposit 256 tiles of 64x64 (8 MiB) into a TileStore. Timed: building
// the store (its shared arena and flags), the run (fork, deposits,
// teardown) and the parent's finish(), which only checks the flags. The
// parent_minflt counter is the caller process's minor faults per
// iteration over the same span.
void BM_socket_result_return(benchmark::State& state) {
  const auto minflt = [] {
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_minflt);
  };
  double faults = 0.0;
  const int nb = 64;
  const int side = 16;  // 16 x 16 tiles
  Matrix src(nb, nb);
  fill_random(src.view(), 7);
  for (auto _ : state) {
    state.PauseTiming();
    Vsa::Config cfg;
    cfg.nodes = 2;
    cfg.workers_per_node = 1;
    cfg.transport = prt::Transport::Socket;
    Vsa vsa(cfg);
    for (int r = 0; r < 2; ++r) {
      vsa.add_vdp(
          prt::tuple2(4, r), side * side / 2,
          [&src, side](prt::VdpContext& ctx) {
            const int k = ctx.pop(0).meta();
            ctx.global<vsaqr::TileStore>().put(k % side, k / side, src.view());
          },
          1, 0);
      vsa.map_vdp(prt::tuple2(4, r), r);
      std::vector<Packet> tiles;
      for (int k = r; k < side * side; k += 2) {
        tiles.push_back(Packet::make(8, k));
      }
      vsa.feed(prt::tuple2(4, r), 0, 8, std::move(tiles));
    }
    state.ResumeTiming();
    const double f0 = minflt();
    auto store = std::make_shared<vsaqr::TileStore>(side * nb, side * nb, nb,
                                                    cfg.transport);
    vsa.set_global(store);
    vsa.run();
    const TileMatrix out = store->finish();
    benchmark::DoNotOptimize(out.tile_data(0, 0));
    faults += minflt() - f0;
  }
  state.counters["parent_minflt"] =
      benchmark::Counter(faults, benchmark::Counter::kAvgIterations);
  state.SetBytesProcessed(state.iterations() * side * side * nb * nb *
                          static_cast<long long>(sizeof(double)));
}

// End-to-end tree QR at small tiles, where per-packet runtime overhead —
// channel ops and wakeups — is the limiter (the regime of arXiv:1110.1553
// / arXiv:0809.2407).
void BM_qr_small_nb(benchmark::State& state) {
  const int n = 768;
  const int nb = 64;
  Matrix a0(n, n);
  fill_random(a0.view(), 42);
  const TileMatrix tiled = TileMatrix::from_dense(a0.view(), nb);
  vsaqr::TreeQrOptions opt;
  opt.tree = {plan::TreeKind::BinaryOnFlat, 6, plan::BoundaryMode::Shifted};
  opt.ib = 16;
  opt.nodes = 1;
  opt.workers_per_node = 4;
  for (auto _ : state) {
    auto run = vsaqr::tree_qr(tiled, opt);
    benchmark::DoNotOptimize(run.stats.fires);
  }
  state.SetItemsProcessed(state.iterations());
}

// The recycled steady state of one packet size: one free-list pop and
// push per packet.
void BM_packet_alloc(benchmark::State& state) {
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    Packet p = Packet::make(bytes);
    benchmark::DoNotOptimize(p.bytes());
  }
  state.SetItemsProcessed(state.iterations());
}

// Firing overhead: a pipeline of trivial VDPs; reported as fires/second.
void fire_pipeline(benchmark::State& state, int nodes, int workers) {
  const int length = 16;
  const int packets = 256;
  for (auto _ : state) {
    state.PauseTiming();
    Vsa::Config cfg;
    cfg.nodes = nodes;
    cfg.workers_per_node = workers;
    Vsa vsa(cfg);
    for (int i = 0; i < length; ++i) {
      const bool last = i == length - 1;
      vsa.add_vdp(
          prt::tuple2(0, i), packets,
          [last](prt::VdpContext& ctx) {
            Packet p = ctx.pop(0);
            if (!last) ctx.push(0, std::move(p));
          },
          1, last ? 0 : 1);
    }
    std::vector<Packet> init;
    for (int k = 0; k < packets; ++k) init.push_back(Packet::make(64));
    vsa.feed(prt::tuple2(0, 0), 0, 64, std::move(init));
    for (int i = 0; i + 1 < length; ++i) {
      vsa.connect(prt::tuple2(0, i), 0, prt::tuple2(0, i + 1), 0, 64);
    }
    state.ResumeTiming();
    auto stats = vsa.run();
    benchmark::DoNotOptimize(stats.fires);
  }
  state.SetItemsProcessed(state.iterations() * length * packets);
}

void BM_vdp_fire_local(benchmark::State& state) {
  fire_pipeline(state, 1, static_cast<int>(state.range(0)));
}

void BM_vdp_fire_internode(benchmark::State& state) {
  fire_pipeline(state, static_cast<int>(state.range(0)), 1);
}

// The by-pass broadcast chain (Section V-C): time for one packet to
// traverse a chain of forwarding VDPs.
void BM_bypass_chain(benchmark::State& state) {
  const int length = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    Vsa::Config cfg;
    cfg.nodes = 1;
    cfg.workers_per_node = 2;
    Vsa vsa(cfg);
    for (int i = 0; i < length; ++i) {
      const bool last = i == length - 1;
      vsa.add_vdp(
          prt::tuple2(1, i), 1,
          [last](prt::VdpContext& ctx) {
            Packet p = ctx.pop(0);
            if (!last) ctx.push(0, p);  // forward before "using"
            benchmark::DoNotOptimize(p.doubles());
          },
          1, last ? 0 : 1);
    }
    std::vector<Packet> init;
    init.push_back(Packet::make(8 * 1024));
    vsa.feed(prt::tuple2(1, 0), 0, 8 * 1024, std::move(init));
    for (int i = 0; i + 1 < length; ++i) {
      vsa.connect(prt::tuple2(1, i), 0, prt::tuple2(1, i + 1), 0, 8 * 1024);
    }
    state.ResumeTiming();
    auto stats = vsa.run();
    benchmark::DoNotOptimize(stats.fires);
  }
  state.SetItemsProcessed(state.iterations() * length);
}

}  // namespace

BENCHMARK(BM_channel_push_pop);
BENCHMARK(BM_channel_ping)->UseRealTime();
BENCHMARK(BM_channel_ping_internode)
    ->Arg(0)->Arg(1)  // reliable A/B
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_channel_ping_internode_socket)
    ->Arg(64)->Arg(32 * 1024)
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_socket_result_return)
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_qr_small_nb)->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_packet_alloc)->Arg(64)->Arg(192 * 192 * 8);
BENCHMARK(BM_vdp_fire_local)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_vdp_fire_internode)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_bypass_chain)->Arg(8)->Arg(32)->Unit(benchmark::kMillisecond);
