#include "prt/vsa.hpp"

#include <algorithm>

#include "prt/graph_check.hpp"
#include "prt/packet_pool.hpp"
#include "prt/socket_comm.hpp"
#include "prt/wire.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>

namespace pulsarqr::prt {

using namespace std::chrono_literals;

namespace {
std::uint64_t route_key(int src_node, int tag) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src_node))
          << 32) |
         static_cast<std::uint32_t>(tag);
}

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::this_thread::yield();
#endif
}
}  // namespace

// ---- runtime structures -----------------------------------------------------

struct OutMsg {
  int dst_node = -1;
  int tag = -1;
  Packet p;
};

struct Vsa::Worker : Waker {
  int node_id = 0;
  int local_id = 0;
  int global_id = 0;
  std::vector<Vdp*> vdps;
  int alive = 0;
  double busy = 0.0;

  // Wake state: a generation counter bumped by every wake(), plus a
  // parked flag so producers skip the mutex entirely while the worker is
  // running or spinning (the common case). Dekker pairing: the waiter
  // publishes parked then re-reads the epoch, the waker publishes the
  // epoch then reads parked — both seq_cst, so no wake is ever lost.
  std::atomic<std::uint64_t> wake_epoch{0};
  std::atomic<bool> parked{false};
  std::mutex mu;
  std::condition_variable cv;

  // Heartbeat for the watchdog: incremented entering AND leaving fire(),
  // so an odd value means "a firing is in flight on this worker".
  std::atomic<std::uint64_t> fire_epoch{0};

  // Outgoing inter-node packets (one queue per worker, as in Figure 4).
  std::mutex omu;
  std::deque<OutMsg> outq;

  std::thread thread;

  void wake() override {
    wake_epoch.fetch_add(1, std::memory_order_seq_cst);
    if (parked.load(std::memory_order_seq_cst)) {
      std::lock_guard<std::mutex> lock(mu);  // pairs with the parked wait
      cv.notify_one();
    }
  }

  /// Spin-then-park until the wake epoch moves past `seen` (a value read
  /// BEFORE the caller's last scan, so any wake during the scan returns
  /// immediately), `stop()` turns true, or a backstop timeout expires.
  template <class Stop>
  void wait_for_wake(std::uint64_t seen, int spin_us, Stop stop) {
    if (spin_us > 0) {
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::microseconds(spin_us);
      int iter = 0;
      while (wake_epoch.load(std::memory_order_acquire) == seen) {
        cpu_relax();
        if ((++iter & 63) == 0 &&
            (stop() || std::chrono::steady_clock::now() >= deadline)) {
          break;
        }
      }
      if (wake_epoch.load(std::memory_order_acquire) != seen || stop()) return;
    }
    std::unique_lock<std::mutex> lock(mu);
    parked.store(true, std::memory_order_seq_cst);
    // The 10ms wait_for is a liveness backstop only; the epoch/parked
    // protocol makes real wakeups prompt.
    cv.wait_for(lock, 10ms, [&] {
      return wake_epoch.load(std::memory_order_seq_cst) != seen || stop();
    });
    parked.store(false, std::memory_order_relaxed);
  }
};

struct Vsa::Node {
  int id = 0;
  std::vector<Worker*> workers;
  std::unordered_map<std::uint64_t, Channel*> route;  ///< (src, tag) -> channel
  bool has_remote = false;
  std::thread proxy;

  // Work-stealing executor state: a shared pool of fire candidates for
  // this node's workers. pool_epoch/parked mirror the Worker wake
  // protocol so idle workers can spin outside the lock before parking.
  std::mutex pool_mu;
  std::condition_variable pool_cv;
  std::deque<Vdp*> pool;
  std::atomic<std::uint64_t> pool_epoch{0};
  std::atomic<int> parked{0};
  std::atomic<int> alive{0};

  // Outgoing inter-node queue used in work-stealing mode. Consecutive
  // firings of one VDP may run on different workers there; per-worker
  // queues would let the proxy reorder packets of a single channel, so
  // stealing funnels sends through one per-node FIFO (claim
  // serialization makes the enqueue order the channel order).
  std::mutex omu;
  std::deque<OutMsg> outq;

  /// Seconds the proxy spent on transport work (written by the proxy
  /// thread, read by run() after joining it).
  double proxy_busy = 0.0;

  void enqueue(Vdp* v) {
    {
      std::lock_guard<std::mutex> lock(pool_mu);
      pool.push_back(v);
    }
    pool_epoch.fetch_add(1, std::memory_order_seq_cst);
    if (parked.load(std::memory_order_seq_cst) > 0) {
      pool_cv.notify_one();
    }
  }
};

namespace {
/// Channel waker used in work-stealing mode: arrival of a packet turns
/// the destination VDP into a fire candidate for the whole node.
struct PoolWaker : Waker {
  Vsa::Node* node = nullptr;
  Vdp* vdp = nullptr;
  void wake() override { node->enqueue(vdp); }
};
}  // namespace

// ---- construction -----------------------------------------------------------

Vsa::Vsa(Config cfg) : cfg_(cfg) {
  require(cfg_.nodes >= 1 && cfg_.workers_per_node >= 1,
          "Vsa: need at least one node and one worker per node");
}

Vsa::~Vsa() = default;

Vdp& Vsa::add_vdp(Tuple tuple, int counter, VdpFn fn, int num_inputs,
                  int num_outputs, int color, int outputs_per_fire) {
  require(counter >= 1, "add_vdp: counter must be positive");
  require(outputs_per_fire >= 0, "add_vdp: outputs_per_fire must be >= 0");
  require(!ran_, "add_vdp: VSA already ran");
  auto vdp = std::make_unique<Vdp>(tuple, counter, std::move(fn), num_inputs,
                                   num_outputs, color, outputs_per_fire);
  auto [it, inserted] = vdps_.emplace(std::move(tuple), std::move(vdp));
  require(inserted, "add_vdp: duplicate tuple " + it->first.to_string());
  creation_order_.push_back(it->second.get());
  return *it->second;
}

void Vsa::declare_output_packets(const Tuple& vdp, int out_slot,
                                 long long total_packets) {
  auto it = vdps_.find(vdp);
  require(it != vdps_.end(),
          "declare_output_packets: unknown VDP " + vdp.to_string());
  Vdp& v = *it->second;
  require(out_slot >= 0 && out_slot < v.num_outputs(),
          "declare_output_packets: bad output slot on " + vdp.to_string());
  require(total_packets >= 0,
          "declare_output_packets: total must be >= 0 on " + vdp.to_string());
  v.declared_out_[out_slot] = total_packets;
}

void Vsa::declare_input_packets(const Tuple& vdp, int in_slot,
                                long long total_packets) {
  auto it = vdps_.find(vdp);
  require(it != vdps_.end(),
          "declare_input_packets: unknown VDP " + vdp.to_string());
  Vdp& v = *it->second;
  require(in_slot >= 0 && in_slot < v.num_inputs(),
          "declare_input_packets: bad input slot on " + vdp.to_string());
  require(total_packets >= 0,
          "declare_input_packets: total must be >= 0 on " + vdp.to_string());
  v.declared_in_[in_slot] = total_packets;
}

void Vsa::connect(const Tuple& src, int out_slot, const Tuple& dst,
                  int in_slot, std::size_t max_bytes, bool enabled,
                  int capacity) {
  require(capacity >= 0, "connect: capacity must be >= 0 (0 = unbounded)");
  edges_.push_back(
      {src, out_slot, dst, in_slot, max_bytes, enabled, capacity});
}

void Vsa::feed(const Tuple& dst, int in_slot, std::size_t max_bytes,
               std::vector<Packet> initial, bool enabled, int capacity) {
  require(capacity >= 0, "feed: capacity must be >= 0 (0 = unbounded)");
  feeds_.push_back(
      {dst, in_slot, max_bytes, std::move(initial), enabled, capacity});
}

void Vsa::map_vdp(const Tuple& tuple, int global_thread) {
  explicit_map_[tuple] = global_thread;
}

void Vsa::set_default_mapping(std::function<int(const Tuple&)> fn) {
  default_map_ = std::move(fn);
}

// ---- wiring -----------------------------------------------------------------

void Vsa::validate_and_wire() {
  const int total = total_threads();

  // Assign VDPs to threads.
  int rr = 0;
  for (Vdp* v : creation_order_) {
    int t;
    if (auto it = explicit_map_.find(v->tuple_); it != explicit_map_.end()) {
      t = it->second;
    } else if (default_map_) {
      t = default_map_(v->tuple_);
    } else {
      t = rr++ % total;
    }
    require(t >= 0 && t < total,
            "mapping: thread out of range for VDP " + v->tuple_.to_string());
    v->global_thread_ = t;
  }

  // Create workers and nodes.
  workers_.clear();
  nodes_.clear();
  for (int n = 0; n < cfg_.nodes; ++n) {
    auto node = std::make_unique<Node>();
    node->id = n;
    nodes_.push_back(std::move(node));
  }
  for (int t = 0; t < total; ++t) {
    auto w = std::make_unique<Worker>();
    w->global_id = t;
    w->node_id = t / cfg_.workers_per_node;
    w->local_id = t % cfg_.workers_per_node;
    nodes_[w->node_id]->workers.push_back(w.get());
    workers_.push_back(std::move(w));
  }
  for (Vdp* v : creation_order_) {
    workers_[v->global_thread_]->vdps.push_back(v);
    workers_[v->global_thread_]->alive += 1;
  }

  auto find_vdp = [&](const Tuple& t, const char* what) -> Vdp& {
    auto it = vdps_.find(t);
    require(it != vdps_.end(),
            std::string(what) + ": unknown VDP " + t.to_string());
    return *it->second;
  };

  // Source feeds become prefilled input channels.
  for (auto& f : feeds_) {
    Vdp& dst = find_vdp(f.dst, "feed");
    require(f.in_slot >= 0 && f.in_slot < dst.num_inputs(),
            "feed: bad input slot on " + f.dst.to_string());
    require(dst.inputs_[f.in_slot] == nullptr,
            "feed: input slot already connected on " + f.dst.to_string());
    auto ch = std::make_unique<Channel>(f.max_bytes, f.enabled, f.capacity);
    for (auto& p : f.initial) ch->push(std::move(p));
    dst.inputs_[f.in_slot] = std::move(ch);
  }

  // Regular edges.
  std::map<std::pair<int, int>, int> next_tag;  // per (src node, dst node)
  for (auto& e : edges_) {
    Vdp& src = find_vdp(e.src, "connect(src)");
    Vdp& dst = find_vdp(e.dst, "connect(dst)");
    require(e.out_slot >= 0 && e.out_slot < src.num_outputs(),
            "connect: bad output slot on " + e.src.to_string());
    require(e.in_slot >= 0 && e.in_slot < dst.num_inputs(),
            "connect: bad input slot on " + e.dst.to_string());
    require(!src.outputs_[e.out_slot].connected,
            "connect: output slot already connected on " + e.src.to_string());
    require(dst.inputs_[e.in_slot] == nullptr,
            "connect: input slot already connected on " + e.dst.to_string());

    auto ch = std::make_unique<Channel>(e.max_bytes, e.enabled, e.capacity);
    Channel* chp = ch.get();
    dst.inputs_[e.in_slot] = std::move(ch);

    OutputRef& out = src.outputs_[e.out_slot];
    out.connected = true;
    out.max_bytes = e.max_bytes;
    const int src_node = src.global_thread_ / cfg_.workers_per_node;
    const int dst_node = dst.global_thread_ / cfg_.workers_per_node;
    if (src_node == dst_node) {
      out.local = chp;  // zero-copy shared-memory path
      if (chp->bounded()) src.gate_outputs_ = true;
    } else {
      const int tag = next_tag[{src_node, dst_node}]++;
      out.dst_node = dst_node;
      out.tag = tag;
      nodes_[dst_node]->route[route_key(src_node, tag)] = chp;
      nodes_[src_node]->has_remote = true;
      nodes_[dst_node]->has_remote = true;
    }
  }

  // Every slot must be connected; a dangling slot is a latent deadlock.
  for (Vdp* v : creation_order_) {
    for (int s = 0; s < v->num_inputs(); ++s) {
      require(v->inputs_[s] != nullptr, "run: unconnected input slot " +
                                            std::to_string(s) + " on VDP " +
                                            v->tuple_.to_string());
    }
    for (int s = 0; s < v->num_outputs(); ++s) {
      require(v->outputs_[s].connected, "run: unconnected output slot " +
                                            std::to_string(s) + " on VDP " +
                                            v->tuple_.to_string());
    }
    // Fail fast on a silently-blocked VDP: with every input channel
    // disabled from the start it is permanently un-ready (only its own
    // firing code could enable an input), yet it counts as alive and
    // would burn the whole watchdog timeout.
    if (v->num_inputs() > 0) {
      bool any_enabled = false;
      for (const auto& ch : v->inputs_) any_enabled |= ch->enabled();
      require(any_enabled, "run: every input channel of VDP " +
                               v->tuple_.to_string() +
                               " starts disabled; it can never fire");
    }
  }

  // Attach wakers now that ownership is final. With the sweep executor a
  // packet wakes the destination VDP's bound worker; with work stealing
  // it makes the VDP a fire candidate for its whole node.
  if (cfg_.work_stealing) {
    for (Vdp* v : creation_order_) {
      Node* node = nodes_[v->global_thread_ / cfg_.workers_per_node].get();
      node->alive.fetch_add(1, std::memory_order_relaxed);
      auto waker = std::make_unique<PoolWaker>();
      waker->node = node;
      waker->vdp = v;
      for (auto& ch : v->inputs_) ch->set_waker(waker.get());
      // Backpressure liveness: a pop on a bounded local output of v frees
      // room, so v (stalled by its firing rule) becomes a candidate again.
      for (OutputRef& out : v->outputs_) {
        if (out.local != nullptr && out.local->bounded()) {
          out.local->set_pop_waker(waker.get());
        }
      }
      pool_wakers_.push_back(std::move(waker));
    }
  } else {
    for (Vdp* v : creation_order_) {
      for (auto& ch : v->inputs_) {
        ch->set_waker(workers_[v->global_thread_].get());
      }
      // Backpressure liveness (sweep executor): wake the producer's bound
      // worker when the consumer pops a bounded local channel.
      for (OutputRef& out : v->outputs_) {
        if (out.local != nullptr && out.local->bounded()) {
          out.local->set_pop_waker(workers_[v->global_thread_].get());
        }
      }
    }
  }
}

// ---- packet routing ---------------------------------------------------------

void Vsa::push_from(VdpContext& ctx, int slot, Packet p) {
  Vdp& v = ctx.vdp;
  PQR_ASSERT(slot >= 0 && slot < v.num_outputs(), "push: bad output slot");
  OutputRef& out = v.outputs_[slot];
  PQR_ASSERT(out.connected, "push: unconnected output slot");
  PQR_ASSERT(p.size() <= out.max_bytes, "push: packet exceeds channel max");
  if (out.local != nullptr) {
    out.local->push(std::move(p));
    return;
  }
  // Inter-node: hand the packet to the outgoing queue and wake the
  // node's proxy through its mailbox (MPI-progress style).
  if (cfg_.work_stealing) {
    Node& n = *nodes_[ctx.node];
    std::lock_guard<std::mutex> lock(n.omu);
    n.outq.push_back({out.dst_node, out.tag, std::move(p)});
  } else {
    Worker& w = *workers_[ctx.global_thread];
    std::lock_guard<std::mutex> lock(w.omu);
    w.outq.push_back({out.dst_node, out.tag, std::move(p)});
  }
  comm_->interrupt(ctx.node);
}

void VdpContext::push(int slot, Packet p) {
  vsa.push_from(*this, slot, std::move(p));
}

// ---- execution --------------------------------------------------------------

void Vsa::fire(Vdp& v, Worker& w) {
  // Heartbeat -> odd: tells the watchdog a firing STARTED (and is still
  // in flight), so one kernel outliving watchdog_seconds is progress, not
  // a deadlock.
  w.fire_epoch.fetch_add(1, std::memory_order_relaxed);
  const double t0 = recorder_->now();
  VdpContext ctx{v, *this, w.node_id, w.global_id};
  v.fn_(ctx);
  --v.counter_;
  if (v.counter_ <= 0) {
    v.dead_.store(true, std::memory_order_release);
    v.local_.reset();
  }
  const double t1 = recorder_->now();
  w.busy += t1 - t0;
  recorder_->record(w.global_id, v.color_, v.tuple_, t0, t1);
  w.fire_epoch.fetch_add(1, std::memory_order_relaxed);  // back to even
  fires_.fetch_add(1, std::memory_order_relaxed);
}

void Vsa::worker_loop(Worker& w) {
  while (!cancelled_.load(std::memory_order_relaxed) && w.alive > 0) {
    // Sample the wake epoch BEFORE the scan: a packet arriving for a VDP
    // the scan already passed bumps the epoch and voids the wait below.
    const std::uint64_t seen = w.wake_epoch.load(std::memory_order_acquire);
    bool fired = false;
    for (Vdp* v : w.vdps) {
      if (v->dead()) continue;
      while (v->ready()) {
        fire(*v, w);
        fired = true;
        if (v->dead()) {
          --w.alive;
          break;
        }
        if (cfg_.scheduling == Scheduling::Lazy) break;
      }
      if (cancelled_.load(std::memory_order_relaxed)) break;
    }
    if (w.alive == 0) break;
    if (!fired) {
      w.wait_for_wake(seen, spin_us_, [this] {
        return cancelled_.load(std::memory_order_relaxed);
      });
    }
  }
  workers_running_.fetch_sub(1, std::memory_order_acq_rel);
}

void Vsa::worker_loop_stealing(Worker& w, Node& n) {
  while (!cancelled_.load(std::memory_order_relaxed) &&
         n.alive.load(std::memory_order_acquire) > 0) {
    // Sampled before the pool check so an enqueue racing with an empty
    // verdict cuts the wait short (same protocol as Worker::wait_for_wake).
    const std::uint64_t seen = n.pool_epoch.load(std::memory_order_acquire);
    Vdp* v = nullptr;
    {
      std::unique_lock<std::mutex> lock(n.pool_mu);
      if (!n.pool.empty()) {
        v = n.pool.front();
        n.pool.pop_front();
      }
    }
    if (v == nullptr) {
      auto stop = [&] {
        return cancelled_.load(std::memory_order_relaxed) ||
               n.alive.load(std::memory_order_acquire) <= 0;
      };
      if (spin_us_ > 0) {
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::microseconds(spin_us_);
        int iter = 0;
        while (n.pool_epoch.load(std::memory_order_acquire) == seen) {
          cpu_relax();
          if ((++iter & 63) == 0 &&
              (stop() || std::chrono::steady_clock::now() >= deadline)) {
            break;
          }
        }
      }
      if (n.pool_epoch.load(std::memory_order_acquire) == seen && !stop()) {
        std::unique_lock<std::mutex> lock(n.pool_mu);
        n.parked.fetch_add(1, std::memory_order_seq_cst);
        n.pool_cv.wait_for(lock, 10ms, [&] {
          return !n.pool.empty() ||
                 n.pool_epoch.load(std::memory_order_seq_cst) != seen ||
                 stop();
        });
        n.parked.fetch_sub(1, std::memory_order_relaxed);
      }
      continue;
    }
    if (v->dead() || !v->ready()) continue;  // stale candidate
    bool expected = false;
    if (!v->running_.compare_exchange_strong(expected, true)) {
      continue;  // another worker holds it; it re-enqueues if still ready
    }
    if (v->dead()) {
      v->running_.store(false);
      continue;
    }
    while (v->ready()) {
      fire(*v, w);
      if (v->dead() || cfg_.scheduling == Scheduling::Lazy) break;
    }
    const bool died = v->dead();
    v->running_.store(false, std::memory_order_release);
    if (died) {
      if (n.alive.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        // Node done: release idle workers. Locking pairs with the parked
        // predicate so the last notification cannot slip between its
        // evaluation and the park.
        std::lock_guard<std::mutex> lock(n.pool_mu);
        n.pool_cv.notify_all();
      }
    } else if (v->ready()) {
      // Re-check AFTER unclaiming: a packet that arrived while we held
      // the claim may have had its candidate dropped by another worker
      // (claim failure), so this VDP's wakeup is now our responsibility.
      n.enqueue(v);
    }
  }
  workers_running_.fetch_sub(1, std::memory_order_acq_rel);
}

void Vsa::proxy_loop(Node& n) {
  // Reliable endpoint: proxy-local, created only when the protocol is on,
  // so the disabled fast path below is byte-for-byte the old raw-frame
  // proxy (the only addition is a null-pointer test per batch).
  std::unique_ptr<net::Reliable> rel;
  // Crash recovery is active only in socket node processes with a respawn
  // budget: the Reliable endpoint then retains acked frames for replay,
  // idles retransmits to dead peers instead of exhausting, and the proxy
  // fences stale incarnations + dedups a replacement's re-sent prefix.
  const bool recovery = sock_comm_ != nullptr && cfg_.max_respawns > 0;
  if (cfg_.reliable_transport) {
    net::Reliable::Params params;
    params.rto_us = cfg_.retransmit_timeout_us;
    params.max_retries = cfg_.max_retransmits;
    if (recovery) params.replay_log_bytes = cfg_.replay_log_bytes;
    rel = std::make_unique<net::Reliable>(*comm_, n.id, params);
    if (recovery) {
      // While a peer's process is down (EOF / write failure seen, no
      // replacement yet) retransmits to it are deferred, not charged
      // against the retry budget — the respawn window must not look like
      // a lossy link that exhausted.
      rel->set_link_up_probe(
          [this](int r) { return sock_comm_->peer_alive(r); });
    }
    if (recorder_->enabled()) {
      // Retransmissions show up as zero-width marks on the node's proxy
      // lane (lane total_threads()+node), tuple = (dst, tag, seq).
      rel->set_retransmit_hook([this, &n](int dst, int tag, long long seq) {
        recorder_->record_mark(total_threads() + n.id, trace::kColorTransport,
                               Tuple{dst, tag, static_cast<int>(seq)},
                               recorder_->now());
      });
    }
  }
  // Channel-level exactly-once bookkeeping for crash replay. Wire
  // sequence numbers cannot dedup a respawned peer's re-sent stream: the
  // replacement re-coalesces from scratch, so its frame k need not carry
  // the same application frames as the dead incarnation's frame k. What
  // IS deterministic is the per-channel order of application frames
  // (single producer VDP, fixed firing order, in-order delivery under
  // Reliable) — so we count delivered frames per (source node, tag) route
  // and, at a rejoin, arrange to drop exactly the already-delivered
  // prefix of the replacement's fresh stream.
  std::unordered_map<std::uint64_t, long long> delivered;
  std::unordered_map<std::uint64_t, long long> replay_skip;
  auto should_deliver = [&](int src, int tag) {
    if (!recovery) return true;
    const std::uint64_t key = route_key(src, tag);
    if (auto it = replay_skip.find(key);
        it != replay_skip.end() && it->second > 0) {
      --it->second;
      return false;  // re-executed duplicate of a frame we already pushed
    }
    ++delivered[key];
    return true;
  };
  auto deliver = [&](net::Message& m) {
    if (m.tag == net::kAggregateTag) {
      // Split an aggregate back into its application frames. Each frame
      // gets a fresh pooled packet: the aggregate buffer is shared with
      // the sender (and, under Reliable, with its retransmit retention),
      // so channels must not alias into it.
      net::FrameCursor cursor(m.payload);
      net::WireFrame wf;
      int count = 0;
      while (cursor.next(wf)) {
        ++count;
        if (!should_deliver(m.source, wf.tag)) continue;
        auto it = n.route.find(route_key(m.source, wf.tag));
        PQR_ASSERT(it != n.route.end(), "proxy: unroutable coalesced frame");
        Packet p = Packet::make(wf.size, wf.meta);
        if (wf.size > 0) std::memcpy(p.bytes(), wf.data, wf.size);
        it->second->push(std::move(p));
      }
      PQR_ASSERT(count == m.meta, "proxy: aggregate frame count mismatch");
      return;
    }
    if (!should_deliver(m.source, m.tag)) return;
    auto it = n.route.find(route_key(m.source, m.tag));
    PQR_ASSERT(it != n.route.end(), "proxy: unroutable message");
    // Raw frame: adopt the transport's (pooled) buffer directly.
    m.payload.set_meta(m.meta);
    it->second->push(std::move(m.payload));
  };
  // Incoming frames pass through the protocol first (ack processing,
  // dedup, in-order reassembly); `inbox` holds what it cleared for
  // delivery. With the protocol off, frames go straight through.
  std::deque<net::Message> inbox;
  auto accept = [&](net::Message&& m) {
    // Fence frames from a dead incarnation of a respawned peer. They can
    // linger in socket buffers or our mailbox across the rejoin; a stale
    // cumulative ack in particular would trim frames the replay path just
    // requeued, deadlocking the replacement. The fence is applied here —
    // after the mailbox, before the protocol — because the rejoin install
    // happens on this same thread, so no frame can race past it.
    if (recovery && m.source != n.id &&
        m.epoch < sock_comm_->peer_epoch(m.source)) {
      return;
    }
    if (rel) {
      rel->on_receive(std::move(m), inbox);
    } else {
      inbox.push_back(std::move(m));
    }
  };
  auto deliver_inbox = [&] {
    while (!inbox.empty()) {
      deliver(inbox.front());
      inbox.pop_front();
    }
  };
  // ---- egress: per-destination frame coalescing ----
  //
  // Outbound frames are gather-copied into one pooled wire buffer per
  // destination and shipped as a single aggregate message (one fault-plan
  // decision, one sequence number) when the stage fills, its deadline
  // expires, or the run winds down. Frames that could never fit are sent
  // directly — after flushing the stage, so per-destination order holds.
  using Clock = std::chrono::steady_clock;
  const std::size_t cap = cfg_.coalesce_bytes;
  const auto flush_window = std::chrono::microseconds(
      cfg_.coalesce_flush_us > 0 ? cfg_.coalesce_flush_us : 0);
  struct Egress {
    net::FrameStager stager;
    Clock::time_point deadline{};  ///< flush-by time of the oldest frame
    explicit Egress(std::size_t c) : stager(c) {}
  };
  std::map<int, Egress> egress;  // destination rank -> staging buffer
  long long frames = 0, frame_bytes = 0, coalesced = 0, aggregates = 0;
  double busy = 0.0;

  auto wire_send = [&](int dst, int tag, const Packet& p, int meta,
                       bool shared) {
    if (rel) {
      rel->send(dst, tag, p, meta, shared);
    } else {
      const int req = comm_->isend(n.id, dst, tag, p, meta, /*seq=*/-1,
                                   /*ack=*/-1, /*is_ack=*/false, shared);
      PQR_ASSERT(comm_->test(req), "proxy: isend did not complete");
    }
  };
  auto flush = [&](int dst, Egress& e) {
    if (e.stager.empty()) return false;
    coalesced += e.stager.frames();
    ++aggregates;
    const Packet wire = e.stager.take();
    // Shared: the gather copy above already played the address-space
    // copy; the receiving proxy splits into fresh pooled packets.
    wire_send(dst, net::kAggregateTag, wire, wire.meta(), /*shared=*/true);
    return true;
  };
  auto send_one = [&](OutMsg& m) {
    ++frames;
    frame_bytes += static_cast<long long>(m.p.size());
    if (cap == 0) {  // coalescing off: one wire message per frame
      wire_send(m.dst_node, m.tag, m.p, m.p.meta(), /*shared=*/false);
      return;
    }
    Egress& e = egress.try_emplace(m.dst_node, cap).first->second;
    if (net::FrameStager::wire_size(m.p.size()) > cap) {
      flush(m.dst_node, e);  // preserve per-destination order
      wire_send(m.dst_node, m.tag, m.p, m.p.meta(), /*shared=*/false);
      return;
    }
    if (!e.stager.fits(m.p.size())) flush(m.dst_node, e);
    if (e.stager.empty()) e.deadline = Clock::now() + flush_window;
    e.stager.add(m.tag, m.p.meta(), m.p);
  };
  auto flush_due = [&](Clock::time_point now) {
    bool any = false;
    for (auto& [dst, e] : egress) {
      if (!e.stager.empty() && now >= e.deadline) any |= flush(dst, e);
    }
    return any;
  };
  auto flush_all = [&] {
    bool any = false;
    for (auto& [dst, e] : egress) any |= flush(dst, e);
    return any;
  };
  /// Microseconds until the earliest staged-frame deadline, capped at
  /// `cap_us` — bounds the idle recv_wait so a deadline flush is prompt.
  auto next_flush_in_us = [&](Clock::time_point now, int cap_us) {
    long long best = cap_us;
    for (auto& [dst, e] : egress) {
      if (e.stager.empty()) continue;
      const auto left = std::chrono::duration_cast<std::chrono::microseconds>(
                            e.deadline - now)
                            .count();
      best = std::min(best, std::max<long long>(left, 0));
    }
    return static_cast<int>(best);
  };

  // Batched outgoing drain: swap the whole queue out under one lock
  // instead of one lock round-trip per message, then stage lock-free.
  std::deque<OutMsg> batch;
  auto send_all = [&](std::mutex& mu, std::deque<OutMsg>& q) {
    batch.clear();
    {
      std::lock_guard<std::mutex> lock(mu);
      batch.swap(q);
    }
    for (OutMsg& m : batch) send_one(m);
    return !batch.empty();
  };
  for (;;) {
    const auto t0 = Clock::now();
    bool any = false;
    if (recovery) {
      // Install any peer rejoin queued by the control thread. This thread
      // owns the Reliable endpoint and the routes, so install + replay +
      // dedup snapshot are a single atomic step from the proxy's view.
      for (const auto& rj : sock_comm_->take_rejoins()) {
        any = true;
        sock_comm_->install_rejoin(rj);
        if (rel) {
          const long long nrep = rel->replay_link(rj.rank, Clock::now());
          if (nrep < 0) {
            // The replay log overflowed its byte budget before this crash:
            // part of the acked history is gone and the replacement can
            // never be made whole. Tear the run down with a transport
            // failure instead of silently wedging.
            cancel_run_from_transport();
          }
          rel->reset_recv_link(rj.rank);
        }
        // The replacement re-executes its node from the start: arrange to
        // drop the prefix of each of its channels that this node already
        // consumed (exactly-once at the channel level).
        for (const auto& [key, cnt] : delivered) {
          if (static_cast<int>(key >> 32) == rj.rank) replay_skip[key] = cnt;
        }
      }
    }
    // Serve the outgoing queues of this node's workers (and the node
    // queue used by the work-stealing executor).
    for (Worker* w : n.workers) {
      any |= send_all(w->omu, w->outq);
    }
    any |= send_all(n.omu, n.outq);
    // Drain all queued incoming messages in one mailbox swap.
    for (auto& m : comm_->drain(n.id)) {
      accept(std::move(m));
      any = true;
    }
    deliver_inbox();
    if (rel) {
      rel->flush_acks();
      // Retransmit timed-out frames — but only while the run is live: a
      // completed or cancelled run must not ping-pong late frames between
      // exiting proxies, and a post-completion unacked frame (receiver
      // done, final ack lost) is not a failure.
      if (!done_.load(std::memory_order_acquire) &&
          !cancelled_.load(std::memory_order_acquire) &&
          !rel->poll(Clock::now())) {
        cancel_run_from_transport();
      }
    }
    const bool winding_down = done_.load(std::memory_order_acquire) ||
                              cancelled_.load(std::memory_order_acquire);
    // Ship staged aggregates whose deadline passed — or everything, once
    // the run winds down (an unflushed stage would strand its frames).
    any |= winding_down ? flush_all() : flush_due(Clock::now());
    busy += std::chrono::duration<double>(Clock::now() - t0).count();
    if (winding_down) {
      if (!any) break;
      continue;
    }
    if (!any) {
      // Idle: no outbound frames queued and the mailbox is dry, so the
      // pipeline is likely stalled waiting on what we staged. Flush now
      // instead of holding to the deadline (Nagle with an idle bypass) —
      // extra batching should cost latency only while the proxy is busy.
      const auto f0 = Clock::now();
      if (flush_all()) {
        busy += std::chrono::duration<double>(Clock::now() - f0).count();
        continue;
      }
      if (auto m = comm_->recv_wait(n.id, next_flush_in_us(Clock::now(), 200))) {
        const auto r0 = Clock::now();
        accept(std::move(*m));
        deliver_inbox();
        busy += std::chrono::duration<double>(Clock::now() - r0).count();
      }
    }
  }
  n.proxy_busy = busy;
  total_remote_msgs_.fetch_add(frames, std::memory_order_relaxed);
  total_remote_bytes_.fetch_add(frame_bytes, std::memory_order_relaxed);
  total_coalesced_.fetch_add(coalesced, std::memory_order_relaxed);
  total_aggregates_.fetch_add(aggregates, std::memory_order_relaxed);
  if (rel) {
    // Publish endpoint totals (and, on a failed run, link snapshots) for
    // RunStats / the RunReport; run() joins proxies before reading them.
    total_retransmits_.fetch_add(rel->retransmits(),
                                 std::memory_order_relaxed);
    total_dups_suppressed_.fetch_add(rel->duplicates_suppressed(),
                                     std::memory_order_relaxed);
    total_acks_sent_.fetch_add(rel->acks_sent(), std::memory_order_relaxed);
    total_replayed_.fetch_add(rel->replayed(), std::memory_order_relaxed);
    if (cancelled_.load(std::memory_order_acquire)) {
      std::lock_guard<std::mutex> lock(fail_mu_);
      for (auto& g : rel->gaps()) link_gaps_.push_back(std::move(g));
    }
  }
}

void Vsa::cancel_run_from_transport() {
  if (transport_failed_.exchange(true, std::memory_order_acq_rel)) return;
  cancelled_.store(true, std::memory_order_release);
  // Same wake fan-out as the shutdown path in run(): parked workers,
  // work-stealing pools, and proxies blocked in recv_wait.
  for (auto& w : workers_) w->wake();
  for (auto& node : nodes_) {
    std::lock_guard<std::mutex> lock(node->pool_mu);
    node->pool_cv.notify_all();
  }
  for (int r = 0; r < cfg_.nodes; ++r) comm_->interrupt(r);
}

Vsa::RunStats Vsa::run() {
  require(!ran_, "run: VSA already ran");
  if (cfg_.graph_check) {
    const GraphReport report = GraphCheck::check(*this);
    if (!report.ok()) {
      throw Error(
          "GraphCheck: the VSA graph is malformed; aborting before "
          "execution (set Config::graph_check = false to bypass).\n" +
          report.to_string());
    }
  }
  // Marked only after the graph passes the check: a lint failure leaves
  // the object reporting the graph error again on retry, not a
  // misleading "already ran".
  ran_ = true;
  validate_and_wire();
  spin_us_ = cfg_.spin_us;
  if (spin_us_ < 0) {
    // Auto: spin only when every worker can have its own hardware thread;
    // on an oversubscribed machine an idle spinner just steals the core
    // from the worker that has the packet.
    const unsigned hw = std::thread::hardware_concurrency();
    spin_us_ = (hw != 0 && workers_.size() <= hw) ? 50 : 0;
  }
  if (cfg_.max_respawns > 0) {
    require(cfg_.transport == Transport::Socket,
            "run: Config::max_respawns requires the Socket transport (crash "
            "recovery respawns OS processes)");
    require(cfg_.reliable_transport,
            "run: crash recovery (max_respawns > 0) requires "
            "reliable_transport — survivors replay a crashed peer's frames "
            "from the protocol's retained send log");
  }
  require(!cfg_.fault_plan.kill() || cfg_.transport == Transport::Socket,
          "run: FaultPlan kill faults require the Socket transport (there is "
          "no process to kill in-process)");

  if (cfg_.transport == Transport::Socket) return run_socket();

  comm_ = std::make_unique<net::MailboxComm>(cfg_.nodes);
  if (cfg_.fault_plan.any()) comm_->set_fault_plan(cfg_.fault_plan);
  // Pool counters are process-global; snapshot them so RunStats reports
  // this run's delta (a warmed pool shows zero misses here).
  const PacketPool::Stats pool0 = PacketPool::stats();
  // One extra trace lane per node for its proxy (transport marks).
  recorder_ = std::make_unique<trace::Recorder>(total_threads(), cfg_.trace,
                                                cfg_.nodes);
  recorder_->start_clock();

  workers_running_.store(static_cast<int>(workers_.size()));
  const auto t_start = std::chrono::steady_clock::now();
  if (cfg_.work_stealing) {
    // Seed every VDP as an initial fire candidate on its node.
    for (Vdp* v : creation_order_) {
      nodes_[v->global_thread_ / cfg_.workers_per_node]->enqueue(v);
    }
  }
  for (auto& w : workers_) {
    w->thread = std::thread([this, wp = w.get()] {
      if (cfg_.work_stealing) {
        worker_loop_stealing(*wp, *nodes_[wp->node_id]);
      } else {
        worker_loop(*wp);
      }
    });
  }
  bool any_proxy = false;
  for (auto& n : nodes_) {
    if (n->has_remote) {
      n->proxy = std::thread([this, np = n.get()] { proxy_loop(*np); });
      any_proxy = true;
    }
  }

  // Watchdog: progress is any completed fire, any fire START since the
  // last check, or a firing currently in flight (odd per-worker
  // heartbeat). A single kernel outliving watchdog_seconds is therefore
  // never a false deadlock; only "no VDP can fire anywhere" trips it.
  long long last_fires = -1;
  std::vector<std::uint64_t> last_heartbeat(workers_.size(), 0);
  auto last_progress = std::chrono::steady_clock::now();
  while (workers_running_.load(std::memory_order_acquire) > 0) {
    std::this_thread::sleep_for(1ms);
    bool progress = false;
    const long long f = fires_.load(std::memory_order_relaxed);
    if (f != last_fires) {
      last_fires = f;
      progress = true;
    }
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      const std::uint64_t hb =
          workers_[i]->fire_epoch.load(std::memory_order_relaxed);
      if (hb != last_heartbeat[i]) {
        last_heartbeat[i] = hb;
        progress = true;
      } else if ((hb & 1u) != 0) {
        progress = true;  // long-running firing still in flight
      }
    }
    if (progress) {
      last_progress = std::chrono::steady_clock::now();
    } else if (cfg_.watchdog_seconds > 0 &&
               std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             last_progress)
                       .count() > cfg_.watchdog_seconds) {
      cancelled_.store(true, std::memory_order_release);
      break;
    }
  }

  // Shut down: wake everything, join workers, then proxies.
  for (auto& w : workers_) w->wake();
  for (auto& n : nodes_) {
    std::lock_guard<std::mutex> lock(n->pool_mu);
    n->pool_cv.notify_all();
  }
  for (auto& w : workers_) w->thread.join();
  done_.store(true, std::memory_order_release);
  if (any_proxy) {
    for (int r = 0; r < cfg_.nodes; ++r) comm_->interrupt(r);
    for (auto& n : nodes_) {
      if (n->proxy.joinable()) n->proxy.join();
    }
  }

  if (cancelled_.load()) {
    // Workers and proxies are already joined: the teardown is complete
    // and the error below is the only thing that escapes.
    RunReport report = make_run_report();
    std::string header;
    if (report.reason == "transport") {
      header =
          "PRT transport: reliable delivery failed (retransmit limit "
          "reached after " +
          std::to_string(cfg_.max_retransmits) +
          " attempts); tearing the run down.\n";
    } else {
      header = "PRT watchdog: no VDP fired for " +
               std::to_string(cfg_.watchdog_seconds) +
               "s; the VSA is deadlocked.\n";
    }
    throw RunError(header, std::move(report));
  }

  RunStats stats;
  stats.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t_start)
          .count();
  stats.fires = fires_.load();
  stats.remote_messages = total_remote_msgs_.load(std::memory_order_relaxed);
  stats.remote_bytes = total_remote_bytes_.load(std::memory_order_relaxed);
  stats.wire_offered = comm_->messages_offered();
  stats.wire_messages = comm_->messages_sent();
  stats.wire_bytes = comm_->bytes_sent();
  stats.fault_streams = static_cast<long long>(comm_->fault_streams());
  stats.coalesced_frames = total_coalesced_.load(std::memory_order_relaxed);
  stats.aggregates_sent = total_aggregates_.load(std::memory_order_relaxed);
  const PacketPool::Stats pool1 = PacketPool::stats();
  stats.pool_hits = pool1.hits - pool0.hits;
  stats.pool_misses = pool1.misses - pool0.misses;
  stats.faults = comm_->fault_counters();
  stats.retransmits = total_retransmits_.load(std::memory_order_relaxed);
  stats.duplicates_suppressed =
      total_dups_suppressed_.load(std::memory_order_relaxed);
  stats.acks_sent = total_acks_sent_.load(std::memory_order_relaxed);
  for (auto& w : workers_) stats.busy_per_thread.push_back(w->busy);
  for (auto& node : nodes_) {
    stats.proxy_busy_per_node.push_back(node->proxy_busy);
  }
  for (Vdp* v : creation_order_) {
    for (auto& ch : v->inputs_) stats.leftover_packets += ch->size();
  }
  for (int r = 0; r < cfg_.nodes; ++r) {
    while (auto m = comm_->try_recv(r)) {
      // Protocol frames lingering in a mailbox after a successful run
      // (late pure acks, retransmitted copies of already-delivered data)
      // are expected residue, not lost application packets.
      if (!m->is_ack && m->seq < 0) ++stats.leftover_packets;
    }
  }
  return stats;
}

// ---- socket transport: one process per node ---------------------------------
//
// run_socket() forks after the graph is built and wired but before any
// thread exists, so every node process inherits an identical copy-on-write
// image of the VSA (VDPs, channels, feeds, globals). Each child runs ONLY
// its own node's workers and proxy over a SocketComm wired into a
// pre-opened socketpair mesh; the parent runs no VDPs at all — it is the
// control plane. Per-child results and stats travel back over a dedicated
// control socketpair as little-endian blobs (wire.hpp).
//
// Control protocol (child c <-> parent):
//   c -> p  'D'                    local workers finished cleanly
//   p -> c  'G'                    every node finished; tear down
//   p -> c  'C'                    another node failed; abandon the run
//   c -> p  'E' u64 len  blob      success epilogue (stats + app blob)
//   c -> p  'F' u64 len  blob      serialized RunReport (local failure)
// A child that gets 'C' (or loses the parent) exits silently with
// status 1; a child EOF without 'E'/'F' means it crashed outright.

namespace {

bool fd_send_all(int fd, const void* buf, std::size_t n) {
  const char* p = static_cast<const char*>(buf);
  while (n > 0) {
    const ssize_t k = ::send(fd, p, n, MSG_NOSIGNAL);
    if (k < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += k;
    n -= static_cast<std::size_t>(k);
  }
  return true;
}

bool fd_read_exact(int fd, void* buf, std::size_t n) {
  char* p = static_cast<char*>(buf);
  while (n > 0) {
    const ssize_t k = ::recv(fd, p, n, 0);
    if (k < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (k == 0) return false;  // EOF
    p += k;
    n -= static_cast<std::size_t>(k);
  }
  return true;
}

/// Bounded counterpart of fd_read_exact: poll before every recv and give
/// up (returning false) once `deadline` passes. Control-plane reads in
/// the parent must never block indefinitely on a wedged child — the
/// caller escalates to the SIGKILL backstop instead.
bool fd_read_deadline(int fd, void* buf, std::size_t n,
                      std::chrono::steady_clock::time_point deadline) {
  char* p = static_cast<char*>(buf);
  while (n > 0) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - std::chrono::steady_clock::now())
                          .count();
    if (left < 0) return false;
    pollfd pfd{fd, POLLIN, 0};
    const int pn = ::poll(&pfd, 1, static_cast<int>(std::min<long long>(
                                       left, 100)));
    if (pn < 0 && errno != EINTR) return false;
    if (pn <= 0) continue;
    const ssize_t k = ::recv(fd, p, n, 0);
    if (k < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (k == 0) return false;  // EOF
    p += k;
    n -= static_cast<std::size_t>(k);
  }
  return true;
}

/// Read one control byte, keeping room for an SCM_RIGHTS descriptor: the
/// rejoin handshake rides its fd on the first byte of the 'R' message,
/// and a plain read() at that moment would silently discard it.
/// Returns 1 on success, 0 on EOF, -1 on error; *out_fd receives the
/// passed descriptor (or stays -1).
int ctl_read_byte(int fd, char* c, int* out_fd) {
  *out_fd = -1;
  iovec iov{c, 1};
  alignas(cmsghdr) char cbuf[CMSG_SPACE(sizeof(int))];
  msghdr msg{};
  msg.msg_iov = &iov;
  msg.msg_iovlen = 1;
  msg.msg_control = cbuf;
  msg.msg_controllen = sizeof cbuf;
  for (;;) {
    const ssize_t k = ::recvmsg(fd, &msg, 0);
    if (k < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    if (k == 0) return 0;
    break;
  }
  for (cmsghdr* cm = CMSG_FIRSTHDR(&msg); cm != nullptr;
       cm = CMSG_NXTHDR(&msg, cm)) {
    if (cm->cmsg_level == SOL_SOCKET && cm->cmsg_type == SCM_RIGHTS) {
      std::memcpy(out_fd, CMSG_DATA(cm), sizeof(int));
    }
  }
  return 1;
}

/// Send a small control message with one descriptor attached to its
/// first byte (SCM_RIGHTS). The kernel duplicates the fd into the
/// receiver at delivery, so the caller may close its copy on return.
bool ctl_send_fd(int fd, const std::byte* hdr, std::size_t n, int pass_fd) {
  iovec iov{const_cast<std::byte*>(hdr), n};
  alignas(cmsghdr) char cbuf[CMSG_SPACE(sizeof(int))];
  std::memset(cbuf, 0, sizeof cbuf);
  msghdr msg{};
  msg.msg_iov = &iov;
  msg.msg_iovlen = 1;
  msg.msg_control = cbuf;
  msg.msg_controllen = sizeof cbuf;
  cmsghdr* cm = CMSG_FIRSTHDR(&msg);
  cm->cmsg_level = SOL_SOCKET;
  cm->cmsg_type = SCM_RIGHTS;
  cm->cmsg_len = CMSG_LEN(sizeof(int));
  std::memcpy(CMSG_DATA(cm), &pass_fd, sizeof(int));
  for (;;) {
    const ssize_t k = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (k < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    // A socketpair takes the whole few-byte message atomically; finish a
    // (theoretical) short write without re-sending the ancillary data.
    if (static_cast<std::size_t>(k) < n) {
      return fd_send_all(fd, hdr + k, n - static_cast<std::size_t>(k));
    }
    return true;
  }
}

bool ctl_send_blob(int fd, char type, const net::wire::Blob& b) {
  std::byte hdr[9];
  hdr[0] = static_cast<std::byte>(type);
  net::wire::put_u64(hdr + 1, b.size());
  if (!fd_send_all(fd, hdr, sizeof hdr)) return false;
  return b.size() == 0 || fd_send_all(fd, b.data(), b.size());
}

void serialize_report(net::wire::Blob& b, const Vsa::RunReport& r) {
  b.str(r.reason);
  b.u32(static_cast<std::uint32_t>(r.stuck_vdps.size()));
  for (const auto& s : r.stuck_vdps) b.str(s);
  b.i32(r.vdps_alive);
  b.u32(static_cast<std::uint32_t>(r.links.size()));
  for (const auto& g : r.links) {
    b.i32(g.src);
    b.i32(g.dst);
    b.i64(g.next_seq);
    b.i64(g.acked);
    b.i64(g.expected);
    b.i32(g.unacked);
    b.i32(g.buffered_out_of_order);
    b.u32(g.exhausted ? 1 : 0);
    b.u32(static_cast<std::uint32_t>(g.pending_tags.size()));
    for (int t : g.pending_tags) b.i32(t);
  }
  b.i64(r.faults.dropped);
  b.i64(r.faults.duplicated);
  b.i64(r.faults.delayed);
  b.i64(r.faults.reordered);
  b.i64(r.retransmits);
  b.u32(static_cast<std::uint32_t>(r.dead_ranks.size()));
  for (int d : r.dead_ranks) b.i32(d);
}

Vsa::RunReport deserialize_report(const std::byte* p, std::size_t n) {
  net::wire::BlobReader br(p, n);
  Vsa::RunReport r;
  r.reason = br.str();
  const std::uint32_t ns = br.u32();
  for (std::uint32_t i = 0; i < ns; ++i) r.stuck_vdps.push_back(br.str());
  r.vdps_alive = br.i32();
  const std::uint32_t nl = br.u32();
  for (std::uint32_t i = 0; i < nl; ++i) {
    net::LinkGap g;
    g.src = br.i32();
    g.dst = br.i32();
    g.next_seq = br.i64();
    g.acked = br.i64();
    g.expected = br.i64();
    g.unacked = br.i32();
    g.buffered_out_of_order = br.i32();
    g.exhausted = br.u32() != 0;
    const std::uint32_t nt = br.u32();
    for (std::uint32_t t = 0; t < nt; ++t) g.pending_tags.push_back(br.i32());
    r.links.push_back(std::move(g));
  }
  r.faults.dropped = br.i64();
  r.faults.duplicated = br.i64();
  r.faults.delayed = br.i64();
  r.faults.reordered = br.i64();
  r.retransmits = br.i64();
  const std::uint32_t nd = br.u32();
  for (std::uint32_t i = 0; i < nd; ++i) r.dead_ranks.push_back(br.i32());
  return r;
}

std::string failure_header(const std::string& reason, const Vsa::Config& cfg) {
  if (reason == "transport") {
    return "PRT transport: reliable delivery failed (retransmit limit "
           "reached after " +
           std::to_string(cfg.max_retransmits) +
           " attempts); tearing the run down.\n";
  }
  if (reason == "watchdog") {
    return "PRT watchdog: no VDP fired for " +
           std::to_string(cfg.watchdog_seconds) +
           "s; the VSA is deadlocked.\n";
  }
  return "PRT socket transport: a node process exited without a report "
         "(crash or abort in a forked node) and the respawn budget was "
         "exhausted or recovery is off (Config::max_respawns); tearing the "
         "run down.\n";
}

}  // namespace

void Vsa::child_main(int rank, std::vector<int> peer_fds, int control_fd,
                     std::uint32_t incarnation,
                     std::vector<std::uint32_t> peer_epochs) {
  auto sock_comm = std::make_unique<net::SocketComm>(
      cfg_.nodes, rank, std::move(peer_fds), incarnation,
      std::move(peer_epochs));
  net::SocketComm* sock = sock_comm.get();
  sock_comm_ = sock;
  comm_ = std::move(sock_comm);
  if (cfg_.fault_plan.any()) comm_->set_fault_plan(cfg_.fault_plan);
  const PacketPool::Stats pool0 = PacketPool::stats();
  recorder_ = std::make_unique<trace::Recorder>(total_threads(), cfg_.trace,
                                                cfg_.nodes);
  recorder_->start_clock();

  Node& node = *nodes_[rank];
  std::vector<Worker*> local;
  for (auto& w : workers_) {
    if (w->node_id == rank) local.push_back(w.get());
  }
  workers_running_.store(static_cast<int>(local.size()));
  if (cfg_.work_stealing) {
    // Seed only OUR node's VDPs as fire candidates; the rest of the graph
    // belongs to sibling processes.
    for (Vdp* v : creation_order_) {
      if (v->global_thread_ / cfg_.workers_per_node == rank) node.enqueue(v);
    }
  }
  for (Worker* w : local) {
    w->thread = std::thread([this, w, &node] {
      if (cfg_.work_stealing) {
        worker_loop_stealing(*w, node);
      } else {
        worker_loop(*w);
      }
    });
  }
  if (node.has_remote || cfg_.max_respawns > 0) {
    // With a respawn budget the proxy must exist even on a node with no
    // remote channels today: a rejoining replacement may need its acks
    // and replays served.
    node.proxy = std::thread([this, &node] { proxy_loop(node); });
  }

  bool parent_cancel = false;
  auto cancel_locally = [&] {
    cancelled_.store(true, std::memory_order_release);
    for (Worker* w : local) w->wake();
    {
      std::lock_guard<std::mutex> lock(node.pool_mu);
      node.pool_cv.notify_all();
    }
    comm_->interrupt(rank);
  };
  // Dispatch one pending control byte. Returns 0 when handled ('R'
  // rejoin, stray bytes), 1 on cancel ('C', EOF, parent death), 2 on 'G'.
  auto handle_ctl = [&]() -> int {
    char c = 0;
    int rfd = -1;
    const int k = ctl_read_byte(control_fd, &c, &rfd);
    if (k <= 0) {
      if (rfd >= 0) ::close(rfd);
      return 1;
    }
    if (c == 'R') {
      // Peer rejoin: the fresh socket fd rides the first byte of the
      // handshake (see wire::RejoinHdr). Queue it for the proxy thread.
      std::byte rest[net::wire::kRejoinBodyBytes];
      if (!fd_read_exact(control_fd, rest, sizeof rest)) {
        if (rfd >= 0) ::close(rfd);
        return 1;
      }
      const net::wire::RejoinHdr rj = net::wire::get_rejoin_body(rest);
      if (rfd >= 0 && rj.rank >= 0 && rj.rank < cfg_.nodes &&
          rj.rank != rank) {
        sock->rejoin_peer(rj.rank, rfd, rj.epoch);
      } else if (rfd >= 0) {
        ::close(rfd);
      }
      return 0;
    }
    if (rfd >= 0) ::close(rfd);
    if (c == 'G') return 2;
    return 1;  // 'C' or garbage: the run is over
  };
  // Liveness heartbeat to the parent (~5/s): its control plane SIGKILLs a
  // child it has not heard from in heartbeat_timeout_seconds.
  auto last_hb_sent = std::chrono::steady_clock::now();
  auto send_heartbeat = [&] {
    const auto now = std::chrono::steady_clock::now();
    if (now - last_hb_sent < 200ms) return;
    last_hb_sent = now;
    const char h = 'H';
    (void)fd_send_all(control_fd, &h, 1);
  };
  auto check_parent = [&] {
    pollfd pfd{control_fd, POLLIN, 0};
    if (::poll(&pfd, 1, 0) <= 0 ||
        (pfd.revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
      return;
    }
    if (handle_ctl() == 1) {
      parent_cancel = true;
      cancel_locally();
    }
  };

  // Per-process watchdog: local progress is a completed or in-flight
  // firing OR any frame accepted off the wire — a node whose VDPs are all
  // blocked on remote input is not deadlocked while its peers talk to it.
  long long last_fires = -1;
  long long last_rx = -1;
  std::vector<std::uint64_t> last_hb(local.size(), 0);
  auto last_progress = std::chrono::steady_clock::now();
  while (workers_running_.load(std::memory_order_acquire) > 0) {
    std::this_thread::sleep_for(1ms);
    check_parent();
    send_heartbeat();
    if (incarnation == 0 && cfg_.fault_plan.kill() &&
        cfg_.fault_plan.kill_rank == rank &&
        fires_.load(std::memory_order_relaxed) >= cfg_.fault_plan.kill_after) {
      // Injected crash: die exactly as a real segfault/OOM-kill would —
      // no unwinding, no 'F' report, sockets torn down by the kernel.
      // Only the first incarnation self-destructs, or the respawn loop
      // would never converge.
      ::kill(::getpid(), SIGKILL);
    }
    bool progress = false;
    const long long f = fires_.load(std::memory_order_relaxed);
    if (f != last_fires) {
      last_fires = f;
      progress = true;
    }
    const long long rx = sock->frames_received();
    if (rx != last_rx) {
      last_rx = rx;
      progress = true;
    }
    for (std::size_t i = 0; i < local.size(); ++i) {
      const std::uint64_t hb =
          local[i]->fire_epoch.load(std::memory_order_relaxed);
      if (hb != last_hb[i]) {
        last_hb[i] = hb;
        progress = true;
      } else if ((hb & 1u) != 0) {
        progress = true;
      }
    }
    if (progress) {
      last_progress = std::chrono::steady_clock::now();
    } else if (cfg_.watchdog_seconds > 0 &&
               std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             last_progress)
                       .count() > cfg_.watchdog_seconds) {
      cancel_locally();
      break;
    }
  }

  for (Worker* w : local) w->wake();
  {
    std::lock_guard<std::mutex> lock(node.pool_mu);
    node.pool_cv.notify_all();
  }
  for (Worker* w : local) {
    if (w->thread.joinable()) w->thread.join();
  }

  // Local workers done. Keep the proxy alive (late acks, retransmits for
  // peers still running) until the parent declares the whole run over.
  bool ok = !cancelled_.load(std::memory_order_acquire);
  if (ok) {
    const char d = 'D';
    ok = fd_send_all(control_fd, &d, 1);
  }
  while (ok) {
    if (cancelled_.load(std::memory_order_acquire)) {
      // Transport failure surfaced while waiting (exhausted retransmits
      // to a peer): downgrade to the failure path below.
      ok = false;
      break;
    }
    send_heartbeat();
    pollfd pfd{control_fd, POLLIN, 0};
    const int pn = ::poll(&pfd, 1, /*ms=*/10);
    if (pn < 0 && errno != EINTR) {
      ok = false;
      parent_cancel = true;
      break;
    }
    if (pn <= 0) continue;
    const int verdict = handle_ctl();
    if (verdict == 1) {
      ok = false;
      parent_cancel = true;
      cancelled_.store(true, std::memory_order_release);
      break;
    }
    if (verdict == 2) break;  // 'G': every node is done
  }

  done_.store(true, std::memory_order_release);
  comm_->interrupt(rank);
  if (node.proxy.joinable()) node.proxy.join();

  if (!ok) {
    // Always ship the local report — even when the parent initiated the
    // cancel. When a sibling process crashed, the survivors' link gaps
    // (who was mid-flight to the dead rank, and how far behind) are the
    // most useful part of the final diagnostic; the parent merges them.
    net::wire::Blob b;
    serialize_report(b, make_run_report(rank));
    (void)ctl_send_blob(control_fd, 'F', b);
    comm_.reset();  // join the receiver thread before exiting
    ::_exit(1);
  }

  // Success epilogue: this node's stats contribution plus the
  // application blob (collect hook) for the parent to merge.
  net::wire::Blob b;
  b.i64(fires_.load(std::memory_order_relaxed));
  b.u32(static_cast<std::uint32_t>(local.size()));
  for (Worker* w : local) b.f64(w->busy);
  b.f64(node.proxy_busy);
  b.i64(total_remote_msgs_.load(std::memory_order_relaxed));
  b.i64(total_remote_bytes_.load(std::memory_order_relaxed));
  b.i64(total_coalesced_.load(std::memory_order_relaxed));
  b.i64(total_aggregates_.load(std::memory_order_relaxed));
  b.i64(total_retransmits_.load(std::memory_order_relaxed));
  b.i64(total_dups_suppressed_.load(std::memory_order_relaxed));
  b.i64(total_acks_sent_.load(std::memory_order_relaxed));
  b.i64(comm_->messages_offered());
  b.i64(comm_->messages_sent());
  b.i64(comm_->bytes_sent());
  const net::FaultCounters fc = comm_->fault_counters();
  b.i64(fc.dropped);
  b.i64(fc.duplicated);
  b.i64(fc.delayed);
  b.i64(fc.reordered);
  b.u64(comm_->fault_streams());
  long long leftover = 0;
  for (Vdp* v : creation_order_) {
    if (v->global_thread_ / cfg_.workers_per_node != rank) continue;
    for (auto& ch : v->inputs_) leftover += ch->size();
  }
  while (auto m = comm_->try_recv(rank)) {
    if (!m->is_ack && m->seq < 0) ++leftover;
  }
  b.i64(leftover);
  const PacketPool::Stats pool1 = PacketPool::stats();
  b.i64(pool1.hits - pool0.hits);
  b.i64(pool1.misses - pool0.misses);
  if (collect_hook_) {
    const Packet app = collect_hook_();
    b.u64(app.size());
    if (app.size() > 0) b.bytes(app.bytes(), app.size());
  } else {
    b.u64(0);
  }
  // Crash-recovery epilogue: which incarnation finished, how many frames
  // this process replayed for rejoining peers, and (when tracing) the
  // local events with this process's clock epoch so the parent can
  // offset-align them onto one timeline.
  b.u32(incarnation);
  b.i64(total_replayed_.load(std::memory_order_relaxed));
  b.i64(recorder_->epoch_ns());
  const std::vector<trace::Event> events =
      cfg_.trace ? recorder_->collect() : std::vector<trace::Event>{};
  b.u64(events.size());
  for (const trace::Event& ev : events) {
    b.i32(ev.thread);
    b.i32(ev.color);
    b.u32(static_cast<std::uint32_t>(ev.tuple.size()));
    for (int x : ev.tuple.values()) b.i32(x);
    b.f64(ev.t0);
    b.f64(ev.t1);
  }
  (void)ctl_send_blob(control_fd, 'E', b);
  comm_.reset();  // join the receiver thread before exiting
  ::_exit(0);
}

Vsa::RunStats Vsa::run_socket() {
  const int N = cfg_.nodes;
  // The parent's recorder is purely a merge target: children ship their
  // events home in the 'E' epilogue together with their clock epoch, and
  // the parent offset-aligns them onto this recorder's timeline (Linux
  // CLOCK_MONOTONIC is machine-wide, so epochs are directly comparable).
  recorder_ = std::make_unique<trace::Recorder>(total_threads(), cfg_.trace,
                                                cfg_.nodes);
  recorder_->start_clock();
  auto mesh = net::SocketComm::socketpair_mesh(N);
  std::vector<int> ctl_parent(N, -1), ctl_child(N, -1);
  for (int r = 0; r < N; ++r) {
    int sv[2];
    require(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) == 0,
            "run: control socketpair failed: " +
                std::string(std::strerror(errno)));
    ctl_parent[r] = sv[0];
    ctl_child[r] = sv[1];
  }

  const auto t_start = std::chrono::steady_clock::now();
  std::vector<pid_t> pids(N, -1);
  std::vector<std::uint32_t> incarnation(N, 0);
  for (int r = 0; r < N; ++r) {
    const pid_t pid = ::fork();
    require(pid >= 0,
            "run: fork failed: " + std::string(std::strerror(errno)));
    if (pid == 0) {
      // Node process r: drop every inherited fd that is not ours (other
      // ranks' mesh rows, their control ends, all parent control ends).
      for (int a = 0; a < N; ++a) {
        if (a == r) continue;
        for (int bfd : mesh[a]) {
          if (bfd >= 0) ::close(bfd);
        }
      }
      for (int s = 0; s < N; ++s) {
        if (ctl_parent[s] >= 0) ::close(ctl_parent[s]);
        if (s != r && ctl_child[s] >= 0) ::close(ctl_child[s]);
      }
      child_main(r, std::move(mesh[r]), ctl_child[r], /*incarnation=*/0,
                 std::vector<std::uint32_t>(N, 0));  // never returns
    }
    pids[r] = pid;
  }
  for (auto& row : mesh) {
    for (int fd : row) {
      if (fd >= 0) ::close(fd);
    }
  }
  for (int r = 0; r < N; ++r) ::close(ctl_child[r]);

  // Control plane: collect 'D' from everyone, broadcast 'G', collect
  // epilogues. A child that dies without a report (EOF, SIGKILL,
  // heartbeat silence) is respawned from this process's pristine
  // pre-thread image while the respawn budget lasts; otherwise — and on
  // any 'F' — broadcast 'C' and re-throw the merged failure after
  // reaping every child.
  enum ChildState { kRunning, kDone, kEnded, kFailed };
  std::vector<int> state(N, kRunning);
  std::vector<std::vector<std::byte>> epilogue(N);
  std::vector<char> reaped(N, 0);
  bool go_sent = false, cancel_sent = false, failed = false;
  int respawns_used = 0;
  RunReport fail_report;
  const bool bounded = cfg_.watchdog_seconds > 0;
  // Generous backstop over the children's own watchdogs: if it trips,
  // a child is wedged beyond reporting (SIGKILL is all that is left).
  const auto kill_deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(cfg_.watchdog_seconds + 120.0));
  // Per-child liveness: children heartbeat ('H') about five times a
  // second; silence past this deadline means a wedged (not merely slow —
  // the heartbeat loop runs regardless of kernel durations) process and
  // is escalated to SIGKILL, which then takes the dead-child path below.
  const bool hb_bounded = cfg_.heartbeat_timeout_seconds > 0;
  const auto hb_timeout =
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(
              hb_bounded ? cfg_.heartbeat_timeout_seconds : 0.0));
  std::vector<std::chrono::steady_clock::time_point> last_heard(
      N, std::chrono::steady_clock::now());
  auto fail_with = [&](RunReport r) {
    if (!failed) {
      failed = true;
      fail_report = std::move(r);
      return;
    }
    // Later reports refine rather than replace the first: survivors' link
    // gaps and any additional dead ranks accumulate onto it.
    for (auto& g : r.links) fail_report.links.push_back(std::move(g));
    for (int d : r.dead_ranks) {
      if (std::find(fail_report.dead_ranks.begin(),
                    fail_report.dead_ranks.end(),
                    d) == fail_report.dead_ranks.end()) {
        fail_report.dead_ranks.push_back(d);
      }
    }
  };
  auto read_blob = [&](int fd, std::vector<std::byte>& out) {
    // Bounded: a child wedged mid-blob must not hang the control plane
    // past the liveness deadline it would otherwise be judged by.
    const auto deadline =
        std::chrono::steady_clock::now() +
        (hb_bounded ? hb_timeout
                    : std::chrono::steady_clock::duration(
                          std::chrono::hours(24)));
    std::byte len8[8];
    if (!fd_read_deadline(fd, len8, 8, deadline)) return false;
    const std::uint64_t len = net::wire::get_u64(len8);
    out.resize(len);
    return len == 0 || fd_read_deadline(fd, out.data(), len, deadline);
  };

  auto respawn = [&](int r) {
    ++respawns_used;
    ++incarnation[r];
    // Fresh socketpairs replacement <-> every survivor plus a new control
    // pair; the old descriptors died with the old process.
    std::vector<int> child_row(N, -1);
    std::vector<int> surv_fd(N, -1);
    for (int s = 0; s < N; ++s) {
      if (s == r) continue;
      int sv[2];
      require(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) == 0,
              "run: respawn socketpair failed: " +
                  std::string(std::strerror(errno)));
      child_row[s] = sv[0];
      surv_fd[s] = sv[1];
    }
    int ctl[2];
    require(::socketpair(AF_UNIX, SOCK_STREAM, 0, ctl) == 0,
            "run: respawn control socketpair failed: " +
                std::string(std::strerror(errno)));
    // The parent runs no threads, so fork here is as safe as the initial
    // fork loop: the replacement inherits the same pristine
    // copy-on-write image of the unrun graph (VDPs, channels, feeds) and
    // will re-fire its node from the start.
    const pid_t pid = ::fork();
    require(pid >= 0,
            "run: respawn fork failed: " + std::string(std::strerror(errno)));
    if (pid == 0) {
      for (int s = 0; s < N; ++s) {
        if (surv_fd[s] >= 0) ::close(surv_fd[s]);
        if (ctl_parent[s] >= 0) ::close(ctl_parent[s]);
      }
      ::close(ctl[0]);
      child_main(r, std::move(child_row), ctl[1], incarnation[r],
                 incarnation);  // never returns
    }
    pids[r] = pid;
    reaped[r] = 0;
    ctl_parent[r] = ctl[0];
    ::close(ctl[1]);
    for (int s = 0; s < N; ++s) {
      if (child_row[s] >= 0) ::close(child_row[s]);
    }
    // Hand every survivor its end of the fresh link: a wire::RejoinHdr
    // with the descriptor riding the first byte (SCM_RIGHTS duplicates
    // it into the survivor at delivery, so our copy closes).
    for (int s = 0; s < N; ++s) {
      if (surv_fd[s] < 0) continue;
      std::byte hdr[net::wire::kRejoinHdrBytes];
      net::wire::put_rejoin_hdr(
          hdr, net::wire::RejoinHdr{r, incarnation[r]});
      if (state[s] != kFailed && ctl_parent[s] >= 0) {
        (void)ctl_send_fd(ctl_parent[s], hdr, sizeof hdr, surv_fd[s]);
      }
      ::close(surv_fd[s]);
    }
    // The replacement must re-finish its node: re-gate 'G' on it.
    state[r] = kRunning;
    last_heard[r] = std::chrono::steady_clock::now();
  };

  auto handle_child_death = [&](int r) {
    if (!reaped[r]) {
      int st = 0;
      ::waitpid(pids[r], &st, 0);
      reaped[r] = 1;
    }
    if (ctl_parent[r] >= 0) {
      ::close(ctl_parent[r]);
      ctl_parent[r] = -1;
    }
    if (state[r] == kEnded) return;  // epilogue already delivered
    if (!failed && !go_sent && respawns_used < cfg_.max_respawns) {
      respawn(r);
      return;
    }
    // No budget left, or the run is past the point of recovery (once 'G'
    // is out, survivors tear their protocol state down and the dead
    // rank's epilogue may be gone with it): structured failure naming
    // the dead rank and — from this process's pristine image — the VDP
    // tuples that died with it.
    state[r] = kFailed;
    RunReport rep = make_run_report(r);
    rep.reason = "process";
    rep.dead_ranks.push_back(r);
    fail_with(std::move(rep));
  };

  for (;;) {
    int terminal = 0;
    bool all_past_running = true;
    for (int r = 0; r < N; ++r) {
      if (state[r] == kEnded || state[r] == kFailed) ++terminal;
      if (state[r] == kRunning) all_past_running = false;
    }
    if (terminal == N) break;
    if (failed && !cancel_sent) {
      const char c = 'C';
      for (int r = 0; r < N; ++r) {
        if (state[r] == kRunning || state[r] == kDone) {
          (void)fd_send_all(ctl_parent[r], &c, 1);
        }
      }
      cancel_sent = true;
    }
    if (!go_sent && !failed && all_past_running) {
      const char g = 'G';
      for (int r = 0; r < N; ++r) (void)fd_send_all(ctl_parent[r], &g, 1);
      go_sent = true;
    }

    std::vector<pollfd> pfds;
    std::vector<int> owners;
    for (int r = 0; r < N; ++r) {
      if (state[r] == kEnded || state[r] == kFailed) continue;
      pfds.push_back({ctl_parent[r], POLLIN, 0});
      owners.push_back(r);
    }
    const int pn = ::poll(pfds.data(), pfds.size(), /*ms=*/100);
    const auto now = std::chrono::steady_clock::now();
    if (bounded && now > kill_deadline) {
      for (int r = 0; r < N; ++r) {
        if (!reaped[r]) ::kill(pids[r], SIGKILL);
      }
      for (int r = 0; r < N; ++r) {
        if (!reaped[r]) {
          int st = 0;
          ::waitpid(pids[r], &st, 0);
        }
        if (ctl_parent[r] >= 0) ::close(ctl_parent[r]);
      }
      throw RunError(
          "PRT socket transport: node processes stopped responding; "
          "killed.\n",
          make_run_report());
    }
    // Heartbeat deadline: a child silent past the timeout is wedged.
    // SIGKILL it and take the normal dead-child path (respawn or fail).
    if (hb_bounded) {
      for (int r = 0; r < N; ++r) {
        if (state[r] == kEnded || state[r] == kFailed) continue;
        if (now - last_heard[r] > hb_timeout) {
          ::kill(pids[r], SIGKILL);
          handle_child_death(r);
        }
      }
    }
    if (pn <= 0) continue;
    for (std::size_t i = 0; i < pfds.size(); ++i) {
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const int r = owners[i];
      // Skip entries whose fd was closed or replaced since the poll (a
      // heartbeat kill or an earlier death in this same sweep respawned
      // the rank): the snapshot no longer describes this child.
      if (ctl_parent[r] != pfds[i].fd) continue;
      char t = 0;
      if (!fd_read_exact(pfds[i].fd, &t, 1)) {
        handle_child_death(r);  // EOF without 'E'/'F': crashed outright
        continue;
      }
      last_heard[r] = std::chrono::steady_clock::now();
      if (t == 'H') {
        // Liveness heartbeat only.
      } else if (t == 'D') {
        state[r] = kDone;
      } else if (t == 'E') {
        if (read_blob(pfds[i].fd, epilogue[r])) {
          state[r] = kEnded;
        } else {
          ::kill(pids[r], SIGKILL);
          handle_child_death(r);
        }
      } else if (t == 'F') {
        std::vector<std::byte> blob;
        state[r] = kFailed;
        if (read_blob(pfds[i].fd, blob)) {
          fail_with(deserialize_report(blob.data(), blob.size()));
        } else {
          RunReport rep;
          rep.reason = "process";
          fail_with(std::move(rep));
        }
      } else {
        // Protocol violation: treat it as a crash of the child.
        ::kill(pids[r], SIGKILL);
        handle_child_death(r);
      }
    }
  }

  for (int r = 0; r < N; ++r) {
    if (!reaped[r]) {
      int st = 0;
      ::waitpid(pids[r], &st, 0);
    }
    if (ctl_parent[r] >= 0) ::close(ctl_parent[r]);
  }
  if (failed) {
    // Header first: argument evaluation is unsequenced, so reading
    // fail_report.reason inline could see the already-moved-from report.
    std::string header = failure_header(fail_report.reason, cfg_);
    throw RunError(std::move(header), std::move(fail_report));
  }

  RunStats stats;
  stats.respawns = respawns_used;
  stats.busy_per_thread.assign(total_threads(), 0.0);
  stats.proxy_busy_per_node.assign(N, 0.0);
  const std::int64_t parent_epoch_ns = recorder_->epoch_ns();
  for (int r = 0; r < N; ++r) {
    net::wire::BlobReader br(epilogue[r].data(), epilogue[r].size());
    const long long child_fires = br.i64();
    stats.fires += child_fires;
    const std::uint32_t nw = br.u32();
    for (std::uint32_t l = 0; l < nw; ++l) {
      stats.busy_per_thread[r * cfg_.workers_per_node + l] = br.f64();
    }
    stats.proxy_busy_per_node[r] = br.f64();
    stats.remote_messages += br.i64();
    stats.remote_bytes += br.i64();
    stats.coalesced_frames += br.i64();
    stats.aggregates_sent += br.i64();
    stats.retransmits += br.i64();
    stats.duplicates_suppressed += br.i64();
    stats.acks_sent += br.i64();
    stats.wire_offered += br.i64();
    stats.wire_messages += br.i64();
    stats.wire_bytes += br.i64();
    stats.faults.dropped += br.i64();
    stats.faults.duplicated += br.i64();
    stats.faults.delayed += br.i64();
    stats.faults.reordered += br.i64();
    stats.fault_streams += static_cast<long long>(br.u64());
    stats.leftover_packets += static_cast<int>(br.i64());
    stats.pool_hits += br.i64();
    stats.pool_misses += br.i64();
    const std::uint64_t app_len = br.u64();
    Packet app;
    if (app_len > 0) {
      app = Packet::make(app_len);
      std::memcpy(app.bytes(), br.take(app_len), app_len);
    }
    if (merge_hook_) merge_hook_(r, app);
    // Crash-recovery tail of the epilogue: incarnation, replay work, and
    // (when tracing) the child's events offset-aligned onto the parent's
    // clock so the merged timeline is coherent across processes.
    const std::uint32_t child_incarnation = br.u32();
    if (child_incarnation > 0) stats.refired_fires += child_fires;
    stats.replayed_frames += br.i64();
    const std::int64_t child_epoch_ns = br.i64();
    const double off =
        static_cast<double>(child_epoch_ns - parent_epoch_ns) * 1e-9;
    const std::uint64_t nev = br.u64();
    for (std::uint64_t e = 0; e < nev; ++e) {
      trace::Event ev;
      ev.thread = br.i32();
      ev.color = br.i32();
      const std::uint32_t tn = br.u32();
      std::vector<int> vals(tn);
      for (std::uint32_t x = 0; x < tn; ++x) vals[x] = br.i32();
      ev.tuple = Tuple(std::move(vals));
      ev.t0 = br.f64() + off;
      ev.t1 = br.f64() + off;
      recorder_->inject(ev);
    }
  }
  stats.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t_start)
          .count();
  return stats;
}

Vsa::RunReport Vsa::make_run_report(int only_node) const {
  RunReport r;
  r.reason = transport_failed_.load(std::memory_order_acquire) ? "transport"
                                                               : "watchdog";
  int shown = 0;
  for (const Vdp* v : creation_order_) {
    if (only_node >= 0 &&
        v->global_thread_ / cfg_.workers_per_node != only_node) {
      continue;
    }
    if (v->dead()) continue;
    ++r.vdps_alive;
    if (shown >= 20) continue;
    ++shown;
    r.stuck_vdps.push_back("VDP " + v->tuple_.to_string() +
                           " counter=" + std::to_string(v->counter_) +
                           " inputs=" + describe_input_slots(*v));
  }
  // comm_ is null in the socket-transport parent (the control plane never
  // opens a communicator); its report carries no fault totals.
  if (comm_) r.faults = comm_->fault_counters();
  r.retransmits = total_retransmits_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(fail_mu_);
    for (const auto& g : link_gaps_) {
      // Keep only links with something actually in flight or broken —
      // naming every idle link would bury the culprit.
      const bool sender_stuck = g.next_seq >= 0 && (g.unacked > 0 || g.exhausted);
      const bool receiver_stuck = g.expected >= 0 && g.buffered_out_of_order > 0;
      if (sender_stuck || receiver_stuck) r.links.push_back(g);
    }
  }
  return r;
}

std::string Vsa::RunReport::to_string() const {
  std::ostringstream os;
  if (!dead_ranks.empty()) {
    os << "  dead node processes:";
    for (int r : dead_ranks) os << ' ' << r;
    os << '\n';
  }
  for (const std::string& line : stuck_vdps) os << "  " << line << '\n';
  os << "  (" << vdps_alive << " VDPs still alive)";
  for (const auto& g : links) os << "\n  " << g.to_string();
  if (faults.total() > 0) {
    os << "\n  injected faults: dropped=" << faults.dropped
       << " duplicated=" << faults.duplicated << " delayed=" << faults.delayed
       << " reordered=" << faults.reordered;
  }
  if (retransmits > 0) os << "\n  retransmits=" << retransmits;
  return os.str();
}

}  // namespace pulsarqr::prt
