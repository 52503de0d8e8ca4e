#include "prt/vsa.hpp"

#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <tuple>
#include <utility>

#include "prt/graph_check.hpp"
#include "prt/packet_pool.hpp"
#include "prt/proxy.hpp"
#include "prt/socket_comm.hpp"

namespace pulsarqr::prt {

using namespace std::chrono_literals;

namespace {
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::this_thread::yield();
#endif
}

/// Adaptive spin-then-park wake state: a generation counter bumped by
/// every wake, plus a parked count so wakers skip the mutex entirely while
/// nobody is parked (the common case). Dekker pairing: a waiter publishes
/// parked then re-reads the epoch, a waker publishes the epoch then reads
/// parked — both seq_cst, so no wake is ever lost. Each worker owns one
/// and is its only waiter.
struct Parker : Waker {
  std::atomic<std::uint64_t> epoch{0};
  std::atomic<int> parked{0};
  std::mutex mu;
  std::condition_variable cv;

  void wake() override {
    epoch.fetch_add(1, std::memory_order_seq_cst);
    if (parked.load(std::memory_order_seq_cst) > 0) {
      std::lock_guard<std::mutex> lock(mu);  // pairs with the parked wait
      cv.notify_one();
    }
  }

  /// Spin-then-park until the epoch moves past `seen` (a value read
  /// BEFORE the caller looked for work, so any wake during the look
  /// returns immediately) or `stop()` turns true. There is no timeout:
  /// every store that can turn `stop()` true from another thread (a
  /// cancel) is followed by a wake, and the rest of `stop()` changes only
  /// on the waiting worker's own thread.
  template <class Stop>
  void wait(std::uint64_t seen, int spin_us, Stop stop) {
    if (spin_us > 0) {
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::microseconds(spin_us);
      int iter = 0;
      while (epoch.load(std::memory_order_acquire) == seen) {
        cpu_relax();
        if ((++iter & 63) == 0 &&
            (stop() || std::chrono::steady_clock::now() >= deadline)) {
          break;
        }
      }
      if (epoch.load(std::memory_order_acquire) != seen || stop()) return;
    }
    std::unique_lock<std::mutex> lock(mu);
    parked.fetch_add(1, std::memory_order_seq_cst);
    cv.wait(lock, [&] {
      return epoch.load(std::memory_order_seq_cst) != seen || stop();
    });
    parked.fetch_sub(1, std::memory_order_relaxed);
  }
};
}  // namespace

// ---- runtime structures -----------------------------------------------------

struct Vsa::Worker {
  int node_id = 0;
  int global_id = 0;
  std::vector<Vdp*> vdps;
  int alive = 0;
  double busy = 0.0;
  Parker parker;  ///< woken by its VDPs' input channels

  // Heartbeat for the watchdog: incremented entering AND leaving fire(),
  // so an odd value means "a firing is in flight on this worker".
  std::atomic<std::uint64_t> fire_epoch{0};

  std::thread thread;
};

struct Vsa::Node {
  int id = 0;
  RouteTable routes;  ///< [src node][tag]: inter-node channels into here
  bool has_remote = false;
  std::thread proxy;

  // Outgoing inter-node packets, drained by this node's proxy. Figure 4
  // draws one queue per worker; one per node lets the proxy take every
  // worker's packets in one swap. A channel's packets keep their order
  // because all firings of its producer run on the producer's one worker.
  std::mutex omu;
  std::deque<OutMsg> outq;  ///< guarded by omu
};

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
                  int in_slot, std::size_t max_bytes, bool enabled) {
  edges_.push_back({src, out_slot, dst, in_slot, max_bytes, enabled});
}

void Vsa::feed(const Tuple& dst, int in_slot, std::size_t max_bytes,
               std::vector<Packet> initial, bool enabled) {
  feeds_.push_back({dst, in_slot, max_bytes, std::move(initial), enabled});
}

void Vsa::map_vdp(const Tuple& tuple, int global_thread) {
  explicit_map_[tuple] = global_thread;
}

// ---- wiring -----------------------------------------------------------------

std::vector<int> Vsa::placement() const {
  std::vector<int> out;
  int rr = 0;
  for (const Vdp* v : creation_order_) {
    if (auto it = explicit_map_.find(v->tuple_); it != explicit_map_.end()) {
      out.push_back(it->second);
    } else {
      out.push_back(rr++ % total_threads());
    }
  }
  return out;
}

void Vsa::validate_and_wire() {
  const int total = total_threads();

  // Assign VDPs to threads.
  const std::vector<int> threads = placement();
  for (std::size_t i = 0; i < threads.size(); ++i) {
    Vdp* v = creation_order_[i];
    const int t = threads[i];
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
    node->routes.resize(cfg_.nodes);
    nodes_.push_back(std::move(node));
  }
  for (int t = 0; t < total; ++t) {
    auto w = std::make_unique<Worker>();
    w->global_id = t;
    w->node_id = t / cfg_.workers_per_node;
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
    auto ch = std::make_unique<Channel>(f.max_bytes, f.enabled);
    for (auto& p : f.initial) ch->push(std::move(p));
    dst.inputs_[f.in_slot] = std::move(ch);
  }

  // Regular edges.
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

    auto ch = std::make_unique<Channel>(e.max_bytes, e.enabled);
    Channel* chp = ch.get();
    dst.inputs_[e.in_slot] = std::move(ch);

    OutputRef& out = src.outputs_[e.out_slot];
    out.connected = true;
    out.max_bytes = e.max_bytes;
    const int src_node = src.global_thread_ / cfg_.workers_per_node;
    const int dst_node = dst.global_thread_ / cfg_.workers_per_node;
    if (src_node == dst_node) {
      out.local = chp;  // zero-copy shared-memory path
    } else {
      std::vector<Route>& row = nodes_[dst_node]->routes[src_node];
      out.dst_node = dst_node;
      out.tag = static_cast<int>(row.size());
      row.push_back({chp});
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

  // Attach wakers now that ownership is final: a packet wakes the
  // destination VDP's bound worker.
  for (Vdp* v : creation_order_) {
    Waker* waker = &workers_[v->global_thread_]->parker;
    for (auto& ch : v->inputs_) ch->set_waker(waker);
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
  // Inter-node: hand the packet to the node's outgoing queue and wake its
  // proxy through its mailbox (MPI-progress style).
  Node& n = *nodes_[ctx.node];
  {
    std::lock_guard<std::mutex> lock(n.omu);
    n.outq.push_back({out.dst_node, out.tag, std::move(p)});
  }
  comm_->interrupt(ctx.node);
}

void VdpContext::push(int slot, Packet p) {
  vsa.push_from(*this, slot, std::move(p));
}

// ---- execution --------------------------------------------------------------

bool Vsa::fire(Vdp& v, Worker& w) {
  // Heartbeat -> odd: tells the watchdog a firing STARTED (and is still
  // in flight), so one kernel outliving watchdog_seconds is progress, not
  // a deadlock.
  w.fire_epoch.fetch_add(1, std::memory_order_relaxed);
  const double t0 = recorder_->now();
  VdpContext ctx{v, *this, w.node_id, w.global_id};
  try {
    v.fn_(ctx);
  } catch (...) {
    cancel_run_from_vdp(v, std::current_exception());
    w.fire_epoch.fetch_add(1, std::memory_order_relaxed);  // back to even
    return false;
  }
  --v.counter_;
  if (v.counter_ <= 0) {
    v.dead_ = true;
    v.local_.reset();
  }
  const double t1 = recorder_->now();
  w.busy += t1 - t0;
  recorder_->record(w.global_id, v.color_, v.tuple_, t0, t1);
  w.fire_epoch.fetch_add(1, std::memory_order_relaxed);  // back to even
  fires_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool Vsa::fire_ready(Vdp& v, Worker& w) {
  bool fired = false;
  while (v.ready()) {
    fired = true;
    if (!fire(v, w) || v.dead() || cfg_.scheduling == Scheduling::Lazy) break;
  }
  return fired;
}

bool Vsa::sweep(Worker& w) {
  bool fired = false;
  for (Vdp* v : w.vdps) {
    if (v->dead()) continue;
    fired |= fire_ready(*v, w);
    if (v->dead()) --w.alive;
    if (cancelled_.load(std::memory_order_relaxed)) break;
  }
  return fired;
}

void Vsa::worker_loop(Worker& w) {
  auto stop = [&] {
    return cancelled_.load(std::memory_order_relaxed) || w.alive <= 0;
  };
  while (!stop()) {
    // Sample the wake epoch BEFORE the sweep: a packet arriving for a VDP
    // the sweep already passed bumps the epoch and voids the wait below.
    const std::uint64_t seen = w.parker.epoch.load(std::memory_order_acquire);
    if (!sweep(w)) w.parker.wait(seen, spin_us_, stop);
  }
  workers_running_.fetch_sub(1, std::memory_order_acq_rel);
}

net::Reliable::Params Vsa::endpoint_params(int node, bool recovery) {
  net::Reliable::Params params;
  params.sequenced = cfg_.reliable_transport;
  params.rto_us = cfg_.retransmit_timeout_us;
  params.max_retries = cfg_.max_retransmits;
  if (recovery) {
    params.replay_log_bytes = cfg_.replay_log_bytes;
    // While a peer's process is down (EOF / write failure seen, no
    // replacement yet) retransmits to it are deferred, not charged against
    // the retry budget.
    params.link_up = [this](int r) { return sock_comm_->peer_alive(r); };
  }
  if (recorder_->enabled()) {
    // Retransmissions show up as zero-width marks on the node's proxy lane
    // (lane total_threads()+node), tuple = (dst, tag, seq).
    params.on_retransmit = [this, node](int dst, int tag, long long seq) {
      recorder_->record_mark(total_threads() + node, trace::kColorTransport,
                             Tuple{dst, tag, static_cast<int>(seq)},
                             recorder_->now());
    };
  }
  return params;
}

void Vsa::proxy_loop(Node& n) {
  using Clock = std::chrono::steady_clock;
  // Crash recovery is active only in socket node processes with a respawn
  // budget: the Reliable endpoint then retains acked frames for replay and
  // idles retransmits to dead peers instead of exhausting, and the ingress
  // fences stale incarnations and dedups a replacement's re-sent prefix.
  const bool recovery = sock_comm_ != nullptr && cfg_.max_respawns > 0;
  // One endpoint sends and feeds the ingress: sequenced under
  // reliable_transport, a raw pass-through otherwise.
  net::Reliable rel(*comm_, n.id, endpoint_params(n.id, recovery));
  Ingress::EpochFn fence;  // a peer's current incarnation
  if (recovery) fence = [this](int r) { return sock_comm_->peer_epoch(r); };
  Ingress ingress(n.routes, rel, std::move(fence));
  // An idle proxy re-polls this often, although every push and every
  // arrival interrupts its wait; the value is not set by measurement yet.
  constexpr int kIdleWaitUs = 200;
  std::deque<OutMsg> batch;
  std::optional<net::Message> waited;  // what the idle wait received
  double busy = 0.0;
  long long frames = 0, bytes = 0;  // application frames sent, payload bytes
  for (;;) {
    const auto t0 = Clock::now();
    bool any = false;
    if (recovery) {
      // Install any peer rejoin queued by the control thread. This thread
      // owns the Reliable endpoint and the routes, so install, replay and
      // dedup snapshot are one atomic step from the proxy's view.
      for (const auto& rj : sock_comm_->take_rejoins()) {
        any = true;
        sock_comm_->install_rejoin(rj);
        // A replay log that overflowed its byte budget before this crash
        // lost acked history the replacement needs: fail the run instead
        // of silently wedging it. The replayed frames fall due at t0, so
        // the next poll() resends them.
        if (rel.replay_link(rj.rank, t0) < 0) cancel_run_from_transport();
        ingress.rejoin(rj.rank);
      }
    }
    // Swap the whole outgoing queue out under one lock, then send it
    // lock-free, one wire message per frame; drain the mailbox in one swap.
    batch.clear();
    {
      std::lock_guard<std::mutex> lock(n.omu);
      batch.swap(n.outq);
    }
    for (const OutMsg& m : batch) {
      rel.send(m.dst_node, m.tag, m.p, m.p.meta());
      bytes += static_cast<long long>(m.p.size());
    }
    frames += static_cast<long long>(batch.size());
    std::deque<net::Message> arrived = comm_->drain(n.id);
    if (waited) arrived.push_front(*std::exchange(waited, std::nullopt));
    any |= !batch.empty() || !arrived.empty();
    ingress.receive(std::move(arrived));
    const bool winding_down = done_.load(std::memory_order_acquire) ||
                              cancelled_.load(std::memory_order_acquire);
    rel.flush_acks();
    // Retransmit timed-out frames only while the run is live: a finished
    // or cancelled run must not ping-pong late frames between exiting
    // proxies, and an unacked frame after completion (receiver done, final
    // ack lost) is not a failure.
    if (!winding_down && !rel.poll(Clock::now())) cancel_run_from_transport();
    busy += std::chrono::duration<double>(Clock::now() - t0).count();
    if (any) continue;
    if (winding_down) break;
    waited = comm_->recv_wait(n.id, kIdleWaitUs);
  }
  // Publish this proxy's totals (and, on a failed run, its link
  // snapshots); run_local joins the proxies before reading them.
  std::lock_guard<std::mutex> lock(exit_mu_);
  stats_.proxy_busy_per_node[n.id] = busy;
  stats_.remote_messages += frames;
  stats_.remote_bytes += bytes;
  stats_.retransmits += rel.retransmits();
  stats_.duplicates_suppressed += rel.duplicates_suppressed();
  stats_.acks_sent += rel.acks_sent();
  stats_.replayed_frames += rel.replayed();
  if (cancelled_.load(std::memory_order_acquire)) {
    for (auto& g : rel.gaps()) link_gaps_.push_back(std::move(g));
  }
}

void Vsa::wake_all() {
  for (auto& w : workers_) w->parker.wake();
  // Proxies blocked in recv_wait. A socket node process interrupts only
  // its own mailbox: interrupting a peer rank would put a frame on the
  // wire.
  for (int r = 0; r < cfg_.nodes; ++r) {
    if (sock_comm_ == nullptr || r == sock_comm_->rank()) comm_->interrupt(r);
  }
}

void Vsa::cancel_run_from_transport() {
  if (transport_failed_.exchange(true, std::memory_order_acq_rel)) return;
  cancelled_.store(true, std::memory_order_release);
  wake_all();
}

void Vsa::cancel_run_from_vdp(const Vdp& v, std::exception_ptr e) {
  std::string what = "an exception not derived from std::exception";
  try {
    std::rethrow_exception(e);
  } catch (const std::exception& x) {
    what = x.what();
  } catch (...) {
  }
  {
    std::lock_guard<std::mutex> lock(exit_mu_);
    if (vdp_failure_) return;  // the first failure is the one reported
    vdp_failure_.emplace(v.tuple_, std::move(what));
  }
  cancelled_.store(true, std::memory_order_release);
  wake_all();
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
  // The protocol's timing knobs are read only when it is on. A bad one
  // fails here, before any thread or fork, not in a proxy thread.
  require(!cfg_.reliable_transport || (cfg_.retransmit_timeout_us > 0 &&
                                       cfg_.max_retransmits >= 0),
          "run: retransmit_timeout_us must be > 0 and max_retransmits >= 0");
  require(!cfg_.fault_plan.kill() || cfg_.transport == Transport::Socket,
          "run: FaultPlan kill faults require the Socket transport (there is "
          "no process to kill in-process)");

  // One trace clock for the whole run, with one extra lane per node for
  // its proxy (transport marks). Socket node processes inherit it across
  // the fork, so their events land on this process's timeline as
  // recorded.
  recorder_ = std::make_unique<trace::Recorder>(total_threads(), cfg_.trace,
                                                cfg_.nodes);
  if (cfg_.transport == Transport::Socket) return run_socket();

  comm_ = std::make_unique<net::MailboxComm>(cfg_.nodes);
  if (cfg_.fault_plan.any()) comm_->set_fault_plan(cfg_.fault_plan);
  RunStats stats = run_local(-1);
  if (cancelled_.load()) {
    // Workers and proxies are already joined: the teardown is complete
    // and the error below is the only thing that escapes.
    RunReport report = make_run_report();
    std::string header = failure_header(report);
    throw RunError(std::move(header), std::move(report));
  }
  return stats;
}

Vsa::RunStats Vsa::run_local(int only_node,
                             const std::function<long long()>& tick,
                             const std::function<void()>& workers_done) {
  auto local = [&](int node) { return only_node < 0 || node == only_node; };
  // Pool counters are process-global; snapshot them so RunStats reports
  // this run's delta (a warmed pool shows zero misses here).
  const PacketPool::Stats pool0 = PacketPool::stats();
  stats_.proxy_busy_per_node.assign(cfg_.nodes, 0.0);
  stats_.sys_seconds_per_node.assign(cfg_.nodes, 0.0);
  stats_.minor_faults_per_node.assign(cfg_.nodes, 0);

  std::vector<Worker*> workers;
  for (auto& w : workers_) {
    if (local(w->node_id)) workers.push_back(w.get());
  }
  workers_running_.store(static_cast<int>(workers.size()));
  const auto t_start = std::chrono::steady_clock::now();
  for (Worker* w : workers) {
    w->thread = std::thread([this, w] { worker_loop(*w); });
  }
  for (auto& n : nodes_) {
    // With a respawn budget a socket node needs its proxy even with no
    // remote channels today: a rejoining replacement may need its acks
    // and replays served.
    if (local(n->id) && (n->has_remote || cfg_.max_respawns > 0)) {
      n->proxy = std::thread([this, np = n.get()] { proxy_loop(*np); });
    }
  }

  // Watchdog: progress is any completed fire, any fire START since the
  // last check, a firing currently in flight (odd per-worker heartbeat),
  // or a move of the tick's progress count (a socket node whose VDPs
  // all wait on remote input is not deadlocked while its peers talk to
  // it). A single kernel outliving watchdog_seconds is therefore never a
  // false deadlock; only "no VDP can fire anywhere" trips it.
  long long last_count = -1;
  std::vector<std::uint64_t> last_heartbeat(workers.size(), 0);
  auto last_progress = std::chrono::steady_clock::now();
  while (workers_running_.load(std::memory_order_acquire) > 0) {
    std::this_thread::sleep_for(1ms);
    bool progress = false;
    const long long extra = tick ? tick() : 0;
    const long long count = extra + fires_.load(std::memory_order_relaxed);
    if (count != last_count) {
      last_count = count;
      progress = true;
    }
    for (std::size_t i = 0; i < workers.size(); ++i) {
      const std::uint64_t hb =
          workers[i]->fire_epoch.load(std::memory_order_relaxed);
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

  // Shut down: wake everything, join workers, then proxies — which keep
  // serving late acks and retransmits until done_.
  wake_all();
  for (Worker* w : workers) w->thread.join();
  if (workers_done) workers_done();
  done_.store(true, std::memory_order_release);
  wake_all();
  for (auto& n : nodes_) {
    if (n->proxy.joinable()) n->proxy.join();
  }

  RunStats s = stats_;
  s.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t_start)
          .count();
  s.fires = fires_.load();
  s.wire_offered = comm_->messages_offered();
  s.wire_messages = comm_->messages_sent();
  s.wire_bytes = comm_->bytes_sent();
  s.fault_streams = static_cast<long long>(comm_->fault_streams());
  s.faults = comm_->fault_counters();
  const PacketPool::Stats pool1 = PacketPool::stats();
  s.pool_hits = pool1.hits - pool0.hits;
  s.pool_misses = pool1.misses - pool0.misses;
  for (auto& w : workers_) s.busy_per_thread.push_back(w->busy);
  for (Vdp* v : creation_order_) {
    if (!local(v->global_thread_ / cfg_.workers_per_node)) continue;
    for (auto& ch : v->inputs_) s.leftover_packets += ch->size();
  }
  for (int r = 0; r < cfg_.nodes; ++r) {
    if (!local(r)) continue;
    while (auto m = comm_->try_recv(r)) {
      // Protocol frames lingering in a mailbox after a successful run
      // (late pure acks, retransmitted copies of already-delivered data)
      // are expected residue, not lost application packets.
      if (!m->is_ack && m->seq < 0) ++s.leftover_packets;
    }
  }
  return s;
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
    // The socket-transport parent's image never ran (comm_ is null there,
    // see below): its queues say nothing about a dead rank's.
    if (comm_) {
      for (const auto& ch : v->inputs_) r.leftover_packets += ch->size();
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
  {
    std::lock_guard<std::mutex> lock(exit_mu_);
    if (vdp_failure_) {
      r.reason = "vdp";
      std::tie(r.failed_vdp, r.vdp_error) = *vdp_failure_;
    }
    r.retransmits = stats_.retransmits;
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

std::string Vsa::failure_header(const RunReport& r) const {
  const std::string& reason = r.reason;
  if (reason == "vdp") {
    return "PRT: VDP " + r.failed_vdp.to_string() + " threw: " + r.vdp_error +
           "; the run was cancelled.\n";
  }
  if (reason == "transport") {
    return "PRT transport: reliable delivery failed (retransmit limit "
           "reached after " +
           std::to_string(cfg_.max_retransmits) +
           " attempts); tearing the run down.\n";
  }
  if (reason == "watchdog") {
    return "PRT watchdog: no VDP fired for " +
           std::to_string(cfg_.watchdog_seconds) +
           "s; the VSA is deadlocked.\n";
  }
  return "PRT socket transport: a node process exited without a report "
         "(crash or abort in a node process) and the respawn budget was "
         "exhausted or recovery is off (Config::max_respawns); tearing the "
         "run down.\n";
}

}  // namespace pulsarqr::prt
