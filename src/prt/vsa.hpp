// Virtual Systolic Array + the PULSAR Runtime (PRT) execution engine
// (Section IV of the paper).
//
// The VSA is built once (VDPs + channels + an optional feed of initial
// packets), then run() maps VDPs onto virtual nodes and worker threads,
// spawns one proxy thread per node for inter-node traffic (served by the
// prt::net loopback transport — the MPI substitution), and executes until
// every VDP's counter reaches zero.
#pragma once

#include <any>
#include <atomic>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "prt/trace.hpp"
#include "prt/transport.hpp"
#include "prt/vdp.hpp"

namespace pulsarqr::prt {

namespace net {
class SocketComm;
namespace wire {
class Blob;
class BlobReader;
}  // namespace wire
}  // namespace net

/// Lazy fires a ready VDP once then moves on (encourages lookahead; the
/// paper's best scheme for tree QR); Aggressive re-fires while ready.
enum class Scheduling { Lazy, Aggressive };

/// Which transport backend carries inter-node traffic (paper §IV-B).
/// InProcess: every node is a thread group in this process and frames
/// move through per-rank mailboxes (net::MailboxComm). Socket: run()
/// forks one real OS process per node and frames cross Unix-domain
/// stream sockets (net::SocketComm) — real address-space isolation,
/// selectable per run with no change to the VSA graph.
enum class Transport { InProcess, Socket };

class Vsa {
 public:
  /// Every runtime option, declared once. The factorization drivers take
  /// it as their option type (chol::VsaCholOptions, lu::VsaLuOptions) or
  /// inherit from it and add their own shape knobs (vsaqr::TreeQrOptions,
  /// vsaqr::BatchOptions), so a field set here reaches every driver.
  struct Config {
    int nodes = 1;
    int workers_per_node = 2;
    Scheduling scheduling = Scheduling::Lazy;
    bool trace = false;
    /// Abort the run (with a stuck-VDP diagnostic) if no VDP fires for
    /// this long. 0 disables the watchdog.
    double watchdog_seconds = 60.0;
    /// Microseconds an idle worker spins on its atomic wake flag before
    /// parking on the condition variable (adaptive spin-then-park). The
    /// spin keeps fine-grained small-nb pipelines out of the kernel; the
    /// park keeps idle workers off the CPU. 0 parks immediately; negative
    /// selects automatically — 50 when the machine has a hardware thread
    /// per worker, 0 when oversubscribed (spinning on a shared core only
    /// steals time from the worker holding the packet).
    int spin_us = -1;
    /// Run prt::GraphCheck over the constructed graph at the top of
    /// run() and throw (before spawning any thread) if it finds an
    /// error-severity diagnostic — turning wiring and packet-balance bugs
    /// from watchdog timeouts into immediate, named failures. Opt out for
    /// graphs that intentionally violate the static model (e.g. VDPs
    /// whose packet flow cannot be declared).
    bool graph_check = true;
    /// Layer the sequence-numbered ack/retransmit protocol over the
    /// inter-node transport (per-(src,dst) monotone sequence numbers,
    /// cumulative acks piggybacked on traffic, retransmit with exponential
    /// backoff, duplicate suppression). Off by default: the fast path is
    /// untouched when disabled — proxies send raw frames exactly as
    /// before. Required for correct completion under a lossy fault_plan.
    bool reliable_transport = false;
    /// Deterministic fault injection applied to every inter-node frame
    /// (including protocol acks and retransmissions). A default
    /// (all-zero) plan leaves the transport untouched.
    net::FaultPlan fault_plan;
    /// Initial retransmit timeout of the reliable protocol; doubles per
    /// retry (exponential backoff).
    int retransmit_timeout_us = 2000;
    /// Retransmissions per frame before the link is declared failed and
    /// the run torn down with a RunError.
    int max_retransmits = 10;
    /// Transport backend for inter-node traffic (see prt::Transport).
    /// Socket mode forks one process per node at run(), so a VDP's writes
    /// to ordinary memory stay in its node process: results reach the
    /// parent through memory shared before the fork (the vsaqr stores map
    /// their slots MAP_SHARED when built) or through files. With trace on,
    /// each child ships its events home in the run epilogue and the parent
    /// merges them into one clock-aligned timeline.
    Transport transport = Transport::InProcess;
    /// Crash recovery (Socket transport only; requires
    /// reliable_transport). How many dead node processes the parent may
    /// replace over the whole run: a dead child (EOF, SIGKILL, heartbeat
    /// timeout) is respawned from the pristine pre-fork image with a
    /// bumped incarnation epoch, survivors replay their retained frame
    /// history to it, and it re-fires its VDPs from scratch. 0 (the
    /// default) keeps today's behavior — any child death fails the run
    /// with a structured RunError naming the dead rank.
    int max_respawns = 0;
    /// Per-destination byte budget of acked frames each survivor retains
    /// for crash replay (only when max_respawns > 0). An eviction that a
    /// later replay would have needed fails the run instead of silently
    /// losing frames.
    std::size_t replay_log_bytes = 64 * 1024 * 1024;
    /// Parent-side liveness deadline: a child that completes no control
    /// frame (heartbeat or otherwise) for this long is declared dead
    /// (SIGKILLed and, budget permitting, respawned). It also bounds a
    /// frame still arriving, so a child hung mid-frame cannot stall the
    /// parent. When <= 0, the silence allowed is watchdog_seconds + 120 s
    /// instead, or unbounded when the watchdog is off too.
    double heartbeat_timeout_seconds = 10.0;
  };

  struct RunStats {
    double seconds = 0.0;
    long long fires = 0;
    /// Application frames crossing node boundaries (counted by the sending
    /// proxies) and their payload bytes — independent of how the transport
    /// packages them on the wire.
    long long remote_messages = 0;
    long long remote_bytes = 0;
    /// What actually hit the wire. Every frame is one wire message, so
    /// without reliable_transport and a fault plan wire_messages ==
    /// remote_messages; the protocol adds its pure acks and retransmits.
    /// wire_offered counts isend calls accepted from callers BEFORE the
    /// fault plan decided their fate; under chaos the accounting
    /// invariant wire_messages == wire_offered - faults.dropped +
    /// faults.duplicated holds (absent cancels).
    long long wire_offered = 0;
    long long wire_messages = 0;
    long long wire_bytes = 0;
    /// Distinct (src, dst, tag) fault streams tracked by the oracle under
    /// the current plan — bounded by the run's topology and reset per
    /// plan install (debug visibility for the stream-counter map).
    long long fault_streams = 0;
    /// Always 0: frames are no longer coalesced into aggregates. Kept only
    /// because perfbench/vsabench.cpp still reads them; the next benchmark
    /// change drops both together with its prt.net.aggregates and
    /// prt.net.coalesce_ratio metrics.
    long long coalesced_frames = 0;
    long long aggregates_sent = 0;
    // Packet-pool health for this run (steady state: misses stop growing).
    long long pool_hits = 0;
    long long pool_misses = 0;
    int leftover_packets = 0;
    std::vector<double> busy_per_thread;
    /// Seconds each node's proxy spent doing transport work (sending,
    /// draining, delivering) — the runtime's communication cost.
    std::vector<double> proxy_busy_per_node;
    // Transport health (all zero on a clean, fault-free run).
    net::FaultCounters faults;           ///< injected by Config::fault_plan
    long long retransmits = 0;           ///< frames re-sent by the protocol
    long long duplicates_suppressed = 0; ///< frames deduplicated on receive
    long long acks_sent = 0;             ///< pure (non-piggybacked) acks
    // Crash recovery (all zero on a run with no process deaths).
    long long respawns = 0;          ///< node processes replaced mid-run
    long long replayed_frames = 0;   ///< frames survivors requeued for replay
    long long refired_fires = 0;     ///< VDP firings of respawned incarnations
    /// Socket transport: each node process's minor page faults and system
    /// CPU seconds, read with getrusage(RUSAGE_SELF) just before its
    /// epilogue (a respawned rank reports only its last incarnation). All
    /// zero in-process.
    std::vector<long long> minor_faults_per_node;
    std::vector<double> sys_seconds_per_node;
  };

  /// Structured diagnosis attached to a RunError: what was stuck and why,
  /// in machine-readable form (the what() string renders the same data).
  struct RunReport {
    std::string reason;  ///< "vdp", "watchdog", "transport" or "process"
    /// Reason "vdp": the VDP whose body threw first, and what it threw.
    Tuple failed_vdp;
    std::string vdp_error;
    std::vector<std::string> stuck_vdps;  ///< tuple/counter/input-slot lines
    int vdps_alive = 0;
    /// Packets still queued on the reporting processes' input channels
    /// when the run stopped (as RunStats::leftover_packets; the socket
    /// parent cannot see a dead rank's queues and counts none for it).
    int leftover_packets = 0;
    std::vector<net::LinkGap> links;  ///< in-flight sequence gaps per link
    net::FaultCounters faults;
    long long retransmits = 0;
    /// Socket transport: ranks whose process died without a clean exit
    /// (and, with recovery off or exhausted, killed the run).
    std::vector<int> dead_ranks;
    std::string to_string() const;
  };

  /// Thrown by run() when a VDP body throws, on watchdog expiry or on
  /// reliable-transport failure, AFTER workers and proxies have been
  /// joined — the process is left clean (no detached threads, no leaked
  /// packets), and report() names the failed or stuck VDPs, the affected
  /// (src,dst,tag) streams, and the injected fault totals.
  class RunError : public Error {
   public:
    RunError(const std::string& header, RunReport report)
        : Error(header + report.to_string()), report_(std::move(report)) {}
    const RunReport& report() const { return report_; }

   private:
    RunReport report_;
  };

  explicit Vsa(Config cfg);
  ~Vsa();

  Vsa(const Vsa&) = delete;
  Vsa& operator=(const Vsa&) = delete;

  const Config& config() const { return cfg_; }
  int total_threads() const { return cfg_.nodes * cfg_.workers_per_node; }

  /// prt_vdp_new + prt_vsa_vdp_insert: register a VDP. `color` classifies
  /// firings for tracing (QR: 0 = flat factor, 1 = update, 2 = binary).
  /// `outputs_per_fire` is a packet-balance hint for GraphCheck: how many
  /// packets each connected output slot emits per firing (uniform across
  /// slots; use declare_output_packets for per-slot totals).
  Vdp& add_vdp(Tuple tuple, int counter, VdpFn fn, int num_inputs,
               int num_outputs, int color = 0, int outputs_per_fire = 1);

  /// GraphCheck balance declarations for VDPs whose packet flow is not
  /// one-per-firing: the total number of packets the VDP will push on
  /// `out_slot` (resp. pop from `in_slot`) over its whole lifetime.
  void declare_output_packets(const Tuple& vdp, int out_slot,
                              long long total_packets);
  void declare_input_packets(const Tuple& vdp, int in_slot,
                             long long total_packets);

  /// prt_channel_new + channel_insert on both endpoints: connect output
  /// slot `out_slot` of `src` to input slot `in_slot` of `dst`. Channels
  /// may start disabled and be enabled from VDP code at runtime.
  void connect(const Tuple& src, int out_slot, const Tuple& dst, int in_slot,
               std::size_t max_bytes, bool enabled = true);

  /// A source channel: an input channel with no producer VDP, prefilled
  /// with `initial` packets before the run starts.
  void feed(const Tuple& dst, int in_slot, std::size_t max_bytes,
            std::vector<Packet> initial, bool enabled = true);

  /// Explicit VDP -> global worker thread mapping (thread / workers_per_node
  /// is the node). Unmapped VDPs fall back to the default mapping.
  void map_vdp(const Tuple& tuple, int global_thread);

  /// Default mapping function; if unset, VDPs are assigned round-robin in
  /// creation order.
  void set_default_mapping(std::function<int(const Tuple&)> fn);

  /// Read-only global parameters (paper: "read-only global parameters").
  template <class T>
  void set_global(std::shared_ptr<T> g) {
    global_ = std::move(g);
  }

  template <class T>
  T& global() const {
    auto p = std::any_cast<std::shared_ptr<T>>(&global_);
    PQR_ASSERT(p != nullptr, "global: type mismatch or not set");
    return **p;
  }

  /// Execute the VSA to completion. Throws pulsarqr::Error on invalid
  /// wiring, and RunError when a VDP body throws, on watchdog expiry
  /// (deadlocked VSA) or on transport failure.
  RunStats run();

  /// Available after run() when Config::trace is set.
  const trace::Recorder& recorder() const { return *recorder_; }

  /// Internal: route a packet from a firing VDP (used by VdpContext).
  void push_from(VdpContext& ctx, int slot, Packet p);

  struct Worker;  ///< implementation detail (vsa.cpp)
  struct Node;    ///< implementation detail (vsa.cpp)

 private:
  friend class GraphCheck;  ///< read-only static analysis of the graph

  void validate_and_wire();
  /// Each VDP's global worker thread, in creation order: map_vdp(), else
  /// the default mapping, else round-robin (range unchecked).
  std::vector<int> placement() const;
  /// A worker sweeps its own VDP list, firing what is ready, and parks on
  /// its Parker when a sweep fired nothing.
  void worker_loop(Worker& w);
  bool sweep(Worker& w);
  /// Fire `v` while it stays ready (once under Lazy scheduling); returns
  /// whether it fired at all.
  bool fire_ready(Vdp& v, Worker& w);
  /// The node's proxy: sends each outgoing packet as one wire message and
  /// pumps the node's Ingress (proxy.hpp).
  void proxy_loop(Node& n);
  /// Parameters of the Reliable endpoint the proxy of `node` sends and
  /// receives through (a pass-through one when
  /// Config::reliable_transport is off).
  net::Reliable::Params endpoint_params(int node, bool recovery);
  /// One firing; false when the VDP body threw (the run is then
  /// cancelled with reason "vdp").
  bool fire(Vdp& v, Worker& w);
  /// The node engine: run node `only_node` (every node when -1) in this
  /// process on comm_ — spawn its workers and proxies, watch progress,
  /// shut down through wake_all() and return this process's RunStats. A
  /// cancelled run returns normally with cancelled_ set. A socket node
  /// process passes `tick`, run every watchdog period (control plane,
  /// heartbeat, kill injection) and returning an extra progress count
  /// (frames received), and `workers_done`, run between joining the
  /// workers and stopping the proxies (the done/go handshake).
  RunStats run_local(int only_node,
                     const std::function<long long()>& tick = nullptr,
                     const std::function<void()>& workers_done = nullptr);
  /// Wake every parked worker and proxy of this process.
  void wake_all();
  /// `only_node` >= 0 restricts the stuck-VDP census to that node — a
  /// forked node process reports only what it was responsible for.
  RunReport make_run_report(int only_node = -1) const;
  /// First line of a RunError for a RunReport.
  std::string failure_header(const RunReport& r) const;
  /// Socket transport (vsa_socket.cpp): fork one process per node, then
  /// poll their control sockets and carry out what prt::Supervisor
  /// decides (go, cancel, kill, respawn + rejoin); return the merged
  /// epilogues as RunStats, or throw the merged failure.
  RunStats run_socket();
  /// Body of one forked node process; never returns (always _exit).
  /// `incarnation` is 0 for the original fork, bumped per respawn;
  /// `peer_epochs` the incarnation table of every rank at fork time.
  [[noreturn]] void child_main(int rank, std::vector<int> peer_fds,
                               int control_fd, std::uint32_t incarnation,
                               std::vector<std::uint32_t> peer_epochs);
  /// First-failure path (called from a proxy): mark the run failed and
  /// wake every worker and proxy so the shutdown join completes.
  void cancel_run_from_transport();
  /// The same for a VDP body that threw `e` (called from its worker): the
  /// first failure is kept for the report.
  void cancel_run_from_vdp(const Vdp& v, std::exception_ptr e);

  Config cfg_;
  std::unordered_map<Tuple, std::unique_ptr<Vdp>, TupleHash> vdps_;
  std::vector<Vdp*> creation_order_;

  struct PendingEdge {
    Tuple src;
    int out_slot;
    Tuple dst;
    int in_slot;
    std::size_t max_bytes;
    bool enabled;
  };
  struct PendingFeed {
    Tuple dst;
    int in_slot;
    std::size_t max_bytes;
    std::vector<Packet> initial;
    bool enabled;
  };
  std::vector<PendingEdge> edges_;
  std::vector<PendingFeed> feeds_;
  std::unordered_map<Tuple, int, TupleHash> explicit_map_;
  std::function<int(const Tuple&)> default_map_;
  std::any global_;

  // Runtime state (valid during run()).
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::unique_ptr<net::Comm> comm_;
  std::unique_ptr<trace::Recorder> recorder_;
  std::atomic<long long> fires_{0};
  std::atomic<int> workers_running_{0};
  std::atomic<bool> cancelled_{false};
  std::atomic<bool> done_{false};
  bool ran_ = false;
  int spin_us_ = 0;  ///< Config::spin_us with the auto default resolved

  std::atomic<bool> transport_failed_{false};
  /// What proxies publish at exit (after which run_local joins them and
  /// completes this process's RunStats): frame, protocol and replay
  /// counters, proxy busy time, and on a failed run the link gaps.
  mutable std::mutex exit_mu_;
  RunStats stats_;                       ///< guarded by exit_mu_
  std::vector<net::LinkGap> link_gaps_;  ///< guarded by exit_mu_
  /// The first VDP failure (reason "vdp"); guarded by exit_mu_.
  std::optional<std::pair<Tuple, std::string>> vdp_failure_;

  /// Non-owning view of comm_ as the socket backend. Set only inside
  /// socket node processes (child_main) so the proxy can fence frames
  /// from dead incarnations, poll queued peer rejoins and probe peer
  /// liveness. Null on the in-process path and in the parent.
  net::SocketComm* sock_comm_ = nullptr;
};

/// Control-plane codec of a RunStats (vsa_socket.cpp): a socket node
/// process ships its stats home in the run epilogue and the parent merges
/// each into its total — counters add, `seconds` takes the max, and the
/// per-thread and per-node vectors add element by element. The decoder
/// checks every count against the blob and against `total`'s vector sizes
/// (the run topology), and throws pulsarqr::Error on a malformed blob
/// without touching `total`.
void encode_run_stats(net::wire::Blob& b, const Vsa::RunStats& s);
void merge_run_stats(net::wire::BlobReader& br, Vsa::RunStats& total);

template <class T>
T& VdpContext::global() const {
  return vsa.global<T>();
}

}  // namespace pulsarqr::prt
