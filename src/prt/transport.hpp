// Message-passing transport — the repo's MPI substitution.
//
// The paper's proxy uses exactly six MPI calls (Isend, Irecv, Test,
// Get_count, Barrier, Cancel) between one MPI process per node. net::Comm
// provides the same nonblocking six-call surface over per-rank mailboxes,
// written once for both backends; a backend only transmits a message
// toward a mailbox (MailboxComm below: in-process threads; SocketComm in
// socket_comm.hpp: one process per node). In-process the receiver adopts
// the sender's buffer, so virtual nodes share memory like the paper's
// intra-node channels and a buffer is immutable once sent; the socket
// backend, across real address spaces, is the isolation check. Tag routing
// is numbered independently per (source, destination) pair, as in the paper.
//
// On top of the paper's reliable-fabric assumption, this file adds the
// chaos machinery the paper never needed:
//   * FaultPlan — seeded, deterministic drop/duplicate/delay/reorder
//     injection inside Comm, decided per (src, dst, tag, message-index) by
//     a pure hash, so a schedule replays identically from its seed.
//   * Reliable — a sequence-numbered ack/retransmit endpoint the node
//     proxies layer over Comm to restore exactly-once, in-order delivery
//     per (src, dst) link when the fabric below is faulted.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "prt/packet.hpp"
#include "prt/tags.hpp"

namespace pulsarqr::prt::net {

struct Message {
  int source = -1;
  int tag = -1;
  int meta = 0;
  /// Reliable-transport header, piggybacked on every frame when the
  /// protocol is on; all -1/false on the (unchanged) fast path.
  long long seq = -1;  ///< per-(src,dst) data sequence number; -1 = none
  long long ack = -1;  ///< cumulative ack for the reverse link; -1 = none
  bool is_ack = false;  ///< pure ack frame (empty payload, not routed)
  Packet payload;       ///< the sender's buffer in-process; immutable
  /// Sender incarnation (crash recovery): 0 for the original process of a
  /// rank, bumped per respawn. Receivers fence frames whose epoch is
  /// older than the sender's current incarnation — a stale in-flight
  /// frame (worst: a stale cumulative ack) from a dead incarnation must
  /// not touch post-rejoin protocol state. Always 0 in-process.
  std::uint32_t epoch = 0;
};

/// Deterministic fault-injection schedule applied inside Comm::isend.
/// Every probability decision for the i-th message of a (src, dst, tag)
/// stream is a pure hash of (seed, src, dst, tag, i): the same seed
/// replays the same drop/dup/delay/reorder pattern regardless of thread
/// interleaving (only the wall-clock release of delayed messages varies).
struct FaultPlan {
  std::uint64_t seed = 0;
  double drop = 0.0;     ///< P(message silently dropped)
  double dup = 0.0;      ///< P(message delivered twice)
  double delay = 0.0;    ///< P(message held for delay_us before delivery)
  double reorder = 0.0;  ///< P(message held behind the next one to the rank)
  int delay_us = 200;    ///< bounded hold time of delayed/reordered messages
  /// Process-level fault (Socket transport only): SIGKILL the node
  /// process of `kill_rank` once that rank's workers have completed
  /// `kill_after` VDP firings. Fires at most once per run, and only in
  /// the rank's first incarnation — a respawned replacement is never
  /// re-killed, so every schedule terminates. Deliberately excluded from
  /// any(): process death is not a message-level fault, so it neither
  /// activates the oracle nor perturbs the drop/dup/delay/reorder replay.
  int kill_rank = -1;
  long long kill_after = 0;
  bool any() const {
    return drop > 0.0 || dup > 0.0 || delay > 0.0 || reorder > 0.0;
  }
  bool kill() const { return kill_rank >= 0; }
};

/// Totals of injected faults, surfaced through Vsa::RunStats / RunReport.
struct FaultCounters {
  long long dropped = 0;
  long long duplicated = 0;
  long long delayed = 0;
  long long reordered = 0;
  long long total() const { return dropped + duplicated + delayed + reordered; }
};

/// Snapshot of one directed (src, dst) link's sequence state, used by the
/// graceful-failure RunReport to name in-flight gaps and stuck streams.
struct LinkGap {
  int src = -1;
  int dst = -1;
  long long next_seq = 0;   ///< sender: next fresh sequence number
  long long acked = -1;     ///< sender: highest cumulative ack received
  long long expected = 0;   ///< receiver: next in-order seq it is waiting for
  int unacked = 0;          ///< sender: frames in flight (sent, not acked)
  int buffered_out_of_order = 0;  ///< receiver: frames held past a gap
  bool exhausted = false;   ///< sender: retransmit cap hit on this link
  std::vector<int> pending_tags;  ///< tags of the unacked frames, in order
  std::string to_string() const;
};

/// The outcome the fault plan assigned to one message.
struct FaultFate {
  bool drop = false;
  bool dup = false;
  bool delay = false;
  bool reorder = false;
};

/// Deterministic fault oracle shared by every transport backend: holds the
/// plan, the per-(src, dst, tag) stream counters, and the injected-fault
/// totals. Each decide() is a pure hash of (seed, stream, index), so the
/// in-process mailbox backend and the socket backend replay the exact same
/// schedule from the same seed — the send side decides the fate before the
/// message touches any wire.
///
/// The stream-counter map is reset every time a plan is installed: a
/// long-lived communicator re-seeded per run (the VSA-as-a-service
/// direction) starts each schedule from index 0 instead of accumulating
/// one map entry per stream forever. streams() surfaces the live size.
class FaultOracle {
 public:
  void set_plan(const FaultPlan& plan);
  bool active() const { return active_.load(std::memory_order_acquire); }
  /// Decide the idx-th message of the (src, dst, tag) stream (advancing
  /// its index) and tally the counters.
  FaultFate decide(int src, int dst, int tag);
  int delay_us() const;
  FaultCounters counters() const;
  /// Number of distinct (src, dst, tag) streams seen under the current
  /// plan — the bound satellite accounting exposes via RunStats.
  std::size_t streams() const;

 private:
  std::atomic<bool> active_{false};
  mutable std::mutex mu_;
  FaultPlan plan_;
  std::unordered_map<std::uint64_t, long long> stream_idx_;
  FaultCounters counters_;
};

/// Abstract "communicator" over nranks ranks — the six-call MPI surface of
/// the paper (Isend/Test, Irecv as try_recv/drain/recv_wait, Get_count,
/// Barrier, Cancel) plus the chaos and accounting hooks. Everything above
/// the wire lives here, once: the tag gate, the send-side fault fate and
/// its limbo, the per-rank mailboxes with their latched interrupt and
/// cancel, the receive calls and the counters. A backend supplies only
/// transmit() — how one message reaches a rank's mailbox — and barrier():
/// MailboxComm (threads of one process) and net::SocketComm
/// (socket_comm.hpp — Unix-domain stream sockets between real processes).
///
/// Fault plan. isend decides each message's fate before transmit() sees
/// it. A delayed or reorder-held message waits in one sender-side limbo
/// keyed by destination. A duplicate delivers one buffer twice; Reliable's
/// sequence dedup drops the second unread. This Comm's own receive calls
/// release the due ones —
/// recv_wait caps its sleep at the next release — and a reorder-held one
/// is also released right after the next transmit to its destination,
/// landing behind it.
///
/// Accounting contract (chaos-invariant, asserted in chaos_test):
///   messages_offered  = isend calls accepted from callers
///   messages_sent     = without a fault plan, what transmit() accepted;
///                       with one, counted at fate under the cancel latch —
///                       dropped messages count zero, duplicated twice,
///   so  sent == offered - dropped + duplicated
/// in the absence of cancel (sends to a cancelled rank are discarded after
/// being offered, without counting as sent; a message already held in
/// limbo when its destination is cancelled stays counted).
class Comm {
 public:
  virtual ~Comm();

  Comm(const Comm&) = delete;
  Comm& operator=(const Comm&) = delete;

  int size() const { return nranks_; }

  /// Nonblocking send: decides the message's fate (if a fault plan is
  /// set) and hands it to the backend's transmit(). Returns a request
  /// handle; completion is immediate in both backends but callers must
  /// still test() it (MPI discipline). The trailing seq/ack/is_ack header
  /// is used by the Reliable layer and defaults to "no header".
  ///
  /// The payload is immutable once sent: an in-process receiver adopts
  /// the caller's buffer, as an intra-node channel push does.
  virtual int isend(int src, int dst, int tag, const Packet& payload, int meta,
                    long long seq = -1, long long ack = -1,
                    bool is_ack = false);

  /// MPI_Test equivalent: true once the send completed. Both backends
  /// complete sends synchronously (mailbox enqueue / blocking write).
  virtual bool test(int /*request*/) const { return true; }

  /// MPI_Irecv+Test pattern collapsed into a non-blocking poll of the
  /// rank's mailbox. Empty optional when nothing has arrived.
  std::optional<Message> try_recv(int rank);

  /// Batch receive: every queued message for the rank in arrival order,
  /// taken in a single mailbox swap (one lock round-trip total — the
  /// proxy's bulk path). Empty deque when nothing has arrived.
  std::deque<Message> drain(int rank);

  /// Blocking receive with a deadline; used by proxies to idle
  /// efficiently. The deadline is absolute: spurious condition-variable
  /// wakeups never extend the effective timeout. Returns early (empty)
  /// when an interrupt is pending for the rank.
  std::optional<Message> recv_wait(int rank, int timeout_us);

  /// MPI_Get_count equivalent.
  static std::size_t get_count(const Message& m) { return m.payload.size(); }

  /// MPI_Barrier equivalent over all ranks.
  virtual void barrier() = 0;

  /// MPI_Cancel equivalent: drop all undelivered messages for a rank
  /// (including ones held back by the fault plan), and latch the rank as
  /// cancelled — later sends to it are discarded instead of re-filling
  /// the mailbox or limbo a racing isend could otherwise repopulate.
  void cancel(int rank);

  /// Wake a rank blocked in recv_wait (used for shutdown and to nudge an
  /// idle proxy). The wake is latched: an interrupt delivered while no
  /// one waits makes the next recv_wait return immediately instead of
  /// being lost. Idempotent — repeated interrupts collapse into one latch.
  virtual void interrupt(int rank);

  /// Install the fault plan. Must be called before any traffic; a plan
  /// with all probabilities zero leaves the fast path untouched.
  void set_fault_plan(const FaultPlan& plan) { oracle_.set_plan(plan); }

  /// Totals for RunStats (see the accounting contract above).
  long long messages_offered() const { return offered_.load(); }
  long long messages_sent() const { return sent_.load(); }
  long long bytes_sent() const { return bytes_.load(); }
  FaultCounters fault_counters() const { return oracle_.counters(); }
  /// Distinct fault streams tracked under the current plan (bounded by
  /// the run's (src, dst, tag) topology; reset per plan install).
  std::size_t fault_streams() const { return oracle_.streams(); }

 protected:
  /// `receiver` >= 0 restricts the receive calls to that one rank (a
  /// backend living in that rank's process); -1 lets them name any rank.
  explicit Comm(int nranks, int receiver = -1);

  /// Carry one message toward dst's mailbox. False when it did not get
  /// there (cancelled mailbox, dead peer) — the message is lost as on a
  /// real wire; the Reliable layer repairs or reports it. Called with no
  /// Comm lock held.
  virtual bool transmit(int dst, Message m) = 0;

  /// Append to a rank's mailbox and wake its receiver. False (message
  /// discarded) once the rank is cancelled.
  bool deliver(int rank, Message m);

 private:
  using Clock = std::chrono::steady_clock;
  struct Mailbox {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Message> q;
    bool wake_pending = false;  ///< latched interrupt (guarded by mu)
    bool cancelled = false;     ///< latched cancel (guarded by mu)
  };
  /// A message held back by the fault plan.
  struct Held {
    Clock::time_point release;
    bool after_next = false;  ///< reorder: also release after the next transmit
    Message m;
  };

  void check_receiver(int rank) const;
  void count(long long copies, long long bytes);
  /// Transmit every limbo message whose release time has passed; returns
  /// the earliest release still pending (if any).
  std::optional<Clock::time_point> release_due();
  /// Transmit the reorder-held messages to dst (they land behind the
  /// message just transmitted there).
  void release_after_next(int dst);

  const int nranks_;
  const int receiver_;
  FaultOracle oracle_;
  std::atomic<long long> offered_{0};
  std::atomic<long long> sent_{0};
  std::atomic<long long> bytes_{0};
  std::vector<std::unique_ptr<Mailbox>> boxes_;
  // Limbo + send-side cancel latch (guarded by lmu_; the fault-free fast
  // path never takes this lock — its cancel check rides the mailbox lock
  // of the receiving end). lmu_ and a mailbox lock never nest.
  std::mutex lmu_;
  std::vector<std::vector<Held>> limbo_;  ///< per destination rank
  std::vector<char> cancelled_;           ///< per-rank latched cancel
};

/// The in-process backend: per-rank mailboxes between threads of one
/// process; transmit hands the receiver the sender's buffer (shared
/// memory between virtual nodes).
class MailboxComm : public Comm {
 public:
  explicit MailboxComm(int nranks) : Comm(nranks) {}

  /// The generation counter is 64-bit and monotone, so a rank re-entering
  /// the barrier immediately can never alias a generation an earlier
  /// waiter is still testing.
  void barrier() override;

 private:
  bool transmit(int dst, Message m) override;

  std::mutex bmu_;
  std::condition_variable bcv_;
  int barrier_count_ = 0;
  std::uint64_t barrier_gen_ = 0;
};

/// Reliable-delivery endpoint for one rank: per-(src,dst) monotone
/// sequence numbers, cumulative acks piggybacked on data frames (plus
/// pure-ack frames when no reverse traffic exists), retransmission on
/// timeout with exponential backoff and a retry cap, and duplicate
/// suppression + in-order reassembly on the receive side.
///
/// Owned and driven by a single proxy thread; not thread-safe. Layered
/// strictly above Comm: every frame it emits goes through isend (and thus
/// through the fault plan), every frame it consumes comes from the rank's
/// mailbox.
class Reliable {
 public:
  struct Params {
    /// False makes a pass-through endpoint: send() is one raw isend with
    /// no header, on_receive() passes every frame through, and nothing is
    /// acked, retransmitted or retained, and the timing fields below are
    /// neither read nor checked. The node proxies run one when
    /// Vsa::Config::reliable_transport is off.
    bool sequenced = true;
    int rto_us = 2000;      ///< initial retransmit timeout
    double backoff = 2.0;   ///< timeout multiplier per retransmission
    int max_retries = 10;   ///< retransmits per frame before giving up
    /// Crash-replay retention: per-destination byte budget of ACKED
    /// frames kept past acknowledgement (the same shared buffers the
    /// retransmit queue already holds — no copies). 0 disables retention
    /// (acked frames drop immediately, the pre-recovery behavior). When
    /// the budget overflows, the oldest frames are evicted; a later
    /// replay_link() on a link that evicted reports an unrecoverable gap.
    std::size_t replay_log_bytes = 0;
    /// Liveness probe consulted by poll(), if set: false for a destination
    /// means the peer is known down (its process died and has not rejoined
    /// yet), so timed-out frames have their deadlines pushed instead of
    /// burning retries — a respawn window must not exhaust the retransmit
    /// cap.
    std::function<bool(int)> link_up;
    /// Invoked (if set) for every retransmission: (dst, tag, seq).
    std::function<void(int, int, long long)> on_retransmit;
  };

  Reliable(Comm& comm, int rank, Params params);

  /// Send one data frame to dst: assigns the link's next sequence number,
  /// piggybacks the cumulative ack of the reverse link, and retains a
  /// shared reference to the payload (no copy) for retransmission until
  /// acked. Every transmission puts that same buffer on the wire.
  void send(int dst, int tag, const Packet& payload, int meta);

  /// Process one raw incoming frame. Data frames that complete the
  /// in-order prefix of their link (including previously buffered
  /// out-of-order frames) are appended to `deliver`; duplicates are
  /// suppressed and pure acks consumed.
  void on_receive(Message m, std::deque<Message>& deliver);

  /// Emit pure-ack frames for links whose cumulative ack advanced (or
  /// that saw a duplicate) since the last data frame / flush.
  void flush_acks();

  /// Retransmit every timed-out unacked frame (with backoff), as of
  /// `now`. Returns false once any frame has exhausted its retries — the
  /// link is then considered failed and stops retransmitting.
  bool poll(std::chrono::steady_clock::time_point now);

  /// Crash recovery, survivor side. Requeue the link's ENTIRE retained
  /// history to dst — the replay log (acked frames) back in front of the
  /// still-unacked tail — with original sequence numbers, reset acked to
  /// -1 and all deadlines to `now`, so the normal poll() path
  /// retransmits everything in order to the fresh incarnation (which
  /// receives from expected = 0). Returns the number of frames requeued,
  /// or -1 when eviction already discarded part of the history (an
  /// unrecoverable gap: the run must fail instead of silently losing
  /// frames).
  long long replay_link(int dst, std::chrono::steady_clock::time_point now);

  /// Crash recovery, survivor side: forget everything received from a
  /// dead incarnation of `src`. The replacement re-sends its stream from
  /// seq 0, so expected resets to 0 and the reassembly buffer clears;
  /// duplicate suppression of the re-executed firings happens above this
  /// layer (per-channel delivered-frame counts in the proxy), not here.
  void reset_recv_link(int src);

  bool failed() const { return failed_; }
  long long retransmits() const { return retransmits_; }
  long long duplicates_suppressed() const { return dup_suppressed_; }
  long long acks_sent() const { return acks_sent_; }
  /// Frames requeued by replay_link() over the endpoint's lifetime.
  long long replayed() const { return replayed_; }

  /// Sequence-state snapshot of every link this endpoint has touched —
  /// sender views (src == rank) and receiver views (dst == rank).
  std::vector<LinkGap> gaps() const;

  /// Canonical rendering of the endpoint's complete protocol state:
  /// per-link sequence numbers, cumulative acks, the unacked retention
  /// queue (seq/tag/retry counts), reassembly buffers and ack debts.
  /// Retransmit deadlines are deliberately excluded — two endpoints with
  /// equal fingerprints behave identically under any action sequence
  /// whose poll() horizon exceeds every backoff, which is exactly how the
  /// bounded model checker (prt::verify) advances time. Used for state
  /// deduplication there and available for debugging.
  std::string state_fingerprint() const;

 private:
  struct Unacked {
    long long seq = 0;
    int tag = -1;
    int meta = 0;
    /// Shares the sender's buffer, and retransmissions put it on the wire
    /// as-is. An in-process receiver may be mutating the buffer it adopted,
    /// so a retransmit must never reach a channel: on_receive() drops an
    /// already-accepted seq from its header alone, before any routing.
    Packet payload;
    std::chrono::steady_clock::time_point deadline;
    long long rto_us = 0;
    int retries = 0;
  };
  struct SendLink {
    long long next_seq = 0;
    long long acked = -1;
    bool exhausted = false;
    std::deque<Unacked> unacked;
    /// Acked frames retained for crash replay, ascending seq, bounded by
    /// Params::replay_log_bytes (oldest evicted first).
    std::deque<Unacked> replay;
    std::size_t replay_bytes = 0;
    long long replay_evicted = 0;
  };
  struct RecvLink {
    long long expected = 0;
    std::map<long long, Message> out_of_order;
    bool ack_dirty = false;
  };

  long long piggyback_ack(int peer) const;
  /// Move one freshly acked frame into the replay log (or drop it when
  /// retention is off), evicting oldest-first past the byte budget.
  void retain_for_replay(SendLink& link, Unacked u);

  Comm& comm_;
  int rank_;
  Params params_;
  std::map<int, SendLink> send_;  ///< keyed by destination rank
  std::map<int, RecvLink> recv_;  ///< keyed by source rank
  bool failed_ = false;
  long long retransmits_ = 0;
  long long dup_suppressed_ = 0;
  long long acks_sent_ = 0;
  long long replayed_ = 0;
};

}  // namespace pulsarqr::prt::net
