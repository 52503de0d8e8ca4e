// Out-of-process transport backend: Unix-domain stream sockets between
// one real OS process per node (the paper's §IV-B MPI process model made
// concrete). One SocketComm instance lives in each node process and runs
// the same Comm core as the in-process MailboxComm; the Vsa run
// path forks the node processes and hands each one its row of a
// pre-opened socketpair mesh.
//
// Wire format — one frame per message, fixed 48-byte little-endian
// header (wire.hpp codec, never host-endian memcpy) followed by the
// payload bytes:
//
//   offset  field         encoding
//   0       kind          u32   0 = data, 2 = interrupt (1 is retired)
//   4       flags         u32   bit 0 = is_ack
//   8       source        i32   sending rank
//   12      tag           i32   Message::tag (reserved tags included)
//   16      meta          i32   Message::meta
//   20      payload_len   u64   bytes following the header
//   28      seq           i64   Reliable sequence number (-1 = none)
//   36      ack           i64   cumulative ack (-1 = none)
//   44      epoch         u32   sender incarnation (crash recovery)
//
// Every frame is stamped with the sender's incarnation number (0 for the
// original process of each rank, bumped per crash respawn); receivers
// track the expected incarnation per peer and the proxy fences data
// frames from dead incarnations — a stale cumulative ack surviving in a
// socket buffer across a rejoin would otherwise trim frames the replay
// path just requeued.
//
// Data path. A frame leaves in one gather write (sendmsg) of header and
// payload straight from the sender's packet buffer. The receiver thread
// stages headers and frames that arrive whole in a small per-peer buffer;
// a payload that runs past the staged bytes is read straight into a
// pooled packet of the header's length, which the proxy adopts without a
// copy. Every header is checked before anything is allocated: a payload
// longer than kMaxPayloadBytes, an unknown kind, a control frame with a
// payload, or a source other than the rank whose stream carried the
// frame marks the peer down exactly like a dead peer process.
//
// Data frames carry the full Message header, so the Reliable layer and
// the proxy's ingress run unchanged over either backend. Interrupt
// frames wake a peer blocked in recv_wait.
//
// Everything above the wire is net::Comm's: the tag gate, the fault fate
// and its sender-side limbo, the mailbox and the counters, the same code
// MailboxComm runs — a chaos seed therefore replays the identical
// drop/dup/delay/reorder schedule on both backends. This class supplies
// transmit() (a frame write, or self-delivery); it receives only for its
// own rank, into the Comm mailbox its receiver thread delivers to. Held
// messages are released by this process's own receive calls. Interrupt
// frames bypass the fault plan (they are control, not data).
#pragma once

#include <sys/uio.h>

#include <thread>
#include <utility>

#include "prt/transport.hpp"

namespace pulsarqr::prt::net {

/// Write every byte of `iov[0..n)` (blocking, no SIGPIPE), resuming after
/// short writes. False on any error — the peer is gone; the caller treats
/// the frame as dropped on the wire. Consumes `iov`. A `pass_fd` >= 0
/// rides the first byte as SCM_RIGHTS; the kernel duplicates it into the
/// receiver at delivery, so the caller may close its copy on return.
bool send_all(int fd, iovec* iov, int n, int pass_fd = -1);

/// A connected AF_UNIX stream pair, or a thrown Error naming `what`.
std::pair<int, int> open_pair(const char* what);

class SocketComm : public Comm {
 public:
  /// Frame kinds on the wire (header field 0). Kind 1, once the barrier,
  /// is unknown: a frame of it takes the peer-down path.
  enum : std::uint32_t { kData = 0, kInterrupt = 2 };
  static constexpr std::size_t kFrameHeaderBytes = 48;
  /// Protocol maximum of one data frame's payload. The receiver checks
  /// every header against it before allocating: a longer (or wrapping)
  /// length is a corrupt or hostile stream, and the peer is marked down
  /// exactly as if its process had died.
  static constexpr std::size_t kMaxPayloadBytes = std::size_t{64} << 20;

  /// Build the full nranks x nranks socketpair mesh (AF_UNIX,
  /// SOCK_STREAM). mesh[a][b] is the fd rank `a` uses to talk to rank
  /// `b` (mesh[a][a] = -1); mesh[a][b] and mesh[b][a] are the two ends
  /// of one socketpair. Called by the parent BEFORE forking; each child
  /// keeps its own row (closing the rest) and the parent closes all.
  static std::vector<std::vector<int>> socketpair_mesh(int nranks);

  /// Take ownership of this rank's row of the mesh (peer_fds[rank] is
  /// ignored / may be -1). Starts the receiver thread. `epoch` is this
  /// process's incarnation (0 unless it is a crash respawn);
  /// `peer_epochs` the current incarnation of every peer at construction
  /// time (empty = all zero — no crash has happened yet).
  SocketComm(int nranks, int rank, std::vector<int> peer_fds,
             std::uint32_t epoch = 0,
             std::vector<std::uint32_t> peer_epochs = {});
  ~SocketComm() override;

  int rank() const { return rank_; }
  std::uint32_t epoch() const { return epoch_; }

  // ---- crash recovery: peer rejoin --------------------------------------
  //
  // When a peer's process dies and the parent forks a replacement, each
  // survivor receives (over its control socketpair) the replacement's
  // rank, new incarnation number and a fresh socket fd. The control
  // thread queues the rejoin here; the node's proxy thread — the sole
  // owner of the Reliable endpoint — installs it, then resets/replays
  // the protocol state. Installation swaps the peer fd under the write
  // lock (the receiver thread closes the replaced fd itself and discards
  // its partial stream) and bumps the expected peer incarnation so stale
  // frames from the dead incarnation are fenced at the proxy's drain.

  struct Rejoin {
    int rank = -1;
    int fd = -1;
    std::uint32_t epoch = 0;
  };

  /// Queue a rejoin (any thread).
  void rejoin_peer(int rank, int fd, std::uint32_t epoch);
  /// Drain queued rejoins (proxy thread).
  std::vector<Rejoin> take_rejoins();
  /// Swap in the replacement's fd + incarnation (proxy thread). The old
  /// fd, if any, stays open until the receiver thread reconciles.
  void install_rejoin(const Rejoin& rj);

  /// Expected incarnation of a peer (frames below it are stale).
  std::uint32_t peer_epoch(int rank) const {
    return peer_epoch_[rank].load(std::memory_order_acquire);
  }
  /// False while the peer's process is known dead (EOF / write failure
  /// seen) and no replacement has rejoined yet — the Reliable layer's
  /// link-up probe, so retransmits idle instead of exhausting.
  bool peer_alive(int rank) const {
    return !peer_down_[rank].load(std::memory_order_acquire);
  }

  /// Checks this backend's preconditions — `src` is the owning rank and
  /// the payload fits one frame — before Comm::isend counts the message.
  int isend(int src, int dst, int tag, const Packet& payload, int meta,
            long long seq = -1, long long ack = -1,
            bool is_ack = false) override;
  /// A remote rank's interrupt travels as a control frame.
  void interrupt(int rank) override;

  /// Frames of any kind accepted by the receiver thread — a liveness
  /// signal for the per-process watchdog (acks arriving while no local
  /// VDP fires still count as progress).
  long long frames_received() const {
    return frames_received_.load(std::memory_order_relaxed);
  }

 private:
  /// Write one data frame to dst straight from the message's buffer, or
  /// deliver the buffer itself into this process's own mailbox when
  /// dst == rank_.
  bool transmit(int dst, Message m) override;
  bool write_frame(int dst, std::uint32_t kind, std::uint32_t flags,
                   int source, int tag, int meta, const std::byte* payload,
                   std::size_t len, long long seq, long long ack);
  struct FrameHeader;
  struct RxStream;
  void receiver_loop();
  /// One non-blocking read from a peer into its stream state, then
  /// dispatch of every frame it completed. False when the peer is gone
  /// (EOF, socket error) or sent a malformed header; the caller marks it
  /// down either way.
  bool receive(int peer, int fd, RxStream& rx);
  /// Dispatch every whole frame in the stage and start the payload read
  /// of a frame that runs past it. False on a malformed header.
  bool consume(int peer, RxStream& rx);
  void mark_down_if_current(int peer, int fd);
  void dispatch(const FrameHeader& h, Packet payload);

  int rank_;
  std::uint32_t epoch_ = 0;  ///< this process's incarnation, stamped on frames
  /// Owned; -1 for self. Atomic so the receiver thread can reconcile a
  /// rejoin-swapped fd without taking the write lock; writers load under
  /// wmu_[dst], which also serializes against install_rejoin's swap.
  std::vector<std::atomic<int>> peer_fds_;
  std::vector<std::atomic<std::uint32_t>> peer_epoch_;
  std::vector<std::atomic<bool>> peer_down_;
  /// Orders the receiver's EOF check-and-mark against install_rejoin's
  /// clear of peer_down_ (see mark_down_if_current).
  std::mutex downmu_;
  std::vector<std::unique_ptr<std::mutex>> wmu_;  ///< per-peer write lock
  int wake_pipe_[2] = {-1, -1};  ///< receiver-thread shutdown nudge

  // Pending rejoins queued by the control thread for the proxy.
  std::mutex rjmu_;
  std::vector<Rejoin> rejoins_;

  std::atomic<long long> frames_received_{0};
  std::atomic<bool> stop_{false};
  std::thread receiver_;
};

}  // namespace pulsarqr::prt::net
