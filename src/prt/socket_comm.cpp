#include "prt/socket_comm.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <tuple>

#include "prt/wire.hpp"

namespace pulsarqr::prt::net {

bool send_all(int fd, iovec* iov, int n, int pass_fd) {
  alignas(cmsghdr) char cbuf[CMSG_SPACE(sizeof(int))] = {};
  msghdr msg{};
  if (pass_fd >= 0) {
    msg.msg_control = cbuf;
    msg.msg_controllen = sizeof cbuf;
    cmsghdr* cm = CMSG_FIRSTHDR(&msg);
    cm->cmsg_level = SOL_SOCKET;
    cm->cmsg_type = SCM_RIGHTS;
    cm->cmsg_len = CMSG_LEN(sizeof(int));
    std::memcpy(CMSG_DATA(cm), &pass_fd, sizeof(int));
  }
  while (n > 0) {
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<std::size_t>(n);
    ssize_t k = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (k < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    // The descriptor went with the first bytes; a short write's rest
    // must not send it again.
    msg.msg_control = nullptr;
    msg.msg_controllen = 0;
    while (n > 0 && static_cast<std::size_t>(k) >= iov->iov_len) {
      k -= static_cast<ssize_t>(iov->iov_len);
      ++iov;
      --n;
    }
    if (n > 0) {
      iov->iov_base = static_cast<char*>(iov->iov_base) + k;
      iov->iov_len -= static_cast<std::size_t>(k);
    }
  }
  return true;
}

std::pair<int, int> open_pair(const char* what) {
  int sv[2];
  require(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) == 0,
          std::string(what) + ": socketpair failed: " + std::strerror(errno));
  return {sv[0], sv[1]};
}

std::vector<std::vector<int>> SocketComm::socketpair_mesh(int nranks) {
  std::vector<std::vector<int>> mesh(nranks, std::vector<int>(nranks, -1));
  for (int a = 0; a < nranks; ++a) {
    for (int b = a + 1; b < nranks; ++b) {
      std::tie(mesh[a][b], mesh[b][a]) = open_pair("SocketComm");
    }
  }
  return mesh;
}

SocketComm::SocketComm(int nranks, int rank, std::vector<int> peer_fds,
                       std::uint32_t epoch,
                       std::vector<std::uint32_t> peer_epochs)
    : Comm(nranks, /*receiver=*/rank), rank_(rank), epoch_(epoch),
      peer_fds_(nranks), peer_epoch_(nranks), peer_down_(nranks) {
  require(rank_ >= 0 && rank_ < nranks, "SocketComm: rank out of range");
  require(static_cast<int>(peer_fds.size()) == nranks,
          "SocketComm: need one fd per rank");
  require(peer_epochs.empty() ||
              static_cast<int>(peer_epochs.size()) == nranks,
          "SocketComm: need one peer epoch per rank (or none)");
  peer_fds[rank_] = -1;  // never talk to ourselves over a socket
  for (int r = 0; r < nranks; ++r) {
    peer_fds_[r].store(peer_fds[r], std::memory_order_relaxed);
    peer_epoch_[r].store(peer_epochs.empty() ? 0u : peer_epochs[r],
                         std::memory_order_relaxed);
    peer_down_[r].store(false, std::memory_order_relaxed);
  }
  // Self-delivered messages are stamped with our own incarnation.
  peer_epoch_[rank_].store(epoch_, std::memory_order_relaxed);
  wmu_.reserve(nranks);
  for (int r = 0; r < nranks; ++r) wmu_.push_back(std::make_unique<std::mutex>());
  barrier_seen_.assign(nranks, 0);
  require(::pipe(wake_pipe_) == 0, "SocketComm: pipe failed: " +
                                       std::string(std::strerror(errno)));
  receiver_ = std::thread([this] { receiver_loop(); });
}

SocketComm::~SocketComm() {
  stop_.store(true, std::memory_order_release);
  const char b = 'w';
  // Best-effort nudge; the receiver also polls stop_ on a short timeout.
  (void)!::write(wake_pipe_[1], &b, 1);
  if (receiver_.joinable()) receiver_.join();
  for (auto& fd : peer_fds_) {
    const int f = fd.load(std::memory_order_relaxed);
    if (f >= 0) ::close(f);
  }
  // Rejoins queued but never installed still own their fds.
  for (const Rejoin& rj : rejoins_) {
    if (rj.fd >= 0) ::close(rj.fd);
  }
  ::close(wake_pipe_[0]);
  ::close(wake_pipe_[1]);
}

void SocketComm::rejoin_peer(int rank, int fd, std::uint32_t epoch) {
  {
    std::lock_guard<std::mutex> lock(rjmu_);
    rejoins_.push_back(Rejoin{rank, fd, epoch});
  }
  // Nudge an idle proxy out of recv_wait so it installs promptly.
  interrupt(rank_);
}

std::vector<SocketComm::Rejoin> SocketComm::take_rejoins() {
  std::lock_guard<std::mutex> lock(rjmu_);
  std::vector<Rejoin> out;
  out.swap(rejoins_);
  return out;
}

void SocketComm::install_rejoin(const Rejoin& rj) {
  PQR_ASSERT(rj.rank >= 0 && rj.rank < size() && rj.rank != rank_,
             "SocketComm: bad rejoin rank");
  {
    // The write lock serializes against in-flight write_frame calls: no
    // sender can interleave half a frame across the fd swap.
    std::lock_guard<std::mutex> lock(*wmu_[rj.rank]);
    peer_fds_[rj.rank].store(rj.fd, std::memory_order_release);
    peer_epoch_[rj.rank].store(rj.epoch, std::memory_order_release);
  }
  {
    std::lock_guard<std::mutex> lock(downmu_);
    peer_down_[rj.rank].store(false, std::memory_order_release);
  }
  // Wake the receiver so it reconciles (closes the replaced fd, discards
  // the dead incarnation's partial stream, and starts polling the new fd).
  const char b = 'w';
  (void)!::write(wake_pipe_[1], &b, 1);
}

bool SocketComm::write_frame(int dst, std::uint32_t kind, std::uint32_t flags,
                             int source, int tag, int meta,
                             const std::byte* payload, std::size_t len,
                             long long seq, long long ack) {
  std::byte hdr[kFrameHeaderBytes];
  wire::put_u32(hdr, kind);
  wire::put_u32(hdr + 4, flags);
  wire::put_i32(hdr + 8, source);
  wire::put_i32(hdr + 12, tag);
  wire::put_i32(hdr + 16, meta);
  wire::put_u64(hdr + 20, static_cast<std::uint64_t>(len));
  wire::put_i64(hdr + 28, seq);
  wire::put_i64(hdr + 36, ack);
  wire::put_u32(hdr + 44, epoch_);
  // One frame, one writer at a time: header and payload must be adjacent
  // on the stream. SOCK_STREAM backpressure cannot deadlock two mutually
  // blocked senders because every process's receiver thread drains
  // independently of its own sends. The fd is loaded under the same lock
  // install_rejoin swaps it under, so a frame never splits across fds.
  std::lock_guard<std::mutex> lock(*wmu_[dst]);
  const int fd = peer_fds_[dst].load(std::memory_order_acquire);
  if (fd < 0) return false;
  // Header and payload leave in one gather write straight from the
  // caller's buffer: no staging copy, one syscall for a whole frame.
  iovec iov[2] = {{hdr, kFrameHeaderBytes},
                  {const_cast<std::byte*>(payload), len}};
  if (!send_all(fd, iov, len > 0 ? 2 : 1)) {
    // The peer's process is gone (or its socket is); freeze the link
    // until a replacement rejoins.
    peer_down_[dst].store(true, std::memory_order_release);
    return false;
  }
  return true;
}

bool SocketComm::transmit(int dst, Message m) {
  if (dst != rank_) {
    // Serialized straight out of the caller's buffer: no copy to take.
    return write_frame(dst, kData, m.is_ack ? 1u : 0u, m.source, m.tag,
                       m.meta, m.payload.bytes(), m.payload.size(), m.seq,
                       m.ack);
  }
  // Self-delivery: the receiver adopts the buffer, stamped with the live
  // incarnation.
  m.epoch = epoch_;
  return deliver(rank_, std::move(m));
}

int SocketComm::isend(int src, int dst, int tag, const Packet& payload,
                      int meta, long long seq, long long ack, bool is_ack) {
  PQR_ASSERT(src == rank_, "SocketComm::isend: src must be the owning rank");
  require(payload.size() <= kMaxPayloadBytes,
          "isend: payload of " + std::to_string(payload.size()) +
              " bytes exceeds the socket protocol maximum");
  return Comm::isend(src, dst, tag, payload, meta, seq, ack, is_ack);
}

void SocketComm::barrier() {
  if (size() == 1) return;
  std::uint64_t gen;
  {
    std::lock_guard<std::mutex> lock(bmu_);
    gen = ++barrier_gen_;
  }
  // Dissemination: announce our generation to every peer (control frame,
  // bypasses the fault plan), then wait until every peer announced gen.
  for (int r = 0; r < size(); ++r) {
    if (r == rank_) continue;
    (void)write_frame(r, kBarrier, 0, rank_, 0, 0, nullptr, 0,
                      static_cast<long long>(gen), -1);
  }
  std::unique_lock<std::mutex> lock(bmu_);
  bcv_.wait(lock, [&] {
    for (int r = 0; r < size(); ++r) {
      if (r != rank_ && barrier_seen_[r] < static_cast<long long>(gen)) {
        return false;
      }
    }
    return true;
  });
}

void SocketComm::interrupt(int rank) {
  if (rank == rank_) {
    Comm::interrupt(rank);
  } else {
    (void)write_frame(rank, kInterrupt, 0, rank_, 0, 0, nullptr, 0, -1, -1);
  }
}

/// One decoded 48-byte frame header (layout in socket_comm.hpp).
struct SocketComm::FrameHeader {
  std::uint32_t kind = 0;
  std::uint32_t flags = 0;
  int source = 0;
  int tag = 0;
  int meta = 0;
  std::uint64_t len = 0;
  long long seq = -1;
  long long ack = -1;
  std::uint32_t epoch = 0;

  explicit FrameHeader(const std::byte* h)
      : kind(wire::get_u32(h)), flags(wire::get_u32(h + 4)),
        source(wire::get_i32(h + 8)), tag(wire::get_i32(h + 12)),
        meta(wire::get_i32(h + 16)), len(wire::get_u64(h + 20)),
        seq(wire::get_i64(h + 28)), ack(wire::get_i64(h + 36)),
        epoch(wire::get_u32(h + 44)) {}
  FrameHeader() = default;

  /// Data frames carry at most kMaxPayloadBytes; control frames none.
  /// Every frame names its sender, the rank whose stream carried it.
  bool valid(int peer) const {
    if (source != peer) return false;
    return kind == kData ? len <= kMaxPayloadBytes
                         : kind <= kInterrupt && len == 0;
  }
};

/// The receiver thread's state for one peer stream. Headers and frames
/// that arrive whole sit in a small stage; a payload that runs past the
/// staged bytes is read straight into its own pooled packet (`body`),
/// which the proxy then adopts. Of a tile-sized frame, only the bytes
/// that landed in the stage with its header (at most kStageBytes) are
/// copied again.
struct SocketComm::RxStream {
  static constexpr std::size_t kStageBytes = 2048;
  std::vector<std::byte> stage = std::vector<std::byte>(kStageBytes);
  std::size_t fill = 0;   ///< staged bytes, at the front of `stage`
  FrameHeader hdr;        ///< header of the frame `body` belongs to
  Packet body;            ///< payload in flight (empty: none)
  std::size_t body_have = 0;
};

void SocketComm::dispatch(int peer, const FrameHeader& h, Packet payload) {
  frames_received_.fetch_add(1, std::memory_order_relaxed);
  switch (h.kind) {
    case kData:
      (void)deliver(rank_, Message{h.source, h.tag, h.meta, h.seq, h.ack,
                                   (h.flags & 1u) != 0, std::move(payload),
                                   h.epoch});
      break;
    case kBarrier: {
      {
        std::lock_guard<std::mutex> lock(bmu_);
        if (h.seq > barrier_seen_[peer]) barrier_seen_[peer] = h.seq;
      }
      bcv_.notify_all();
      break;
    }
    default:  // kInterrupt (consume() admits no other kind)
      Comm::interrupt(rank_);
      break;
  }
}

bool SocketComm::consume(int peer, RxStream& rx) {
  std::size_t off = 0;
  while (rx.fill - off >= kFrameHeaderBytes) {
    const FrameHeader h(rx.stage.data() + off);
    // Checked before anything is allocated: a hostile or corrupt length
    // must neither wrap the arithmetic below nor size an allocation.
    if (!h.valid(peer)) return false;
    const std::byte* body = rx.stage.data() + off + kFrameHeaderBytes;
    const std::size_t have = rx.fill - off - kFrameHeaderBytes;
    const auto len = static_cast<std::size_t>(h.len);
    Packet p = h.kind == kData ? Packet::make(len, h.meta) : Packet();
    if (have < len) {
      // The payload runs past the stage: keep what arrived, read the rest
      // straight into the packet.
      if (have > 0) std::memcpy(p.bytes(), body, have);
      rx.hdr = h;
      rx.body = std::move(p);
      rx.body_have = have;
      off = rx.fill;
      break;
    }
    if (len > 0) std::memcpy(p.bytes(), body, len);
    dispatch(peer, h, std::move(p));
    off += kFrameHeaderBytes + len;
  }
  // Keep a partial header at the front for the next read.
  if (off > 0) {
    std::memmove(rx.stage.data(), rx.stage.data() + off, rx.fill - off);
    rx.fill -= off;
  }
  return true;
}

bool SocketComm::receive(int peer, int fd, RxStream& rx) {
  iovec iov[2];
  int n = 0;
  const std::size_t want = static_cast<std::size_t>(rx.hdr.len) - rx.body_have;
  if (!rx.body.empty()) iov[n++] = {rx.body.bytes() + rx.body_have, want};
  iov[n++] = {rx.stage.data() + rx.fill, rx.stage.size() - rx.fill};
  msghdr msg{};
  msg.msg_iov = iov;
  msg.msg_iovlen = static_cast<std::size_t>(n);
  const ssize_t k = ::recvmsg(fd, &msg, MSG_DONTWAIT);
  if (k < 0) return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
  if (k == 0) return false;  // EOF: the peer process exited
  auto got = static_cast<std::size_t>(k);
  if (!rx.body.empty()) {
    const std::size_t b = std::min(got, want);
    rx.body_have += b;
    got -= b;
    if (b == want) {
      dispatch(peer, rx.hdr, std::move(rx.body));
      rx.body = Packet();
      rx.body_have = 0;
    }
  }
  rx.fill += got;
  if (consume(peer, rx)) return true;
  // A malformed header: the stream can no longer be framed. Shut the
  // socket so our own writes to this peer fail fast too, and take the
  // dead-peer path.
  ::shutdown(fd, SHUT_RDWR);
  return false;
}

// The receiver polls a snapshot of the peer fds, so the EOF of a dead
// incarnation can surface after install_rejoin has already swapped in the
// replacement and cleared peer_down_. Marking the link down then would
// freeze it for good: Reliable::poll defers retransmits to a down peer,
// so one lost frame to the live replacement would never be resent and
// the run would wedge. Only the current fd's EOF marks the peer down;
// downmu_ makes the fd check and the store one step against the clear.
void SocketComm::mark_down_if_current(int peer, int fd) {
  std::lock_guard<std::mutex> lock(downmu_);
  if (peer_fds_[peer].load(std::memory_order_acquire) == fd) {
    peer_down_[peer].store(true, std::memory_order_release);
  }
}

void SocketComm::receiver_loop() {
  std::vector<RxStream> rx(size());
  std::vector<char> dead(size(), 0);
  // The receiver's own view of each peer fd. When install_rejoin swaps a
  // peer's fd, the receiver — the only thread that might still be polling
  // the old one — closes the replaced fd itself at the next loop top and
  // discards the dead incarnation's partial stream bytes.
  std::vector<int> cur(size(), -1);
  for (int r = 0; r < size(); ++r) {
    cur[r] = peer_fds_[r].load(std::memory_order_acquire);
  }
  while (!stop_.load(std::memory_order_acquire)) {
    std::vector<pollfd> pfds;
    std::vector<int> owners;
    for (int r = 0; r < size(); ++r) {
      if (r == rank_) continue;
      const int fd = peer_fds_[r].load(std::memory_order_acquire);
      if (fd != cur[r]) {  // a replacement rejoined on a fresh socket
        if (cur[r] >= 0) ::close(cur[r]);
        cur[r] = fd;
        rx[r] = RxStream{};  // partial frame bytes of the dead incarnation
        dead[r] = 0;
      }
      if (fd < 0 || dead[r] != 0) continue;
      pfds.push_back({fd, POLLIN, 0});
      owners.push_back(r);
    }
    pfds.push_back({wake_pipe_[0], POLLIN, 0});
    const int n = ::poll(pfds.data(), pfds.size(), /*ms=*/50);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // polling is unrecoverable; shutdown will reap us
    }
    if (n == 0) continue;
    for (std::size_t i = 0; i + 1 < pfds.size(); ++i) {
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const int peer = owners[i];
      if (pfds[i].fd != cur[peer]) continue;  // swapped mid-iteration
      if (!receive(peer, pfds[i].fd, rx[peer])) {
        dead[peer] = 1;  // peer process exited (normal during teardown)
        mark_down_if_current(peer, pfds[i].fd);
      }
    }
    if ((pfds.back().revents & POLLIN) != 0) {
      char b;
      (void)!::read(wake_pipe_[0], &b, 1);
    }
  }
  // A swap the loop never got to reconcile would leak the replaced fd.
  for (int r = 0; r < size(); ++r) {
    if (cur[r] >= 0 && cur[r] != peer_fds_[r].load(std::memory_order_acquire)) {
      ::close(cur[r]);
    }
  }
}

}  // namespace pulsarqr::prt::net
