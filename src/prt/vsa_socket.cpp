// Socket transport: the fork/socket control plane of Vsa::run(). The node
// engine itself (workers, proxy, watchdog) is Vsa::run_local in vsa.cpp;
// this file forks one process per node, runs run_local for that node in
// each child, and merges what the children ship home.
//
// run_socket() forks after the graph is built and wired but before any
// thread exists, so every node process inherits an identical copy-on-write
// image of the VSA (VDPs, channels, feeds, globals). Each child runs ONLY
// its own node's workers and proxy over a SocketComm wired into a
// pre-opened socketpair mesh; the parent runs no VDPs at all — it is the
// control plane. Per-child stats travel back over a dedicated control
// socketpair as little-endian blobs (wire.hpp). Result data does not: an
// application's collect hook writes it into memory shared since before
// the fork (vsaqr::DepositArena) and ships only a small blob, such as the
// byte count written, in the epilogue.
//
// Control protocol (child c <-> parent):
//   c -> p  'H'                    liveness heartbeat
//   c -> p  'D'                    local workers finished cleanly
//   p -> c  'G'                    every node finished; tear down
//   p -> c  'C'                    another node failed; abandon the run
//   p -> c  'R' RejoinHdr + fd     a peer was respawned (crash recovery)
//   c -> p  'E' u64 len  blob      success epilogue: stats, the collect
//                                  hook's blob (a deposit byte count, not
//                                  the deposits) and trace events
//   c -> p  'F' u64 len  blob      serialized RunReport (local failure)
// A child that gets 'C' (or loses the parent) ships its 'F' report and
// exits with status 1; a child EOF without 'E'/'F' means it crashed
// outright.
#include "prt/vsa.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <climits>
#include <csignal>
#include <cstring>
#include <tuple>
#include <utility>

#include "prt/socket_comm.hpp"
#include "prt/wire.hpp"

namespace pulsarqr::prt {

using namespace std::chrono_literals;

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

/// Read exactly `n` bytes; false on EOF, error, or once `deadline`
/// passes (polling before every recv). Control-plane reads in the parent
/// must never block indefinitely on a wedged child — the caller escalates
/// to the SIGKILL backstop instead.
bool fd_read(int fd, void* buf, std::size_t n,
             std::chrono::steady_clock::time_point deadline =
                 std::chrono::steady_clock::time_point::max()) {
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

/// A connected AF_UNIX stream pair, or a thrown Error naming `what`.
std::pair<int, int> open_pair(const char* what) {
  int sv[2];
  require(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) == 0,
          std::string("run: ") + what +
              " socketpair failed: " + std::strerror(errno));
  return {sv[0], sv[1]};
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

Vsa::RunReport deserialize_report(const std::vector<std::byte>& blob) {
  net::wire::BlobReader br(blob.data(), blob.size());
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

/// Read one length-prefixed blob by `deadline`. The buffer is filled only
/// as bytes arrive, so a length a child lied about ends in the deadline or
/// EOF path (as for a dead child), never in a huge up-front allocation.
/// Up to 64 MiB is reserved up front (address space, not resident
/// memory) so a typical epilogue is read without regrowing the buffer.
bool read_blob(int fd, std::vector<std::byte>& out,
               std::chrono::steady_clock::time_point deadline) {
  std::byte len8[8];
  if (!fd_read(fd, len8, 8, deadline)) return false;
  std::uint64_t left = net::wire::get_u64(len8);
  out.clear();
  out.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(left, std::uint64_t{64} << 20)));
  while (left > 0) {
    const std::size_t chunk =
        static_cast<std::size_t>(std::min<std::uint64_t>(left, 1 << 20));
    const std::size_t at = out.size();
    out.resize(at + chunk);
    if (!fd_read(fd, out.data() + at, chunk, deadline)) return false;
    left -= chunk;
  }
  return true;
}

/// Run `decode`; false if it threw (a malformed control-plane blob).
template <class Fn>
bool decoded(Fn decode) {
  try {
    decode();
    return true;
  } catch (const Error&) {
    return false;
  }
}

/// Every RunStats counter, listed once for the encoder and the decoder.
template <class Stats>
auto counters(Stats& s) {
  return std::array{&s.fires,
                    &s.remote_messages,
                    &s.remote_bytes,
                    &s.wire_offered,
                    &s.wire_messages,
                    &s.wire_bytes,
                    &s.fault_streams,
                    &s.coalesced_frames,
                    &s.aggregates_sent,
                    &s.pool_hits,
                    &s.pool_misses,
                    &s.faults.dropped,
                    &s.faults.duplicated,
                    &s.faults.delayed,
                    &s.faults.reordered,
                    &s.retransmits,
                    &s.duplicates_suppressed,
                    &s.acks_sent,
                    &s.respawns,
                    &s.replayed_frames,
                    &s.refired_fires};
}

template <class Stats>
auto vectors(Stats& s) {
  return std::array{&s.busy_per_thread, &s.proxy_busy_per_node};
}

}  // namespace

void encode_run_stats(net::wire::Blob& b, const Vsa::RunStats& s) {
  b.f64(s.seconds);
  b.i64(s.leftover_packets);
  for (const long long* c : counters(s)) b.i64(*c);
  for (const std::vector<double>* v : vectors(s)) {
    b.u64(v->size());
    for (double d : *v) b.f64(d);
  }
}

void merge_run_stats(net::wire::BlobReader& br, Vsa::RunStats& total) {
  Vsa::RunStats s = total;
  s.seconds = std::max(s.seconds, br.f64());
  const std::int64_t leftover = br.i64();
  require(leftover >= 0 && leftover <= INT_MAX - s.leftover_packets,
          "merge_run_stats: leftover packet count out of range");
  s.leftover_packets += static_cast<int>(leftover);
  // Counters add modulo 2^64: a hostile blob must not overflow into UB.
  for (long long* c : counters(s)) {
    *c = static_cast<long long>(static_cast<std::uint64_t>(*c) + br.u64());
  }
  for (std::vector<double>* v : vectors(s)) {
    require(br.u64() == v->size(),
            "merge_run_stats: per-thread or per-node stats do not match the "
            "run topology");
    for (double& d : *v) d += br.f64();
  }
  total = std::move(s);
}

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

  // Dispatch one pending control byte. Returns 0 when handled ('R'
  // rejoin, stray bytes), 1 on cancel ('C', EOF, parent death), 2 on 'G'.
  auto handle_ctl = [&]() -> int {
    char c = 0;
    int rfd = -1;
    const int k = ctl_read_byte(control_fd, &c, &rfd);
    std::byte rest[net::wire::kRejoinBodyBytes];
    const bool rejoin =
        k > 0 && c == 'R' && fd_read(control_fd, rest, sizeof rest);
    if (rejoin) {
      // Peer rejoin: the fresh socket fd rides the first byte of the
      // handshake (see wire::RejoinHdr). Queue it for the proxy thread.
      const net::wire::RejoinHdr rj = net::wire::get_rejoin_body(rest);
      if (rfd >= 0 && rj.rank >= 0 && rj.rank < cfg_.nodes &&
          rj.rank != rank) {
        sock->rejoin_peer(rj.rank, rfd, rj.epoch);
        return 0;
      }
    }
    if (rfd >= 0) ::close(rfd);
    if (rejoin) return 0;
    // 'C', EOF, a torn rejoin or garbage: the run is over.
    return k > 0 && c == 'G' ? 2 : 1;
  };
  // Liveness heartbeat to the parent (~5/s): its control plane SIGKILLs a
  // child it has not heard from in heartbeat_timeout_seconds.
  auto last_hb_sent = std::chrono::steady_clock::now();
  auto send_heartbeat = [&] {
    const auto now = std::chrono::steady_clock::now();
    if (now - last_hb_sent < 200ms) return;
    last_hb_sent = now;
    (void)fd_send_all(control_fd, "H", 1);
  };

  // Every watchdog period: serve the control plane, heartbeat, inject the
  // planned kill, and report frames accepted off the wire as progress —
  // a node whose VDPs all wait on remote input is not deadlocked while
  // its peers talk to it.
  auto tick = [&]() -> long long {
    pollfd pfd{control_fd, POLLIN, 0};
    if (::poll(&pfd, 1, 0) > 0 &&
        (pfd.revents & (POLLIN | POLLHUP | POLLERR)) != 0 &&
        handle_ctl() == 1) {
      cancelled_.store(true, std::memory_order_release);
      wake_all();
    }
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
    return sock->frames_received();
  };
  // Local workers done. Keep the proxy alive (late acks, retransmits for
  // peers still running) until the parent declares the whole run over.
  bool ok = true;
  auto workers_done = [&] {
    ok = !cancelled_.load(std::memory_order_acquire) &&
         fd_send_all(control_fd, "D", 1);
    // A transport failure surfacing while waiting (exhausted retransmits
    // to a peer) downgrades to the failure path below.
    while (ok && !cancelled_.load(std::memory_order_acquire)) {
      send_heartbeat();
      pollfd pfd{control_fd, POLLIN, 0};
      const int pn = ::poll(&pfd, 1, /*ms=*/10);
      if (pn < 0 && errno != EINTR) ok = false;
      if (pn <= 0) continue;
      const int verdict = handle_ctl();
      if (verdict == 2) return;  // 'G': every node is done
      if (verdict == 1) cancelled_.store(true, std::memory_order_release);
    }
    ok = false;
  };
  RunStats stats = run_local(rank, tick, workers_done);

  net::wire::Blob b;
  if (!ok) {
    // Always ship the local report — even when the parent initiated the
    // cancel. When a sibling process crashed, the survivors' link gaps
    // (who was mid-flight to the dead rank, and how far behind) are the
    // most useful part of the final diagnostic; the parent merges them.
    serialize_report(b, make_run_report(rank));
    (void)ctl_send_blob(control_fd, 'F', b);
    comm_.reset();  // join the receiver thread before exiting
    ::_exit(1);
  }

  // Success epilogue: this node's RunStats, the collect hook's blob for
  // the parent's merge hook, and (when tracing) the local events
  // with this process's clock epoch so the parent can offset-align them
  // onto one timeline.
  Packet app;
  try {
    if (collect_hook_) app = collect_hook_(rank);
  } catch (...) {
    // Never unwind out of the forked child into the caller's code: exit
    // without an epilogue, which the parent reports as a dead node.
    comm_.reset();
    ::_exit(1);
  }
  if (incarnation > 0) stats.refired_fires = stats.fires;
  encode_run_stats(b, stats);
  b.u64(app.size());
  if (app.size() > 0) b.bytes(app.bytes(), app.size());
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
    std::tie(ctl_parent[r], ctl_child[r]) = open_pair("control");
  }

  const auto t_start = std::chrono::steady_clock::now();
  std::vector<pid_t> pids(N, -1);
  std::vector<char> reaped(N, 0);
  std::vector<std::uint32_t> incarnation(N, 0);
  // Fork node process r over its mesh row and control end. The child
  // first drops `drop` — every inherited fd that is not its own — and
  // never returns.
  auto spawn = [&](int r, std::vector<int> row, int ctl,
                   const std::vector<int>& drop) {
    const pid_t pid = ::fork();
    require(pid >= 0,
            "run: fork failed: " + std::string(std::strerror(errno)));
    if (pid == 0) {
      for (int fd : drop) {
        if (fd >= 0) ::close(fd);
      }
      child_main(r, std::move(row), ctl, incarnation[r], incarnation);
    }
    pids[r] = pid;
    reaped[r] = 0;
  };
  for (int r = 0; r < N; ++r) {
    // Other ranks' mesh rows, their control ends, all parent control ends.
    std::vector<int> drop = ctl_parent;
    for (int a = 0; a < N; ++a) {
      if (a == r) continue;
      drop.insert(drop.end(), mesh[a].begin(), mesh[a].end());
      drop.push_back(ctl_child[a]);
    }
    spawn(r, mesh[r], ctl_child[r], drop);
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
  bool go_sent = false, cancel_sent = false, failed = false, wedged = false;
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
  // Blob reads are bounded: a child wedged mid-blob must not hang the
  // control plane past the liveness deadline it would otherwise be
  // judged by.
  const auto blob_window = hb_bounded ? hb_timeout
                                      : std::chrono::steady_clock::duration(
                                            std::chrono::hours(24));
  // Success epilogues are decoded on arrival, so a malformed one fails
  // that child (kill, reap) while the control plane still runs; the
  // application blobs and trace events are applied only once every node
  // has ended.
  RunStats stats;
  stats.busy_per_thread.assign(total_threads(), 0.0);
  stats.proxy_busy_per_node.assign(N, 0.0);
  std::vector<Packet> apps(N);
  std::vector<std::vector<trace::Event>> child_events(N);
  const std::int64_t parent_epoch_ns = recorder_->epoch_ns();
  auto accept_epilogue = [&](int r, const std::vector<std::byte>& blob) {
    net::wire::BlobReader br(blob.data(), blob.size());
    RunStats merged = stats;
    merge_run_stats(br, merged);
    const std::uint64_t app_len = br.u64();
    Packet app;
    if (app_len > 0) {
      const std::byte* bytes = br.take(app_len);
      app = Packet::make(app_len);
      std::memcpy(app.bytes(), bytes, app_len);
    }
    // The child's events, offset-aligned onto the parent's clock so the
    // merged timeline is coherent across processes.
    const double off = static_cast<double>(static_cast<std::int64_t>(
                           static_cast<std::uint64_t>(br.i64()) -
                           static_cast<std::uint64_t>(parent_epoch_ns))) *
                       1e-9;
    std::vector<trace::Event> events;
    for (std::uint64_t e = br.u64(); e > 0; --e) {
      trace::Event ev;
      ev.thread = br.i32();
      ev.color = br.i32();
      const std::uint32_t tn = br.u32();
      require(tn <= br.remaining() / 4,
              "socket epilogue: trace tuple longer than the blob");
      std::vector<int> vals(tn);
      for (int& x : vals) x = br.i32();
      ev.tuple = Tuple(std::move(vals));
      ev.t0 = br.f64() + off;
      ev.t1 = br.f64() + off;
      events.push_back(std::move(ev));
    }
    require(br.done(), "socket epilogue: trailing bytes");
    stats = std::move(merged);
    apps[r] = std::move(app);
    child_events[r] = std::move(events);
  };

  auto respawn = [&](int r) {
    ++respawns_used;
    ++incarnation[r];
    // Fresh socketpairs replacement <-> every survivor plus a new control
    // pair; the old descriptors died with the old process.
    std::vector<int> child_row(N, -1);
    std::vector<int> surv_fd(N, -1);
    for (int s = 0; s < N; ++s) {
      if (s != r) std::tie(child_row[s], surv_fd[s]) = open_pair("respawn");
    }
    const auto [ctl_p, ctl_c] = open_pair("respawn control");
    // The parent runs no threads, so fork here is as safe as the initial
    // fork loop: the replacement inherits the same pristine
    // copy-on-write image of the unrun graph (VDPs, channels, feeds) and
    // will re-fire its node from the start.
    std::vector<int> drop = surv_fd;
    drop.insert(drop.end(), ctl_parent.begin(), ctl_parent.end());
    drop.push_back(ctl_p);
    spawn(r, child_row, ctl_c, drop);
    ctl_parent[r] = ctl_p;
    ::close(ctl_c);
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
      for (int r = 0; r < N; ++r) {
        if (state[r] == kRunning || state[r] == kDone) {
          (void)fd_send_all(ctl_parent[r], "C", 1);
        }
      }
      cancel_sent = true;
    }
    if (!go_sent && !failed && all_past_running) {
      for (int r = 0; r < N; ++r) (void)fd_send_all(ctl_parent[r], "G", 1);
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
      wedged = true;
      break;
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
      if (!fd_read(pfds[i].fd, &t, 1)) {
        handle_child_death(r);  // EOF without 'E'/'F': crashed outright
        continue;
      }
      last_heard[r] = std::chrono::steady_clock::now();
      std::vector<std::byte> blob;
      const auto deadline = last_heard[r] + blob_window;
      if (t == 'D') {
        state[r] = kDone;
      } else if (t == 'E') {
        if (read_blob(pfds[i].fd, blob, deadline) &&
            decoded([&] { accept_epilogue(r, blob); })) {
          state[r] = kEnded;
        } else {
          ::kill(pids[r], SIGKILL);
          handle_child_death(r);
        }
      } else if (t == 'F') {
        state[r] = kFailed;
        RunReport rep;
        rep.reason = "process";
        // An unreadable report still fails the run; the child is killed
        // so the reap below cannot wait on a wedged process.
        if (!read_blob(pfds[i].fd, blob, deadline) ||
            !decoded([&] { rep = deserialize_report(blob); })) {
          ::kill(pids[r], SIGKILL);
        }
        fail_with(std::move(rep));
      } else if (t != 'H') {  // 'H' is a liveness heartbeat only
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
  if (wedged) {
    throw RunError(
        "PRT socket transport: node processes stopped responding; killed.\n",
        make_run_report());
  }
  if (failed) {
    // Header first: argument evaluation is unsequenced, so reading
    // fail_report.reason inline could see the already-moved-from report.
    std::string header = failure_header(fail_report.reason);
    throw RunError(std::move(header), std::move(fail_report));
  }

  for (int r = 0; r < N; ++r) {
    if (merge_hook_) merge_hook_(r, apps[r]);
    for (const trace::Event& ev : child_events[r]) recorder_->inject(ev);
  }
  stats.respawns = respawns_used;
  stats.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t_start)
          .count();
  return stats;
}

}  // namespace pulsarqr::prt
