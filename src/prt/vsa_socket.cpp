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
// control plane: a poll loop over one control socketpair per child that
// carries out what prt::Supervisor (supervisor.hpp) decides. Per-child
// stats and trace events travel back as little-endian blobs (wire.hpp).
// Result data does not: VDPs deposit it into memory shared since before
// the fork (vsaqr/deposit_slots.hpp).
//
// Control protocol (child c <-> parent):
//   c -> p  'H'                    liveness heartbeat
//   c -> p  'D'                    local workers finished cleanly
//   p -> c  'G'                    every node finished; tear down
//   p -> c  'C'                    another node failed; abandon the run
//   p -> c  'R' RejoinHdr + fd     a peer was respawned (crash recovery)
//   c -> p  'E' u64 len  blob      success epilogue: stats and trace
//                                  events
//   c -> p  'F' u64 len  blob      serialized RunReport (local failure)
// A child whose VDP body threw, or that gets 'C' (or loses the parent),
// ships its 'F' report and exits with status 1; a child EOF without
// 'E'/'F' means it crashed outright.
#include "prt/vsa.hpp"

#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <tuple>
#include <utility>

#include "prt/socket_comm.hpp"
#include "prt/supervisor.hpp"
#include "prt/wire.hpp"

namespace pulsarqr::prt {

using namespace std::chrono_literals;

namespace {

/// Send an 'E' or 'F' frame: the type byte, the body length as a u64,
/// the body.
bool send_frame(int fd, char type, const net::wire::Blob& b) {
  std::byte hdr[9];
  hdr[0] = static_cast<std::byte>(type);
  net::wire::put_u64(hdr + 1, b.size());
  iovec iov[2] = {{hdr, sizeof hdr},
                  {const_cast<std::byte*>(b.data()), b.size()}};
  return net::send_all(fd, iov, 2);
}

/// Read exactly `n` control bytes; false on EOF or error. Keeps room for
/// an SCM_RIGHTS descriptor: the rejoin handshake rides its fd on the
/// first byte of the 'R' message, and a plain read() at that moment would
/// silently discard it. *out_fd receives the passed descriptor (or stays
/// -1).
bool ctl_read(int fd, void* buf, std::size_t n, int* out_fd) {
  *out_fd = -1;
  char* p = static_cast<char*>(buf);
  while (n > 0) {
    iovec iov{p, n};
    alignas(cmsghdr) char cbuf[CMSG_SPACE(sizeof(int))];
    msghdr msg{};
    msg.msg_iov = &iov;
    msg.msg_iovlen = 1;
    msg.msg_control = cbuf;
    msg.msg_controllen = sizeof cbuf;
    const ssize_t k = ::recvmsg(fd, &msg, 0);
    if (k < 0 && errno == EINTR) continue;
    if (k <= 0) return false;
    for (cmsghdr* cm = CMSG_FIRSTHDR(&msg); cm != nullptr;
         cm = CMSG_NXTHDR(&msg, cm)) {
      if (cm->cmsg_level == SOL_SOCKET && cm->cmsg_type == SCM_RIGHTS) {
        std::memcpy(out_fd, CMSG_DATA(cm), sizeof(int));
      }
    }
    p += k;
    n -= static_cast<std::size_t>(k);
  }
  return true;
}

}  // namespace

void Vsa::child_main(int rank, std::vector<int> peer_fds, int control_fd,
                     std::uint32_t incarnation,
                     std::vector<std::uint32_t> peer_epochs) {
  comm_ = std::make_unique<net::SocketComm>(cfg_.nodes, rank,
                                            std::move(peer_fds), incarnation,
                                            std::move(peer_epochs));
  sock_comm_ = static_cast<net::SocketComm*>(comm_.get());
  if (cfg_.fault_plan.any()) comm_->set_fault_plan(cfg_.fault_plan);

  // Heartbeat the parent (~5/s: its supervisor takes a silent child for
  // dead), then serve one control message if it arrives within
  // `timeout_ms`: apply an 'R' rejoin, latch 'G', and cancel the run on
  // 'C', EOF or garbage.
  bool go = false;
  auto last_hb = std::chrono::steady_clock::now();
  auto serve_control = [&](int timeout_ms) {
    if (std::chrono::steady_clock::now() - last_hb >= 200ms) {
      last_hb = std::chrono::steady_clock::now();
      (void)::send(control_fd, "H", 1, MSG_NOSIGNAL);
    }
    pollfd pfd{control_fd, POLLIN, 0};
    const int pn = ::poll(&pfd, 1, timeout_ms);
    if (pn == 0 || (pn < 0 && errno == EINTR)) return;
    char c = 0;
    int rfd = -1, no_fd = -1;
    std::byte rest[net::wire::kRejoinBodyBytes];
    if (pn > 0 && ctl_read(control_fd, &c, 1, &rfd) && c == 'R' &&
        ctl_read(control_fd, rest, sizeof rest, &no_fd)) {
      // Peer rejoin: the fresh socket fd rides the first byte of the
      // handshake (see wire::RejoinHdr). Queue it for the proxy thread; a
      // rejoin naming no peer is dropped.
      const net::wire::RejoinHdr rj = net::wire::get_rejoin_body(rest);
      if (rfd >= 0 && rj.rank >= 0 && rj.rank < cfg_.nodes &&
          rj.rank != rank) {
        sock_comm_->rejoin_peer(rj.rank, rfd, rj.epoch);
      } else if (rfd >= 0) {
        ::close(rfd);
      }
      return;
    }
    if (rfd >= 0) ::close(rfd);
    if (c == 'G') {
      go = true;
      return;
    }
    cancelled_.store(true, std::memory_order_release);
    wake_all();
  };
  // Every watchdog period: serve the control plane, heartbeat, inject the
  // planned kill, and report frames accepted off the wire as progress —
  // a node whose VDPs all wait on remote input is not deadlocked while
  // its peers talk to it.
  auto tick = [&]() -> long long {
    serve_control(0);
    if (incarnation == 0 && cfg_.fault_plan.kill() &&
        cfg_.fault_plan.kill_rank == rank &&
        fires_.load(std::memory_order_relaxed) >= cfg_.fault_plan.kill_after) {
      // Injected crash: die exactly as a real segfault/OOM-kill would —
      // no unwinding, no 'F' report, sockets torn down by the kernel.
      // Only the first incarnation self-destructs, or the respawn loop
      // would never converge.
      ::kill(::getpid(), SIGKILL);
    }
    return sock_comm_->frames_received();
  };
  // Local workers done. Keep the proxy alive (late acks, retransmits for
  // peers still running) until the parent declares the whole run over.
  // A transport failure surfacing while waiting (exhausted retransmits to
  // a peer) cancels the run, which takes the failure path below.
  auto workers_done = [&] {
    if (cancelled_.load(std::memory_order_acquire) ||
        ::send(control_fd, "D", 1, MSG_NOSIGNAL) != 1) {
      return;
    }
    while (!go && !cancelled_.load(std::memory_order_acquire)) {
      serve_control(10);
    }
  };
  RunStats stats = run_local(rank, tick, workers_done);

  // Ship the 'E' epilogue, or the 'F' report. Always ship the local
  // report — even when the parent initiated the cancel: when a sibling
  // process crashed, the survivors' link gaps (who was mid-flight to the
  // dead rank, and how far behind) are the most useful part of the final
  // diagnostic, and the parent merges them.
  net::wire::Blob b;
  char type = 'F';
  try {
    if (go) {
      if (incarnation > 0) stats.refired_fires = stats.fires;
      rusage ru{};
      ::getrusage(RUSAGE_SELF, &ru);
      stats.minor_faults_per_node[rank] = ru.ru_minflt;
      stats.sys_seconds_per_node[rank] =
          ru.ru_stime.tv_sec + ru.ru_stime.tv_usec * 1e-6;
      encode_epilogue(b, stats,
                      cfg_.trace ? recorder_->collect()
                                 : std::vector<trace::Event>{});
      type = 'E';
    } else {
      encode_report(b, make_run_report(rank));
    }
  } catch (...) {
    // Never unwind out of the forked child into the caller's code: exit
    // without a report, which the parent takes as a dead node.
    type = 0;
  }
  if (type != 0) (void)send_frame(control_fd, type, b);
  comm_.reset();  // join the receiver thread before exiting
  ::_exit(type == 'E' ? 0 : 1);
}

Vsa::RunStats Vsa::run_socket() {
  using Clock = std::chrono::steady_clock;
  const int N = cfg_.nodes;
  const auto t_start = Clock::now();
  // A dead rank's report names, from this process's pristine image, the
  // VDP tuples that died with it.
  Supervisor sup(cfg_, [this](int r) { return make_run_report(r); }, t_start);

  // Every descriptor this run opened. A forked child closes all of them
  // but its own mesh row and control end (a number closed since is either
  // closed in the child too, or reused by a later pair of this run).
  std::vector<int> held;
  auto pair = [&](const char* what) {
    const auto p = net::open_pair(what);
    held.insert(held.end(), {p.first, p.second});
    return p;
  };
  struct Proc {
    pid_t pid = -1;
    int ctl = -1;  ///< this process's end of the control pair
  };
  std::vector<Proc> procs(N);
  // Fork rank r over `row` and the child end of `ctl`. The parent runs no
  // threads, so a respawn forks the same pristine copy-on-write image of
  // the unrun graph (VDPs, channels, feeds) as the first fork did.
  auto spawn = [&](int r, std::vector<int> row, std::pair<int, int> ctl) {
    const pid_t pid = ::fork();
    require(pid >= 0,
            "run: fork failed: " + std::string(std::strerror(errno)));
    if (pid == 0) {
      for (int fd : held) {
        if (fd != ctl.second && std::count(row.begin(), row.end(), fd) == 0) {
          ::close(fd);
        }
      }
      child_main(r, std::move(row), ctl.second, sup.incarnations()[r],
                 sup.incarnations());
    }
    procs[r] = {pid, ctl.first};
    for (int fd : row) {
      if (fd >= 0) ::close(fd);
    }
    ::close(ctl.second);
  };
  // Fresh socketpairs replacement <-> every survivor plus a new control
  // pair; the old descriptors died with the old process. Every survivor
  // gets its end of the fresh link as a wire::RejoinHdr with the
  // descriptor riding the first byte (SCM_RIGHTS duplicates it into the
  // survivor at delivery, so this copy closes).
  auto respawn = [&](int r) {
    std::vector<int> row(N, -1), surv(N, -1);
    for (int s = 0; s < N; ++s) {
      if (s != r) std::tie(row[s], surv[s]) = pair("respawn");
    }
    spawn(r, std::move(row), pair("respawn control"));
    std::byte hdr[net::wire::kRejoinHdrBytes];
    net::wire::put_rejoin_hdr(hdr, {r, sup.incarnations()[r]});
    for (int s = 0; s < N; ++s) {
      if (s == r) continue;
      iovec iov{hdr, sizeof hdr};
      if (sup.live(s)) (void)net::send_all(procs[s].ctl, &iov, 1, surv[s]);
      ::close(surv[s]);
    }
  };
  auto carry_out = [&] {
    for (const Supervisor::Action& a : sup.take_actions()) {
      Proc& p = procs[a.rank];
      if (a.kind == Supervisor::Action::Send) {
        (void)::send(p.ctl, &a.byte, 1, MSG_NOSIGNAL);
      } else if (a.kind == Supervisor::Action::Kill) {
        ::kill(p.pid, SIGKILL);
        ::waitpid(p.pid, nullptr, 0);
        ::close(p.ctl);
        p = Proc{};
      } else {
        respawn(a.rank);
      }
    }
  };

  auto mesh = net::SocketComm::socketpair_mesh(N);
  for (const auto& row : mesh) held.insert(held.end(), row.begin(), row.end());
  std::vector<std::pair<int, int>> ctl(N);
  for (auto& c : ctl) c = pair("control");
  for (int r = 0; r < N; ++r) spawn(r, std::move(mesh[r]), ctl[r]);

  // The poll loop: one non-blocking recv per readable child, matched to
  // the child by rank and incarnation (a respawn in the same sweep may
  // reuse a descriptor number), and a clock tick per sweep.
  std::vector<std::byte> buf(64 * 1024);
  while (!sup.finished()) {
    // A negative fd (a child no longer polled) is skipped by poll().
    std::vector<pollfd> pfds(N);
    for (int r = 0; r < N; ++r) {
      pfds[r] = {sup.live(r) ? procs[r].ctl : -1, POLLIN, 0};
    }
    const std::vector<std::uint32_t> inc = sup.incarnations();
    const int pn = ::poll(pfds.data(), pfds.size(), /*ms=*/100);
    for (int r = 0; pn > 0 && r < N; ++r) {
      if (pfds[r].revents == 0 || !sup.live(r) ||
          sup.incarnations()[r] != inc[r]) {
        continue;
      }
      const ssize_t k =
          ::recv(pfds[r].fd, buf.data(), buf.size(), MSG_DONTWAIT);
      if (k < 0 && (errno == EAGAIN || errno == EINTR)) continue;
      sup.on_recv(r, buf.data(), k > 0 ? static_cast<std::size_t>(k) : 0,
                  Clock::now());
      carry_out();
    }
    sup.on_tick(Clock::now());
    carry_out();
  }

  for (Proc& p : procs) {
    if (p.pid > 0) ::waitpid(p.pid, nullptr, 0);
    if (p.ctl >= 0) ::close(p.ctl);
  }
  if (const auto& f = sup.failure()) {
    throw RunError(failure_header(*f), *f);
  }
  for (int r = 0; r < N; ++r) {
    for (const trace::Event& ev : sup.events(r)) recorder_->inject(ev);
  }
  RunStats stats = std::move(sup.stats());
  stats.respawns = sup.respawns();
  stats.seconds = std::chrono::duration<double>(Clock::now() - t_start).count();
  return stats;
}

}  // namespace pulsarqr::prt
