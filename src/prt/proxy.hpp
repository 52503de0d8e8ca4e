// The node proxy's two layers (paper §IV-B: one proxy per node moves
// packets between the node's workers and the network). Vsa::proxy_loop
// only pumps them:
//
//   Egress:  outgoing-queue batch -> per-destination stage -> Reliable
//            (sequenced, or a pass-through raw isend)
//   Ingress: mailbox -> epoch fence -> Reliable -> aggregate split ->
//            per-route replay dedup -> channel push
//
// Neither layer owns a thread or a lock. One proxy thread drives both and
// the net::Reliable endpoint they share, so either can be driven from a
// test over a MailboxComm with no thread at all.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "prt/channel.hpp"
#include "prt/transport.hpp"

namespace pulsarqr::prt {

/// One inter-node packet a worker handed to its node's proxy.
struct OutMsg {
  int dst_node = -1;
  int tag = -1;
  Packet p;
};

/// One inter-node channel as its destination node sees it.
struct Route {
  Channel* channel = nullptr;
  /// Frames pushed into `channel`, and (crash recovery only) how many
  /// re-executed duplicates of them a rejoined source still has to resend.
  long long delivered = 0, skip = 0;
};

/// A node's inter-node routes, indexed [source rank][tag]. Tags are
/// numbered densely from 0 per (source, destination) pair, so a new
/// channel's tag is the size of its row.
using RouteTable = std::vector<std::vector<Route>>;

/// Sending side: per-destination frame coalescing.
///
/// Outbound frames are gather-copied into one pooled wire buffer per
/// destination and shipped as a single aggregate message (one fault-plan
/// decision, one sequence number) when the stage fills, its deadline
/// expires, or the pump asks for everything. A frame so large that two of
/// its size could not share a stage would only ever travel as a one-frame
/// aggregate, so copying it in and splitting it out again batches nothing:
/// such frames (every frame when coalescing is off) are sent directly from
/// their own buffer, after flushing the stage so per-destination order
/// holds.
class Egress {
 public:
  using Clock = std::chrono::steady_clock;
  /// Deadline of a non-full stage: a destination is flushed once its
  /// oldest staged frame has waited this long. At nb 16 over sockets it
  /// sends about a fifth fewer wire messages than flushing at once, with a
  /// little less system time (EXPERIMENTS.md).
  static constexpr auto kFlushWindow = std::chrono::microseconds(50);

  /// Application frames sent and their payload bytes; frames shipped
  /// inside aggregates, and aggregate wire messages.
  struct Counters {
    long long frames = 0, bytes = 0, coalesced = 0, aggregates = 0;
  };

  /// Sends through `rel` to `nranks` ranks. `coalesce_bytes` is
  /// Vsa::Config::coalesce_bytes (0: never stage).
  Egress(net::Reliable& rel, int nranks, std::size_t coalesce_bytes);

  /// Stage one frame, or send it directly (see above).
  void send(const OutMsg& m);
  /// Ship every stage whose deadline is at or before `now`; true if any
  /// aggregate went out.
  bool flush_due(Clock::time_point now);
  bool flush_all() { return flush_due(Clock::time_point::max()); }
  const Counters& counters() const { return counters_; }

 private:
  struct Stage {
    net::FrameStager stager;  ///< allocates on its first add() only
    Clock::time_point deadline{};  ///< flush-by time of the oldest frame
  };
  bool flush(int dst);

  net::Reliable& rel_;
  std::size_t cap_;
  std::vector<Stage> stages_;  ///< by destination rank
  Counters counters_;
};

/// Receiving side: clears arrived messages through the protocol and pushes
/// their application frames into the node's channels.
///
/// Crash replay dedup. Wire sequence numbers cannot dedup a respawned
/// peer's re-sent stream: the replacement re-coalesces from scratch, so its
/// frame k need not carry the same application frames as the dead
/// incarnation's frame k. What IS deterministic is the per-channel order of
/// application frames (single producer VDP, fixed firing order, in-order
/// delivery under Reliable), so the ingress counts delivered frames per
/// route and, at a rejoin, drops exactly the already-delivered prefix of
/// the replacement's fresh stream.
class Ingress {
 public:
  /// Current incarnation of a peer rank.
  using EpochFn = std::function<std::uint32_t(int)>;

  /// Receives through `rel` into `routes`. A set `peer_epoch` (crash
  /// recovery) fences frames from a peer's dead incarnations.
  Ingress(RouteTable& routes, net::Reliable& rel,
          EpochFn peer_epoch = nullptr);

  /// Take `arrived` (in arrival order) and push every frame it clears into
  /// its channel. A message no channel of this node can take (unknown
  /// source rank, a tag outside the source's row, an aggregate whose frame
  /// count disagrees with its meta) is a named `proxy:` failure.
  void receive(std::deque<net::Message> arrived);

  /// A replacement of rank `src` rejoined and re-executes from the start:
  /// forget the dead incarnation's link state and arrange to drop the
  /// prefix of each of its routes this node already delivered.
  void rejoin(int src);

 private:
  void deliver(net::Message& m);
  /// The channel of route (src, tag), counting the frame as delivered;
  /// null for a re-executed duplicate the replay dedup drops. A route no
  /// channel has fails with `unroutable`.
  Channel* admit(int src, int tag, const char* unroutable);

  RouteTable& routes_;
  net::Reliable& rel_;
  EpochFn peer_epoch_;
  std::deque<net::Message> inbox_;  ///< what the protocol cleared
};

}  // namespace pulsarqr::prt
