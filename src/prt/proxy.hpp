// The node proxy's receiving layer (paper §IV-B: one proxy per node moves
// packets between the node's workers and the network). Vsa::proxy_loop
// pumps it and sends each outgoing packet as its own wire message through
// the same net::Reliable endpoint (sequenced, or a pass-through raw isend):
//
//   Ingress: mailbox -> epoch fence -> Reliable -> per-route replay dedup
//            -> channel push
//
// The layer owns no thread and no lock. One proxy thread drives it and the
// endpoint, so it can be driven from a test over a MailboxComm with no
// thread at all.
#pragma once

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

/// Receiving side: clears arrived messages through the protocol and pushes
/// their application frames into the node's channels.
///
/// Crash replay dedup. Wire sequence numbers cannot dedup a respawned
/// peer's re-sent stream: frames for different routes interleave in the
/// replacement's outgoing queue in an order that depends on timing, so its
/// frame k need not be the dead incarnation's frame k. What IS
/// deterministic is the per-channel order of application frames (single
/// producer VDP, fixed firing order, in-order delivery under Reliable), so
/// the ingress counts delivered frames per route and, at a rejoin, drops
/// exactly the already-delivered prefix of the replacement's fresh stream.
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
  /// source rank, a tag outside the source's row) is a named `proxy:`
  /// failure.
  void receive(std::deque<net::Message> arrived);

  /// A replacement of rank `src` rejoined and re-executes from the start:
  /// forget the dead incarnation's link state and arrange to drop the
  /// prefix of each of its routes this node already delivered.
  void rejoin(int src);

 private:
  void deliver(net::Message& m);

  RouteTable& routes_;
  net::Reliable& rel_;
  EpochFn peer_epoch_;
  std::deque<net::Message> inbox_;  ///< what the protocol cleared
};

}  // namespace pulsarqr::prt
