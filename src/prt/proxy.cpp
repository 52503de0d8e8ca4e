#include "prt/proxy.hpp"

#include <utility>

namespace pulsarqr::prt {

Ingress::Ingress(RouteTable& routes, net::Reliable& rel, EpochFn peer_epoch)
    : routes_(routes), rel_(rel), peer_epoch_(std::move(peer_epoch)) {}

void Ingress::receive(std::deque<net::Message> arrived) {
  for (net::Message& m : arrived) {
    PQR_ASSERT(m.source >= 0 && static_cast<std::size_t>(m.source) <
                                    routes_.size(),
               "proxy: unroutable message from an unknown source rank");
    // Fence frames from a dead incarnation of a respawned peer. They can
    // linger in socket buffers or the mailbox across the rejoin; a stale
    // cumulative ack in particular would trim frames the replay path just
    // requeued, deadlocking the replacement. The fence sits after the
    // mailbox and before the protocol: the pump installs rejoins on this
    // same thread, so no frame can race past it. (A node's own frames
    // carry its current incarnation, which is never stale.)
    if (peer_epoch_ && m.epoch < peer_epoch_(m.source)) continue;
    rel_.on_receive(std::move(m), inbox_);
  }
  for (; !inbox_.empty(); inbox_.pop_front()) deliver(inbox_.front());
}

void Ingress::deliver(net::Message& m) {
  std::vector<Route>& row = routes_[m.source];  // source checked in receive()
  PQR_ASSERT(m.tag >= 0 && static_cast<std::size_t>(m.tag) < row.size(),
             "proxy: unroutable message");
  Route& r = row[m.tag];
  if (r.skip > 0) {  // a re-executed duplicate; only ever set by rejoin()
    --r.skip;
    return;
  }
  ++r.delivered;
  // Adopt the transport's buffer directly (in-process the sender's own,
  // under the intra-node channels' rule in packet.hpp).
  m.payload.set_meta(m.meta);
  r.channel->push(std::move(m.payload));
}

void Ingress::rejoin(int src) {
  rel_.reset_recv_link(src);
  for (Route& r : routes_[src]) r.skip = r.delivered;
}

}  // namespace pulsarqr::prt
