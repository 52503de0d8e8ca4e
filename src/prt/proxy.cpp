#include "prt/proxy.hpp"

#include <cstring>
#include <utility>

namespace pulsarqr::prt {

// ---- egress -----------------------------------------------------------------

Egress::Egress(net::Reliable& rel, int nranks, std::size_t coalesce_bytes)
    : rel_(rel),
      cap_(coalesce_bytes),
      stages_(nranks, Stage{net::FrameStager(coalesce_bytes)}) {}

void Egress::send(const OutMsg& m) {
  ++counters_.frames;
  counters_.bytes += static_cast<long long>(m.p.size());
  if (2 * net::FrameStager::wire_size(m.p.size()) > cap_) {
    flush(m.dst_node);  // preserve per-destination order
    rel_.send(m.dst_node, m.tag, m.p, m.p.meta());
    return;
  }
  Stage& s = stages_[m.dst_node];
  if (!s.stager.fits(m.p.size())) flush(m.dst_node);
  if (s.stager.empty()) s.deadline = Clock::now() + kFlushWindow;
  s.stager.add(m.tag, m.p.meta(), m.p);
}

bool Egress::flush_due(Clock::time_point now) {
  bool any = false;
  for (std::size_t dst = 0; dst < stages_.size(); ++dst) {
    if (now >= stages_[dst].deadline) any |= flush(static_cast<int>(dst));
  }
  return any;
}

bool Egress::flush(int dst) {
  net::FrameStager& stager = stages_[dst].stager;
  if (stager.empty()) return false;
  counters_.coalesced += stager.frames();
  ++counters_.aggregates;
  const Packet wire = stager.take();
  rel_.send(dst, net::kAggregateTag, wire, wire.meta());
  return true;
}

// ---- ingress ----------------------------------------------------------------

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
  if (m.tag == net::kAggregateTag) {
    // Split an aggregate back into its application frames. Each frame
    // gets a fresh pooled packet: the aggregate buffer is shared with the
    // sender (and, under Reliable, with its retransmit retention), so
    // channels must not alias into it.
    net::FrameCursor cursor(m.payload);
    net::WireFrame wf;
    int count = 0;
    while (cursor.next(wf)) {
      ++count;
      Channel* ch =
          admit(m.source, wf.tag, "proxy: unroutable coalesced frame");
      if (ch == nullptr) continue;
      Packet p = Packet::make(wf.size, wf.meta);
      if (wf.size > 0) std::memcpy(p.bytes(), wf.data, wf.size);
      ch->push(std::move(p));
    }
    PQR_ASSERT(count == m.meta, "proxy: aggregate frame count mismatch");
    return;
  }
  Channel* ch = admit(m.source, m.tag, "proxy: unroutable message");
  if (ch == nullptr) return;
  // Raw frame: adopt the transport's buffer directly (in-process the
  // sender's own, under the intra-node channels' rule in packet.hpp).
  m.payload.set_meta(m.meta);
  ch->push(std::move(m.payload));
}

Channel* Ingress::admit(int src, int tag, const char* unroutable) {
  std::vector<Route>& row = routes_[src];  // src checked in receive()
  PQR_ASSERT(tag >= 0 && static_cast<std::size_t>(tag) < row.size(),
             unroutable);
  Route& r = row[tag];
  if (r.skip > 0) {  // only ever set by rejoin()
    --r.skip;
    return nullptr;
  }
  ++r.delivered;
  return r.channel;
}

void Ingress::rejoin(int src) {
  rel_.reset_recv_link(src);
  for (Route& r : routes_[src]) r.skip = r.delivered;
}

}  // namespace pulsarqr::prt
