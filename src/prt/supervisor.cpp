#include "prt/supervisor.hpp"

#include <algorithm>
#include <array>
#include <climits>
#include <utility>

#include "prt/wire.hpp"

namespace pulsarqr::prt {

namespace {

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
  return std::array{&s.busy_per_thread, &s.proxy_busy_per_node,
                    &s.sys_seconds_per_node};
}

void put_tuple(net::wire::Blob& b, const Tuple& t) {
  b.u32(static_cast<std::uint32_t>(t.size()));
  for (int x : t.values()) b.i32(x);
}

Tuple get_tuple(net::wire::BlobReader& br) {
  std::vector<int> vals;
  for (std::uint32_t t = br.u32(); t > 0; --t) vals.push_back(br.i32());
  return Tuple(std::move(vals));
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
  b.u64(s.minor_faults_per_node.size());
  for (long long f : s.minor_faults_per_node) b.i64(f);
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
  auto sized = [&](std::size_t n) {
    require(br.u64() == n,
            "merge_run_stats: per-thread or per-node stats do not match the "
            "run topology");
  };
  for (std::vector<double>* v : vectors(s)) {
    sized(v->size());
    for (double& d : *v) d += br.f64();
  }
  sized(s.minor_faults_per_node.size());
  for (long long& f : s.minor_faults_per_node) {
    f = static_cast<long long>(static_cast<std::uint64_t>(f) + br.u64());
  }
  total = std::move(s);
}

void encode_epilogue(net::wire::Blob& b, const Vsa::RunStats& stats,
                     const std::vector<trace::Event>& events) {
  encode_run_stats(b, stats);
  b.u64(events.size());
  for (const trace::Event& ev : events) {
    b.i32(ev.thread);
    b.i32(ev.color);
    put_tuple(b, ev.tuple);
    b.f64(ev.t0);
    b.f64(ev.t1);
  }
}

std::vector<trace::Event> decode_epilogue(const std::byte* p, std::size_t n,
                                          Vsa::RunStats& total) {
  net::wire::BlobReader br(p, n);
  Vsa::RunStats merged = total;
  merge_run_stats(br, merged);
  std::vector<trace::Event> events;
  // Every element read consumes blob bytes, so a hostile count ends in a
  // truncated-blob error, not in a loop or an allocation it sized.
  for (std::uint64_t k = br.u64(); k > 0; --k) {
    trace::Event& ev = events.emplace_back();
    ev.thread = br.i32();
    ev.color = br.i32();
    ev.tuple = get_tuple(br);
    ev.t0 = br.f64();
    ev.t1 = br.f64();
  }
  require(br.done(), "socket epilogue: trailing bytes");
  total = std::move(merged);
  return events;
}

void encode_report(net::wire::Blob& b, const Vsa::RunReport& r) {
  b.str(r.reason);
  put_tuple(b, r.failed_vdp);
  b.str(r.vdp_error);
  b.u32(static_cast<std::uint32_t>(r.stuck_vdps.size()));
  for (const auto& s : r.stuck_vdps) b.str(s);
  b.i32(r.vdps_alive);
  b.i32(r.leftover_packets);
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

Vsa::RunReport decode_report(const std::byte* p, std::size_t n) {
  // As in decode_epilogue, every element read consumes blob bytes.
  net::wire::BlobReader br(p, n);
  Vsa::RunReport r;
  r.reason = br.str();
  r.failed_vdp = get_tuple(br);
  r.vdp_error = br.str();
  for (std::uint32_t i = br.u32(); i > 0; --i) r.stuck_vdps.push_back(br.str());
  r.vdps_alive = br.i32();
  r.leftover_packets = br.i32();
  for (std::uint32_t i = br.u32(); i > 0; --i) {
    net::LinkGap g;
    g.src = br.i32();
    g.dst = br.i32();
    g.next_seq = br.i64();
    g.acked = br.i64();
    g.expected = br.i64();
    g.unacked = br.i32();
    g.buffered_out_of_order = br.i32();
    g.exhausted = br.u32() != 0;
    for (std::uint32_t t = br.u32(); t > 0; --t) {
      g.pending_tags.push_back(br.i32());
    }
    r.links.push_back(std::move(g));
  }
  r.faults.dropped = br.i64();
  r.faults.duplicated = br.i64();
  r.faults.delayed = br.i64();
  r.faults.reordered = br.i64();
  r.retransmits = br.i64();
  for (std::uint32_t i = br.u32(); i > 0; --i) r.dead_ranks.push_back(br.i32());
  require(br.done(), "socket failure report: trailing bytes");
  return r;
}

Supervisor::Supervisor(const Vsa::Config& cfg,
                       std::function<Vsa::RunReport(int)> dead_report,
                       Clock::time_point now)
    : kids_(cfg.nodes),
      epochs_(cfg.nodes, 0),
      max_respawns_(cfg.max_respawns),
      dead_report_(std::move(dead_report)) {
  for (Child& c : kids_) c.last_heard = now;
  stats_.busy_per_thread.assign(cfg.nodes * cfg.workers_per_node, 0.0);
  stats_.proxy_busy_per_node.assign(cfg.nodes, 0.0);
  stats_.sys_seconds_per_node.assign(cfg.nodes, 0.0);
  stats_.minor_faults_per_node.assign(cfg.nodes, 0);
  // The heartbeat deadline, else a generous bound over the children's own
  // watchdogs, else none (a budget <= 0).
  // Kept in double seconds: converting a huge configured value to the
  // clock's integer ticks would overflow.
  double silence = cfg.heartbeat_timeout_seconds;
  if (silence <= 0 && cfg.watchdog_seconds > 0) {
    silence = cfg.watchdog_seconds + 120.0;
  }
  silence_ = std::chrono::duration<double>(silence);
}

void Supervisor::on_recv(int rank, const std::byte* p, std::size_t n,
                         Clock::time_point now) {
  Child& c = kids_[rank];
  if (!live(rank)) return;
  if (n == 0) {
    dead(rank, now);  // EOF without 'E'/'F': crashed outright
  } else {
    c.in.insert(c.in.end(), p, p + n);
    while (live(rank) && !c.in.empty() && frame(rank, now)) {
    }
  }
  step(now);
}

bool Supervisor::frame(int rank, Clock::time_point now) {
  Child& c = kids_[rank];
  const char type = static_cast<char>(c.in[0]);
  // 'E' and 'F' carry a u64 length and a body. One still arriving waits in
  // the buffer, bounded by the silence budget; nothing is sized by its
  // length.
  const bool blob = type == 'E' || type == 'F';
  const std::uint64_t len =
      blob && c.in.size() >= 9 ? net::wire::get_u64(&c.in[1]) : 0;
  if (blob && (c.in.size() < 9 || len > c.in.size() - 9)) return false;
  try {
    require(blob || type == 'H' || type == 'D',
            "socket control plane: unknown control byte");
    if (type == 'D' && c.state == State::Running) c.state = State::Done;
    if (type == 'E') c.events = decode_epilogue(c.in.data() + 9, len, stats_);
    if (type == 'F') fail(decode_report(c.in.data() + 9, len));
  } catch (const Error&) {
    dead(rank, now);  // a protocol violation or a malformed body
    return false;
  }
  if (blob) c.state = State::Over;
  c.last_heard = now;
  c.in.erase(c.in.begin(),
             c.in.begin() + static_cast<std::ptrdiff_t>(blob ? 9 + len : 1));
  return true;
}

void Supervisor::dead(int rank, Clock::time_point now) {
  Child& c = kids_[rank];
  actions_.push_back({Action::Kill, rank});
  c.in.clear();
  // Once 'G' is out, survivors tear their protocol state down, so a
  // replacement could no longer rejoin them.
  if (!failure_ && !go_sent_ && respawns_ < max_respawns_) {
    ++respawns_;
    ++epochs_[rank];
    c.state = State::Running;  // the replacement re-gates 'G'
    c.last_heard = now;
    actions_.push_back({Action::Respawn, rank});
    return;
  }
  c.state = State::Over;
  Vsa::RunReport rep = dead_report_(rank);
  rep.reason = "process";
  rep.dead_ranks.push_back(rank);
  fail(std::move(rep));
}

void Supervisor::fail(Vsa::RunReport r) {
  if (!failure_) {
    failure_ = std::move(r);
    return;
  }
  // Later reports refine the first: survivors' link gaps, queued packets
  // and further dead ranks accumulate onto it.
  failure_->leftover_packets += r.leftover_packets;
  for (auto& g : r.links) failure_->links.push_back(std::move(g));
  for (int d : r.dead_ranks) {
    if (std::count(failure_->dead_ranks.begin(), failure_->dead_ranks.end(),
                   d) == 0) {
      failure_->dead_ranks.push_back(d);
    }
  }
}

void Supervisor::step(Clock::time_point now) {
  for (int r = 0; r < static_cast<int>(kids_.size()); ++r) {
    if (live(r) && silence_ > Clock::duration::zero() &&
        now - kids_[r].last_heard > silence_) {
      dead(r, now);
    }
  }
  const bool cancel = failure_ && !cancel_sent_;
  const bool go = !failure_ && !go_sent_ &&
                  std::none_of(kids_.begin(), kids_.end(), [](const Child& c) {
                    return c.state == State::Running;
                  });
  for (int r = 0; r < static_cast<int>(kids_.size()); ++r) {
    if (go || (cancel && live(r))) {
      actions_.push_back({Action::Send, r, go ? 'G' : 'C'});
    }
  }
  cancel_sent_ |= cancel;
  go_sent_ |= go;
}

bool Supervisor::finished() const {
  return std::none_of(kids_.begin(), kids_.end(),
                      [](const Child& c) { return c.state != State::Over; });
}

}  // namespace pulsarqr::prt
