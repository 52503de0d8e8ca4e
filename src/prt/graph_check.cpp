#include "prt/graph_check.hpp"

#include <algorithm>
#include <cstdio>
#include <iomanip>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "prt/vsa.hpp"

namespace pulsarqr::prt {

const char* to_string(CheckKind kind) {
  switch (kind) {
    case CheckKind::UnknownVdp: return "unknown-vdp";
    case CheckKind::BadSlot: return "bad-slot";
    case CheckKind::DanglingOutput: return "dangling-output";
    case CheckKind::UnfedInput: return "unfed-input";
    case CheckKind::DuplicateProducer: return "duplicate-producer";
    case CheckKind::BlockedVdp: return "blocked-vdp";
    case CheckKind::Starvation: return "starvation";
    case CheckKind::PacketLeak: return "packet-leak";
    case CheckKind::EnabledCycle: return "enabled-cycle";
    case CheckKind::OversizeFeed: return "oversize-feed";
    case CheckKind::Unreachable: return "unreachable";
  }
  return "?";
}

int GraphReport::errors() const {
  return static_cast<int>(
      std::count_if(diagnostics.begin(), diagnostics.end(),
                    [](const Diagnostic& d) {
                      return d.severity == Severity::Error;
                    }));
}

int GraphReport::warnings() const {
  return static_cast<int>(diagnostics.size()) - errors();
}

long long GraphReport::remote_frames() const {
  long long frames = 0;
  for (const ChannelFlow& f : flows) {
    if (f.remote) frames += f.delivered - f.fed;
  }
  return frames;
}

long long GraphReport::remote_bytes_bound() const {
  long long bytes = 0;
  for (const ChannelFlow& f : flows) {
    if (f.remote) bytes += f.delivered * static_cast<long long>(f.max_bytes);
  }
  return bytes;
}

std::string GraphReport::traffic() const {
  std::ostringstream os;
  os << "traffic: " << remote_frames() << " remote frames <= "
     << std::setprecision(3) << static_cast<double>(remote_bytes_bound()) / 1e6
     << " MB, fires per node ";
  for (std::size_t n = 0; n < node_fires.size(); ++n) {
    os << (n == 0 ? "" : "/") << node_fires[n];
  }
  return os.str();
}

std::string GraphReport::to_string() const {
  std::ostringstream os;
  for (const Diagnostic& d : diagnostics) {
    os << "  " << (d.severity == Severity::Error ? "error" : "warning") << ' '
       << prt::to_string(d.kind) << ": " << d.message << '\n';
  }
  os << "  " << traffic() << "\n  (" << errors() << " error(s), "
     << warnings() << " warning(s))";
  return os.str();
}

namespace {

/// Minimal JSON string escaping (quotes, backslashes, control bytes) —
/// diagnostic messages are ASCII but may quote user tuple names.
void json_escape(std::ostringstream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

}  // namespace

std::string GraphReport::to_json() const {
  std::ostringstream os;
  os << "{\"errors\":" << errors() << ",\"warnings\":" << warnings()
     << ",\"diagnostics\":[";
  for (std::size_t i = 0; i < diagnostics.size(); ++i) {
    const Diagnostic& d = diagnostics[i];
    if (i != 0) os << ',';
    os << "{\"severity\":"
       << (d.severity == Severity::Error ? "\"error\"" : "\"warning\"")
       << ",\"kind\":\"" << prt::to_string(d.kind) << "\",\"vdp\":";
    json_escape(os, d.vdp.to_string());
    os << ",\"slot\":" << d.slot << ",\"message\":";
    json_escape(os, d.message);
    os << '}';
  }
  os << "],\"flows\":[";
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const ChannelFlow& f = flows[i];
    if (i != 0) os << ',';
    os << "{\"src\":";
    json_escape(os, f.from_feed ? std::string("feed") : f.src.to_string());
    os << ",\"src_slot\":" << f.src_slot << ",\"dst\":";
    json_escape(os, f.dst.to_string());
    os << ",\"dst_slot\":" << f.dst_slot
       << ",\"remote\":" << (f.remote ? "true" : "false")
       << ",\"fed\":" << f.fed << ",\"delivered\":" << f.delivered
       << ",\"consumed\":" << f.consumed << ",\"max_bytes\":" << f.max_bytes
       << '}';
  }
  os << "],\"node_fires\":[";
  for (std::size_t n = 0; n < node_fires.size(); ++n) {
    os << (n == 0 ? "" : ",") << node_fires[n];
  }
  os << "]}";
  return os.str();
}

std::string describe_input_slots(const Vdp& vdp) {
  std::ostringstream os;
  os << '[';
  for (int s = 0; s < vdp.num_inputs(); ++s) {
    if (s > 0) os << ' ';
    os << s << ':';
    const Channel* ch = vdp.input_channel(s);
    if (ch == nullptr) {
      os << "unwired";
    } else if (ch->destroyed()) {
      os << "destroyed";
    } else if (!ch->enabled()) {
      os << "off(" << ch->size() << ')';
    } else if (ch->size() == 0) {
      // Distinguish a slot that never saw a packet (likely a wiring or
      // balance bug) from one whose traffic stopped mid-stream (likely a
      // lost message or a stuck upstream VDP).
      if (ch->pushed() > 0) {
        os << "empty(saw " << ch->pushed() << ')';
      } else {
        os << "empty";
      }
    } else {
      os << "ready(" << ch->size() << ')';
    }
  }
  os << ']';
  return os.str();
}

namespace {

/// Per-input-slot aggregation of the pending connects and feeds.
struct InSlot {
  int producers = 0;            ///< connects + feeds targeting the slot
  const Vdp* src = nullptr;     ///< producer VDP (when a connect exists)
  int src_slot = -1;
  long long fed = 0;            ///< packets prefilled by a feed
  bool has_feed = false;
  bool has_edge = false;
  bool enabled = false;         ///< channel's initial enable state
};

struct OutSlot {
  int uses = 0;                 ///< connects leaving the slot
};

}  // namespace

GraphReport GraphCheck::check(const Vsa& vsa) {
  GraphReport rep;
  auto add = [&rep](Severity sev, CheckKind kind, const Tuple& t, int slot,
                    std::string msg) {
    rep.diagnostics.push_back({sev, kind, t, slot, std::move(msg)});
  };
  auto err = [&add](CheckKind kind, const Tuple& t, int slot,
                    std::string msg) {
    add(Severity::Error, kind, t, slot, std::move(msg));
  };

  auto find = [&vsa](const Tuple& t) -> const Vdp* {
    auto it = vsa.vdps_.find(t);
    return it == vsa.vdps_.end() ? nullptr : it->second.get();
  };
  auto slot_on = [](int slot, const Tuple& t) {
    return "slot " + std::to_string(slot) + " of VDP " + t.to_string();
  };

  // ---- index the pending connects and feeds ------------------------------
  std::unordered_map<const Vdp*, int> index;
  for (std::size_t i = 0; i < vsa.creation_order_.size(); ++i) {
    index[vsa.creation_order_[i]] = static_cast<int>(i);
  }
  const int n = static_cast<int>(vsa.creation_order_.size());
  std::vector<std::vector<InSlot>> ins(n);
  std::vector<std::vector<OutSlot>> outs(n);
  for (int i = 0; i < n; ++i) {
    ins[i].resize(vsa.creation_order_[i]->num_inputs());
    outs[i].resize(vsa.creation_order_[i]->num_outputs());
  }
  // Adjacency for the cycle and reachability passes. `enabled_adj` keeps
  // only channels that participate in the firing rule from the start.
  std::vector<std::vector<int>> adj(n), enabled_adj(n);

  for (const Vsa::PendingEdge& e : vsa.edges_) {
    const Vdp* src = find(e.src);
    const Vdp* dst = find(e.dst);
    if (src == nullptr) {
      err(CheckKind::UnknownVdp, e.src, e.out_slot,
          "connect names unknown source VDP " + e.src.to_string());
    }
    if (dst == nullptr) {
      err(CheckKind::UnknownVdp, e.dst, e.in_slot,
          "connect names unknown destination VDP " + e.dst.to_string());
    }
    bool valid = src != nullptr && dst != nullptr;
    if (src != nullptr &&
        (e.out_slot < 0 || e.out_slot >= src->num_outputs())) {
      err(CheckKind::BadSlot, e.src, e.out_slot,
          "connect uses out-of-range output " + slot_on(e.out_slot, e.src) +
              " (declares " + std::to_string(src->num_outputs()) +
              " outputs)");
      valid = false;
    }
    if (dst != nullptr && (e.in_slot < 0 || e.in_slot >= dst->num_inputs())) {
      err(CheckKind::BadSlot, e.dst, e.in_slot,
          "connect uses out-of-range input " + slot_on(e.in_slot, e.dst) +
              " (declares " + std::to_string(dst->num_inputs()) + " inputs)");
      valid = false;
    }
    if (!valid) continue;
    const int si = index.at(src);
    const int di = index.at(dst);
    OutSlot& o = outs[si][e.out_slot];
    if (++o.uses > 1) {
      err(CheckKind::DuplicateProducer, e.src, e.out_slot,
          "output " + slot_on(e.out_slot, e.src) +
              " is connected more than once");
    }
    InSlot& in = ins[di][e.in_slot];
    ++in.producers;
    in.has_edge = true;
    in.src = src;
    in.src_slot = e.out_slot;
    in.enabled = in.enabled || e.enabled;
    adj[si].push_back(di);
    if (e.enabled) enabled_adj[si].push_back(di);
  }

  for (const Vsa::PendingFeed& f : vsa.feeds_) {
    const Vdp* dst = find(f.dst);
    if (dst == nullptr) {
      err(CheckKind::UnknownVdp, f.dst, f.in_slot,
          "feed names unknown VDP " + f.dst.to_string());
      continue;
    }
    if (f.in_slot < 0 || f.in_slot >= dst->num_inputs()) {
      err(CheckKind::BadSlot, f.dst, f.in_slot,
          "feed uses out-of-range input " + slot_on(f.in_slot, f.dst) +
              " (declares " + std::to_string(dst->num_inputs()) + " inputs)");
      continue;
    }
    InSlot& in = ins[index.at(dst)][f.in_slot];
    ++in.producers;
    in.has_feed = true;
    in.fed += static_cast<long long>(f.initial.size());
    in.enabled = in.enabled || f.enabled;
    for (std::size_t p = 0; p < f.initial.size(); ++p) {
      if (f.initial[p].size() > f.max_bytes) {
        err(CheckKind::OversizeFeed, f.dst, f.in_slot,
            "fed packet " + std::to_string(p) + " (" +
                std::to_string(f.initial[p].size()) + " bytes) exceeds the " +
                std::to_string(f.max_bytes) + "-byte capacity of input " +
                slot_on(f.in_slot, f.dst));
      }
    }
  }

  // ---- wiring + packet balance, per VDP ----------------------------------
  // VDPs with wiring findings are excluded from the reachability verdict:
  // the wiring diagnostic is the root cause.
  std::vector<bool> wiring_broken(n, false);

  for (int i = 0; i < n; ++i) {
    const Vdp& v = *vsa.creation_order_[i];

    int unwired_inputs = 0;
    for (const InSlot& in : ins[i]) {
      if (in.producers == 0) ++unwired_inputs;
    }
    if (v.num_inputs() > 0 && unwired_inputs == v.num_inputs()) {
      // The silent-blocked case: alive, never ready, burns the watchdog.
      wiring_broken[i] = true;
      err(CheckKind::BlockedVdp, v.tuple(), -1,
          "VDP " + v.tuple().to_string() + " has only unconnected input " +
              "slots (" + std::to_string(v.num_inputs()) +
              " declared): it can never become ready");
    } else {
      for (int s = 0; s < v.num_inputs(); ++s) {
        if (ins[i][s].producers == 0) {
          wiring_broken[i] = true;
          err(CheckKind::UnfedInput, v.tuple(), s,
              "declared input " + slot_on(s, v.tuple()) +
                  " is neither connected nor fed");
        }
      }
    }
    for (int s = 0; s < v.num_inputs(); ++s) {
      if (ins[i][s].producers > 1) {
        wiring_broken[i] = true;
        err(CheckKind::DuplicateProducer, v.tuple(), s,
            "input " + slot_on(s, v.tuple()) + " has " +
                std::to_string(ins[i][s].producers) +
                " producers (connects/feeds); a slot accepts exactly one");
      }
    }
    if (v.num_inputs() > 0 && unwired_inputs < v.num_inputs()) {
      bool any_enabled = false;
      for (const InSlot& in : ins[i]) any_enabled |= in.enabled;
      if (!any_enabled) {
        wiring_broken[i] = true;
        err(CheckKind::BlockedVdp, v.tuple(), -1,
            "every input channel of VDP " + v.tuple().to_string() +
                " starts disabled; only its own firing code could enable "
                "one, so it can never fire");
      }
    }
    for (int s = 0; s < v.num_outputs(); ++s) {
      if (outs[i][s].uses == 0) {
        wiring_broken[i] = true;
        err(CheckKind::DanglingOutput, v.tuple(), s,
            "declared output " + slot_on(s, v.tuple()) +
                " has no destination");
      }
    }

    // Packet balance: compare what the single producer of each input slot
    // will deliver over its lifetime against what this VDP will pop.
    for (int s = 0; s < v.num_inputs(); ++s) {
      const InSlot& in = ins[i][s];
      if (in.producers != 1) continue;  // unfed/duplicate flagged above
      const long long expected = v.expected_input_packets(s);
      const long long available =
          in.fed +
          (in.has_edge ? in.src->expected_output_packets(in.src_slot) : 0);
      if (available < expected) {
        err(CheckKind::Starvation, v.tuple(), s,
            "input " + slot_on(s, v.tuple()) + " will receive only " +
                std::to_string(available) + " of the " +
                std::to_string(expected) +
                " packets its firing counter needs — guaranteed watchdog "
                "deadlock" +
                (in.has_edge ? " (producer " + in.src->tuple().to_string() +
                                   " slot " + std::to_string(in.src_slot) +
                                   ")"
                             : ""));
      } else if (available > expected) {
        add(Severity::Warning, CheckKind::PacketLeak, v.tuple(), s,
            "input " + slot_on(s, v.tuple()) + " will receive " +
                std::to_string(available) + " packets but its consumer "
                "only pops " + std::to_string(expected) + "; " +
                std::to_string(available - expected) +
                " packet(s) will be left over after the run");
      }
    }
  }

  // ---- flows -------------------------------------------------------------
  // Per-channel lifetime packet totals from the declared balance, and the
  // firings the VDPs' counters declare per node: the placement's traffic.
  {
    const std::vector<int> threads = vsa.placement();
    const int wpn = vsa.config().workers_per_node;
    rep.node_fires.assign(vsa.config().nodes, 0);
    for (int i = 0; i < n; ++i) {
      if (threads[i] < 0 || threads[i] >= vsa.total_threads()) continue;
      rep.node_fires[threads[i] / wpn] += vsa.creation_order_[i]->counter();
    }
    for (const Vsa::PendingEdge& e : vsa.edges_) {
      const Vdp* src = find(e.src);
      const Vdp* dst = find(e.dst);
      if (src == nullptr || dst == nullptr || e.out_slot < 0 ||
          e.out_slot >= src->num_outputs() || e.in_slot < 0 ||
          e.in_slot >= dst->num_inputs()) {
        continue;  // wiring diagnostics above are the root cause
      }
      const int si = index.at(src);
      const int di = index.at(dst);
      if (ins[di][e.in_slot].producers != 1) continue;
      ChannelFlow flow;
      flow.src = e.src;
      flow.src_slot = e.out_slot;
      flow.dst = e.dst;
      flow.dst_slot = e.in_slot;
      flow.remote = threads[si] / wpn != threads[di] / wpn;
      flow.delivered = src->expected_output_packets(e.out_slot);
      flow.consumed = dst->expected_input_packets(e.in_slot);
      flow.max_bytes = e.max_bytes;
      rep.flows.push_back(flow);
    }
    for (const Vsa::PendingFeed& f : vsa.feeds_) {
      const Vdp* dst = find(f.dst);
      if (dst == nullptr || f.in_slot < 0 || f.in_slot >= dst->num_inputs() ||
          ins[index.at(dst)][f.in_slot].producers != 1) {
        continue;
      }
      ChannelFlow flow;
      flow.dst = f.dst;
      flow.dst_slot = f.in_slot;
      flow.from_feed = true;
      flow.fed = static_cast<long long>(f.initial.size());
      flow.delivered = flow.fed;
      flow.consumed = dst->expected_input_packets(f.in_slot);
      flow.max_bytes = f.max_bytes;
      rep.flows.push_back(flow);
    }
  }

  // ---- cycles among initially-enabled channels ---------------------------
  // Every connect channel starts empty, so each member of a strongly
  // connected component over enabled channels waits on another member:
  // none can ever fire. Tarjan, iterative to survive deep graphs.
  {
    std::vector<int> disc(n, -1), low(n, 0), comp(n, -1);
    std::vector<bool> on_stack(n, false);
    std::vector<int> stack;
    int timer = 0, ncomp = 0;
    struct Frame { int v; std::size_t edge; };
    for (int root = 0; root < n; ++root) {
      if (disc[root] != -1) continue;
      std::vector<Frame> frames{{root, 0}};
      while (!frames.empty()) {
        Frame& f = frames.back();
        const int v = f.v;
        if (f.edge == 0) {
          disc[v] = low[v] = timer++;
          stack.push_back(v);
          on_stack[v] = true;
        }
        if (f.edge < enabled_adj[v].size()) {
          const int w = enabled_adj[v][f.edge++];
          if (disc[w] == -1) {
            frames.push_back({w, 0});
          } else if (on_stack[w]) {
            low[v] = std::min(low[v], disc[w]);
          }
        } else {
          if (low[v] == disc[v]) {
            while (true) {
              const int w = stack.back();
              stack.pop_back();
              on_stack[w] = false;
              comp[w] = ncomp;
              if (w == v) break;
            }
            ++ncomp;
          }
          frames.pop_back();
          if (!frames.empty()) {
            low[frames.back().v] = std::min(low[frames.back().v], low[v]);
          }
        }
      }
    }
    std::vector<std::vector<int>> members(ncomp);
    for (int i = 0; i < n; ++i) members[comp[i]].push_back(i);
    std::vector<bool> self_loop(n, false);
    for (int i = 0; i < n; ++i) {
      for (int w : enabled_adj[i]) self_loop[i] = self_loop[i] || w == i;
    }
    for (const auto& m : members) {
      if (m.size() < 2 && !(m.size() == 1 && self_loop[m[0]])) continue;
      std::string names;
      for (std::size_t j = 0; j < m.size() && j < 4; ++j) {
        names += (j ? " -> " : "") +
                 vsa.creation_order_[m[j]]->tuple().to_string();
      }
      if (m.size() > 4) names += " -> ...";
      for (int i : m) wiring_broken[i] = true;
      err(CheckKind::EnabledCycle, vsa.creation_order_[m[0]]->tuple(), -1,
          std::to_string(m.size()) + " VDP(s) form a cycle of " +
              "initially-enabled empty channels (" + names +
              "): none can ever fire");
    }
  }

  // ---- reachability from the sources -------------------------------------
  {
    std::vector<bool> reached(n, false);
    std::vector<int> bfs;
    for (int i = 0; i < n; ++i) {
      const Vdp& v = *vsa.creation_order_[i];
      bool fed = false;
      for (const InSlot& in : ins[i]) fed = fed || in.has_feed;
      if (v.num_inputs() == 0 || fed) {
        reached[i] = true;
        bfs.push_back(i);
      }
    }
    for (std::size_t head = 0; head < bfs.size(); ++head) {
      for (int w : adj[bfs[head]]) {
        if (!reached[w]) {
          reached[w] = true;
          bfs.push_back(w);
        }
      }
    }
    for (int i = 0; i < n; ++i) {
      if (reached[i] || wiring_broken[i]) continue;
      err(CheckKind::Unreachable, vsa.creation_order_[i]->tuple(), -1,
          "VDP " + vsa.creation_order_[i]->tuple().to_string() +
              " is not reachable from any source (zero-input VDP or fed "
              "channel); no packet can ever arrive");
    }
  }

  // Errors first, preserving discovery order within each severity.
  std::stable_sort(rep.diagnostics.begin(), rep.diagnostics.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     return a.severity == Severity::Error &&
                            b.severity != Severity::Error;
                   });
  return rep;
}

}  // namespace pulsarqr::prt
