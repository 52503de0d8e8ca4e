// Static analysis of a constructed (not yet running) VSA graph.
//
// The VSA programming model makes correctness hinge on invariants the
// runtime itself never checks: every input channel must eventually receive
// as many packets as its VDP will pop, every declared slot must be wired,
// and no set of initially-enabled empty channels may form a cycle. Today a
// mis-wired tree only surfaces as a watchdog abort after the full timeout;
// GraphCheck proves (or refutes) well-formedness before the first firing.
//
// Checks performed:
//   * wiring    — declared output slots never connected, declared input
//                 slots neither connected nor fed, duplicate producers on
//                 one input slot, duplicate connections from one output
//                 slot, unknown endpoint tuples, out-of-range slots;
//   * blocked   — VDPs with inputs that are all unconnected, or whose
//                 input channels all start disabled (permanently un-ready:
//                 only a VDP's own firing code can enable its inputs);
//   * balance   — feed counts and declared per-slot production totals are
//                 propagated through the graph; a channel that receives
//                 fewer packets than its consumer's firing counter demands
//                 is starvation (guaranteed watchdog deadlock), more is a
//                 packet leak (residual packets after the run);
//   * cycles    — a strongly connected component of initially-enabled,
//                 initially-empty channels can never fire (each member
//                 waits on another: certain deadlock);
//   * capacity  — fed packets larger than the channel's max_bytes;
//   * reachability — every VDP must be reachable from some source (a
//                 zero-input VDP or a fed channel);
//   * flow      — symbolic per-channel occupancy bounds from the declared
//                 packet balance: every channel's peak resident packets
//                 (all producer output delivered before any pop) and
//                 end-of-run residue are computed and reported in
//                 GraphReport::flows. Against a declared capacity this
//                 yields two errors: a feed that prefills past its own
//                 bound (overflow at t=0), and a bounded-buffer deadlock —
//                 a producer that may stall on a full bounded channel
//                 while, under some firing schedule, the consumer's own
//                 progress depends (through other channels) on that very
//                 producer. The deadlock check is existential over firing
//                 schedules: a flagged graph has at least one schedule
//                 that deadlocks (uniform-rate graphs with adequate bounds
//                 are never flagged, by the marked-graph token-count
//                 invariant), so treat it like the other errors — fix the
//                 bound or the declared flow, or opt out via
//                 Config::graph_check for graphs whose schedule provably
//                 avoids it.
//
// Production totals default to one packet per output slot per firing
// (`outputs_per_fire` on add_vdp scales all slots); consumption defaults
// to one packet per input slot per firing. Builders whose VDPs push or
// pop non-uniformly declare exact lifetime totals with
// Vsa::declare_output_packets / Vsa::declare_input_packets.
#pragma once

#include <string>
#include <vector>

#include "prt/tuple.hpp"

namespace pulsarqr::prt {

class Vsa;
class Vdp;

enum class Severity { Warning, Error };

enum class CheckKind {
  UnknownVdp,         ///< connect/feed endpoint names no registered VDP
  BadSlot,            ///< slot index outside the VDP's declared range
  DanglingOutput,     ///< declared output slot with no destination
  UnfedInput,         ///< declared input slot neither connected nor fed
  DuplicateProducer,  ///< two producers (connects/feeds) on one slot
  BlockedVdp,         ///< all inputs unconnected or all start disabled
  Starvation,         ///< channel receives fewer packets than popped
  PacketLeak,         ///< channel receives more packets than popped
  EnabledCycle,       ///< cycle of enabled empty channels: sure deadlock
  OversizeFeed,       ///< fed packet exceeds the channel's max_bytes
  Unreachable,        ///< no path from any source reaches the VDP
  CapacityOverflow,   ///< feed prefill or single-firing burst > capacity
  CapacityDeadlock,   ///< bounded channel can stall its producer in a cycle
};

const char* to_string(CheckKind kind);

/// One finding: severity, kind, the VDP it anchors to, the slot (or -1
/// when the finding is not slot-specific) and a human-readable message
/// that already embeds tuple and slot.
struct Diagnostic {
  Severity severity = Severity::Error;
  CheckKind kind = CheckKind::UnknownVdp;
  Tuple vdp;
  int slot = -1;
  std::string message;
};

/// Symbolic occupancy bounds of one channel, derived from the declared
/// packet balance (flow analysis). `peak_packets` is the worst case over
/// all firing interleavings — every packet the producer (or feed) will
/// ever deliver resident before the consumer pops one; `resident_end` is
/// the guaranteed end-of-run residue (delivered minus consumed, clamped
/// at zero). Both are exact under the declared totals, not estimates.
struct ChannelFlow {
  Tuple src;            ///< producer VDP; meaningless when from_feed
  int src_slot = -1;    ///< producer output slot; -1 for a feed
  Tuple dst;
  int dst_slot = -1;
  bool from_feed = false;
  bool remote = false;  ///< producer and consumer on different nodes
  long long fed = 0;        ///< packets prefilled by feeds
  long long delivered = 0;  ///< lifetime deliveries: fed + producer total
  long long consumed = 0;   ///< lifetime pops by the consumer
  long long peak_packets = 0;
  long long resident_end = 0;
  int capacity = 0;         ///< declared bound; 0 = unbounded
  std::size_t max_bytes = 0;
  long long peak_bytes() const {
    return peak_packets * static_cast<long long>(max_bytes);
  }
};

struct GraphReport {
  std::vector<Diagnostic> diagnostics;
  /// Per-channel occupancy bounds (one entry per connect or feed whose
  /// endpoints resolved), in declaration order.
  std::vector<ChannelFlow> flows;
  /// Firings the VDPs' counters declare, per node of the placement: the
  /// sum of the initial counters of the VDPs mapped to that node. A clean
  /// run fires exactly their total (Vsa::RunStats::fires).
  std::vector<long long> node_fires;

  int errors() const;
  int warnings() const;
  bool ok() const { return errors() == 0; }

  /// Frames the remote flows carry: what a clean run's proxies send
  /// (Vsa::RunStats::remote_messages). Feeds are never remote.
  long long remote_frames() const;
  /// Bound on those frames' payload bytes: Σ delivered × max_bytes.
  long long remote_bytes_bound() const;

  /// The placement's traffic in one line: remote frames, their MB bound
  /// and the firings per node, e.g. "traffic: 184 remote frames <= 6.23 MB,
  /// fires per node 1416/1154".
  std::string traffic() const;

  /// Multi-line rendering, one "severity kind: message" line per finding,
  /// then the traffic() line and the counts.
  std::string to_string() const;

  /// Machine-readable rendering for CI gating: {"errors": N, "warnings":
  /// N, "diagnostics": [{severity, kind, vdp, slot, message}...],
  /// "flows": [{src, src_slot, dst, dst_slot, remote, fed, delivered,
  /// consumed, peak_packets, resident_end, capacity, max_bytes}...],
  /// "node_fires": [N...]}.
  std::string to_json() const;
};

class GraphCheck {
 public:
  /// Analyze a built-but-not-run VSA. Does not modify the VSA and may be
  /// called any number of times before run().
  static GraphReport check(const Vsa& vsa);
};

/// Formatter shared by GraphCheck and the runtime watchdog: per-slot input
/// state of a wired VDP, e.g. "[0:empty 1:off(3) 2:destroyed]". Only
/// meaningful once channels exist (inside run()).
std::string describe_input_slots(const Vdp& vdp);

}  // namespace pulsarqr::prt
