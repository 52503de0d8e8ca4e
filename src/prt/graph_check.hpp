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
//   * oversize  — fed packets larger than the channel's max_bytes;
//   * reachability — every VDP must be reachable from some source (a
//                 zero-input VDP or a fed channel).
//
// Channels are unbounded FIFOs and a VDP fires when its enabled inputs
// hold packets (the paper's PRT), so no check concerns outputs. The
// report also carries each channel's lifetime packet totals and whether
// it crosses nodes (GraphReport::flows), from which traffic() predicts a
// clean run's remote frames.
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

/// Lifetime packet totals of one channel, from the declared packet
/// balance: exact under the declared totals, not estimates.
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
  std::size_t max_bytes = 0;
};

struct GraphReport {
  std::vector<Diagnostic> diagnostics;
  /// Per-channel packet totals (one entry per connect, then per feed,
  /// whose endpoints resolved), in declaration order.
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
  /// consumed, max_bytes}...], "node_fires": [N...]}.
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
