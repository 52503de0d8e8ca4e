// Execution tracing: per-thread firing records used to regenerate the
// paper's Figure 7 execution traces and to compute utilization/overlap
// statistics.
#pragma once

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "prt/tuple.hpp"

namespace pulsarqr::prt::trace {

/// Trace color reserved for transport events (retransmissions, link
/// failures) on the proxy lanes; QR builders use 0..2 for firing classes.
inline constexpr int kColorTransport = 3;

struct Event {
  int thread = 0;       ///< global worker id (node * workers + worker)
  int color = 0;        ///< VDP class (user-assigned; QR: red/orange/blue)
  Tuple tuple;
  double t0 = 0.0;      ///< seconds since run start
  double t1 = 0.0;
};

class Recorder {
 public:
  /// `extra_lanes` appends per-proxy lanes after the worker lanes: lane
  /// num_threads+k belongs to node k's proxy thread (transport marks).
  /// The clock now() reads starts here.
  Recorder(int num_threads, bool enabled, int extra_lanes = 0);

  bool enabled() const { return enabled_; }
  double now() const;

  /// Append an already-timestamped event under `ev.thread`'s lane —
  /// the cross-process trace merge (events deserialized from a node
  /// process's epilogue). Bypasses `enabled_`; single-threaded use only.
  void inject(const Event& ev);

  /// Called from worker `thread` only (per-thread buffers, no locking).
  void record(int thread, int color, const Tuple& tuple, double t0, double t1);

  /// Zero-width event: a point-in-time mark (e.g. one retransmission) on
  /// `thread`'s lane. Same single-writer-per-lane contract as record().
  void record_mark(int thread, int color, const Tuple& tuple, double t);

  /// Merge per-thread buffers into one time-sorted event list.
  std::vector<Event> collect() const;

  int num_threads() const { return static_cast<int>(buffers_.size()); }

 private:
  bool enabled_;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<std::vector<Event>> buffers_;
};

/// Summary statistics of a trace.
struct TraceStats {
  double span = 0.0;                    ///< last end - first start
  double busy = 0.0;                    ///< total busy time over all threads
  double utilization = 0.0;             ///< busy / (span * threads)
  std::vector<double> busy_by_color;    ///< indexed by color id
  /// Fraction of wall time during which at least one "panel-phase" task
  /// (colors in `overlap_colors`) runs concurrently with at least one task
  /// of another color — the Figure 7 overlap measure.
  double overlap_fraction = 0.0;
};

TraceStats compute_stats(const std::vector<Event>& events, int num_threads,
                         int overlap_color);

/// Pipelining depth: treat tuple element `key_index` of every event as a
/// stage id (the QR arrays store the panel step there), take each stage's
/// [first start, last end] window, and return the average number of
/// stages in flight over the span (sum of window lengths / span). 1.0 =
/// fully serialized stages; larger = deeper pipelining. This is the
/// robust form of Figure 7's "overlap of consecutive tree reductions":
/// unlike instantaneous task overlap it is insensitive to preemption
/// noise on oversubscribed hosts.
double pipeline_depth(const std::vector<Event>& events, int key_index = 1);

/// CSV: thread,color,tuple,t0,t1 (one row per firing).
void write_csv(std::ostream& os, const std::vector<Event>& events);

/// ASCII Gantt chart: one row per thread, `width` characters across the
/// span; each cell shows the color digit of the dominant task.
void write_ascii_gantt(std::ostream& os, const std::vector<Event>& events,
                       int num_threads, int width,
                       const std::vector<std::string>& color_names);

}  // namespace pulsarqr::prt::trace
