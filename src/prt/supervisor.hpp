// The parent side of the socket control plane (vsa_socket.cpp) as a pure
// state machine. It owns no descriptor, pid or clock: the poll loop in
// Vsa::run_socket feeds it each child's control bytes, EOFs and clock
// ticks, and carries out the actions it returns (send 'G' or 'C', kill a
// rank, respawn a rank). The run is over once finished(); failure() then
// holds the merged RunReport, or the merged stats and events are the result.
//
// One dead-child path: EOF, a malformed 'E'/'F' body, an unknown control
// byte and silence past the budget all kill the child, then respawn it
// while the budget lasts and before 'G' is out, else fail the run. An 'F'
// report (a VDP body that threw, or a cancelled node) fails the run with
// no respawn: a replacement would replay into the same failure.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "prt/vsa.hpp"

namespace pulsarqr::prt {

/// 'E' body: the node's RunStats and its trace events, already on the
/// parent's clock.
void encode_epilogue(net::wire::Blob& b, const Vsa::RunStats& stats,
                     const std::vector<trace::Event>& events);
/// Decode an 'E' body into its trace events; its stats merge into `total`
/// (merge_run_stats). Throws pulsarqr::Error on a malformed body, leaving
/// `total` untouched.
std::vector<trace::Event> decode_epilogue(const std::byte* p, std::size_t n,
                                          Vsa::RunStats& total);
/// 'F' body: a serialized RunReport. The decoder throws pulsarqr::Error
/// on a malformed body.
void encode_report(net::wire::Blob& b, const Vsa::RunReport& r);
Vsa::RunReport decode_report(const std::byte* p, std::size_t n);

class Supervisor {
 public:
  using Clock = std::chrono::steady_clock;
  struct Action {
    enum Kind { Send, Kill, Respawn };
    Kind kind;
    int rank;
    char byte = 0;  ///< Send: 'G' or 'C'
  };

  /// Supervise cfg.nodes children from `now` with a budget of
  /// cfg.max_respawns. A child is dead once silent (no whole control frame)
  /// for heartbeat_timeout_seconds when > 0, else for watchdog_seconds +
  /// 120 s, else never by silence. `dead_report(r)` describes what died
  /// with rank r.
  Supervisor(const Vsa::Config& cfg,
             std::function<Vsa::RunReport(int)> dead_report,
             Clock::time_point now);

  /// Bytes from rank's control socket; n == 0 is its EOF, as from recv().
  void on_recv(int rank, const std::byte* p, std::size_t n,
               Clock::time_point now);
  void on_tick(Clock::time_point now) { step(now); }
  /// The actions queued since the last call, in order.
  std::vector<Action> take_actions() { return std::exchange(actions_, {}); }

  /// Whether rank's current incarnation is still polled: it has sent no
  /// 'E' or 'F' and is not dead for good.
  bool live(int rank) const { return kids_[rank].state != State::Over; }
  /// The incarnation of every rank, as handed to each fork (0 until a
  /// rank is respawned).
  const std::vector<std::uint32_t>& incarnations() const { return epochs_; }
  bool finished() const;
  const std::optional<Vsa::RunReport>& failure() const { return failure_; }
  Vsa::RunStats& stats() { return stats_; }
  /// The trace events of rank's 'E' epilogue.
  std::vector<trace::Event>& events(int rank) { return kids_[rank].events; }
  int respawns() const { return respawns_; }

 private:
  /// Over: an 'E' or 'F' arrived, or the child died past its budget.
  enum class State { Running, Done, Over };
  struct Child {
    State state = State::Running;
    Clock::time_point last_heard;
    std::vector<std::byte> in;  ///< control bytes of an unfinished frame
    std::vector<trace::Event> events;  ///< from the 'E' epilogue
  };
  /// Act on the frame at the head of the child's buffer and drop it;
  /// false when it is incomplete or the child took the dead-child path.
  bool frame(int rank, Clock::time_point now);
  void dead(int rank, Clock::time_point now);
  void fail(Vsa::RunReport r);
  /// Take every child silent past the budget for dead, then queue 'C' on
  /// the first failure and 'G' once every child is done.
  void step(Clock::time_point now);

  std::vector<Child> kids_;
  std::vector<std::uint32_t> epochs_;
  int max_respawns_;
  std::chrono::duration<double> silence_;  ///< <= 0: no bound
  Vsa::RunStats stats_;
  std::function<Vsa::RunReport(int)> dead_report_;
  std::vector<Action> actions_;
  std::optional<Vsa::RunReport> failure_;
  bool go_sent_ = false, cancel_sent_ = false;
  int respawns_ = 0;
};

}  // namespace pulsarqr::prt
