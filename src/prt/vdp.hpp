// Virtual Data Processor (Section IV-A): executable code + read/write
// persistent local store + input/output channels + a firing counter.
#pragma once

#include <any>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "prt/channel.hpp"
#include "prt/tuple.hpp"

namespace pulsarqr::prt {

class Vsa;
struct VdpContext;

using VdpFn = std::function<void(VdpContext&)>;

/// Where a packet pushed to an output slot goes: directly into a local
/// channel, or to the proxy addressed by (destination node, tag).
struct OutputRef {
  Channel* local = nullptr;
  int dst_node = -1;
  int tag = -1;
  std::size_t max_bytes = 0;
  bool connected = false;
};

class Vdp {
 public:
  Vdp(Tuple tuple, int counter, VdpFn fn, int num_inputs, int num_outputs,
      int color, int outputs_per_fire = 1)
      : tuple_(std::move(tuple)),
        counter_(counter),
        fn_(std::move(fn)),
        color_(color),
        outputs_per_fire_(outputs_per_fire),
        inputs_(num_inputs),
        outputs_(num_outputs),
        declared_in_(num_inputs, -1),
        declared_out_(num_outputs, -1) {}

  const Tuple& tuple() const { return tuple_; }
  int color() const { return color_; }
  int counter() const { return counter_; }
  bool dead() const { return dead_; }
  int num_inputs() const { return static_cast<int>(inputs_.size()); }
  int num_outputs() const { return static_cast<int>(outputs_.size()); }

  /// Packet-balance declarations used by prt::GraphCheck: the total number
  /// of packets this VDP will push on an output slot / pop from an input
  /// slot over its whole lifetime. Undeclared slots default to one packet
  /// per firing (scaled by the add_vdp outputs_per_fire hint for outputs).
  long long expected_output_packets(int slot) const {
    const long long d = declared_out_[slot];
    return d >= 0 ? d
                  : static_cast<long long>(counter_) * outputs_per_fire_;
  }
  long long expected_input_packets(int slot) const {
    const long long d = declared_in_[slot];
    return d >= 0 ? d : counter_;
  }

  /// The wired input channel of a slot; nullptr until run() wires the
  /// graph (used by the stuck-VDP diagnostic formatter).
  const Channel* input_channel(int slot) const { return inputs_[slot].get(); }

  /// Firing rule (the paper's PRT): every enabled input channel holds a
  /// packet, and at least one input is enabled (a VDP declared with zero
  /// inputs is always ready — a source). All inputs disabled => blocked.
  bool ready() const {
    if (inputs_.empty()) return true;
    bool any_enabled = false;
    for (const auto& ch : inputs_) {
      if (ch == nullptr || !ch->enabled()) continue;
      any_enabled = true;
      if (ch->size() == 0) return false;
    }
    return any_enabled;
  }

 private:
  friend class Vsa;
  friend struct VdpContext;

  Tuple tuple_;
  int counter_;
  VdpFn fn_;
  int color_;
  int outputs_per_fire_;
  std::vector<std::unique_ptr<Channel>> inputs_;  ///< owned by destination
  std::vector<OutputRef> outputs_;
  std::vector<long long> declared_in_;   ///< -1 = default (see accessors)
  std::vector<long long> declared_out_;
  std::any local_;
  /// Written and read by the one worker the VDP is bound to; the failure
  /// report reads it after that worker is joined.
  bool dead_ = false;
  int global_thread_ = -1;  ///< assigned by the mapping at run()
};

/// The interface handed to a VDP's function at each firing. Mirrors the
/// paper's cycle (Figure 3): pop inputs (or forward them first — by-pass),
/// invoke kernels, push outputs; plus dynamic channel control.
struct VdpContext {
  Vdp& vdp;
  Vsa& vsa;
  int node;           ///< node executing this firing
  int global_thread;  ///< global worker id

  const Tuple& tuple() const { return vdp.tuple_; }
  /// Remaining firings including the current one.
  int counter() const { return vdp.counter_; }

  /// Consumer side of the channel's SPSC contract: only the firing code
  /// of the destination VDP pops, and its firings are serialized by its
  /// worker binding, so pop needs no lock.
  Packet pop(int slot) {
    PQR_ASSERT(slot >= 0 && slot < vdp.num_inputs() &&
                   vdp.inputs_[slot] != nullptr,
               "pop: bad input slot");
    return vdp.inputs_[slot]->pop();
  }

  /// Number of packets currently waiting on an input slot.
  int input_size(int slot) const {
    PQR_ASSERT(slot >= 0 && slot < vdp.num_inputs() &&
                   vdp.inputs_[slot] != nullptr,
               "input_size: bad input slot");
    return vdp.inputs_[slot]->size();
  }

  void push(int slot, Packet p);  // defined in vsa.cpp (needs routing)

  void enable_input(int slot) { set_input_enabled(slot, true); }
  void disable_input(int slot) { set_input_enabled(slot, false); }

  /// Destroy an input channel (paper: channels can be destroyed during
  /// execution): queued packets are dropped, later pushes are ignored and
  /// the slot no longer participates in the firing rule. A consumer-side
  /// operation like pop(): Channel::destroy() handles a concurrent
  /// producer push, but must never race with pop() itself — calling it
  /// from the owning VDP's firing code (as here) guarantees that.
  void destroy_input(int slot) {
    PQR_ASSERT(slot >= 0 && slot < vdp.num_inputs() &&
                   vdp.inputs_[slot] != nullptr,
               "destroy_input: bad input slot");
    vdp.inputs_[slot]->destroy();
  }

  /// Persistent local store, constructed on first access and destroyed
  /// with the VDP (the paper's size_loc local storage, but typed).
  template <class T, class... Args>
  T& local(Args&&... args) {
    if (!vdp.local_.has_value()) {
      vdp.local_.emplace<T>(std::forward<Args>(args)...);
    }
    return *std::any_cast<T>(&vdp.local_);
  }

  /// Read-only global parameters shared by all VDPs (set via
  /// Vsa::set_global). T must match the type that was set.
  template <class T>
  T& global() const;  // defined after Vsa (vsa.hpp)

 private:
  void set_input_enabled(int slot, bool e) {
    PQR_ASSERT(slot >= 0 && slot < vdp.num_inputs() &&
                   vdp.inputs_[slot] != nullptr,
               "enable/disable: bad input slot");
    vdp.inputs_[slot]->set_enabled(e);
  }
};

}  // namespace pulsarqr::prt
