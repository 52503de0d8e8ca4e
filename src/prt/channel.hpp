// Channels: static unidirectional FIFO connections between two VDPs
// (Section IV-A). A channel object lives with its destination VDP; the
// source holds a reference that is either a direct pointer (intra-node) or
// a (node, tag) address served by the proxy (inter-node).
//
// Concurrency contract (enforced statically by prt::GraphCheck): every
// channel has exactly ONE producer — either the source VDP (whose firings
// are serialized by its binding to one worker thread) or the destination
// node's proxy thread — and exactly ONE consumer, the destination VDP.
// That single-producer/single-consumer invariant is what legitimizes the
// lock-free implementation below.
#pragma once

#include <atomic>

#include "prt/packet.hpp"
#include "prt/tuple.hpp"

namespace pulsarqr::prt {

/// Wakes the worker thread that owns a VDP when new input arrives or a
/// channel is enabled. Implemented by the runtime's worker loop.
class Waker {
 public:
  virtual ~Waker() = default;
  virtual void wake() = 0;
};

/// A lock-free single-producer/single-consumer linked-node queue with a
/// producer-side node cache (Vyukov style).
class Channel {
 public:
  /// An unbounded FIFO of packets of at most `max_bytes` each (the
  /// paper's channels: a push never blocks).
  Channel(std::size_t max_bytes, bool enabled);
  ~Channel();

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Producer side (the single producer thread, or the proxy). Wakes the
  /// owner if set. Pushes to a destroyed channel are dropped.
  void push(Packet p);

  /// Consumer side (owner VDP's thread only). The channel must be
  /// non-empty, i.e. size() returned > 0 on this thread.
  Packet pop();

  /// Number of queued packets (approximate under concurrency; exact for
  /// the owning thread's ready check once it holds the packet).
  int size() const;

  /// Lifetime traffic counters (monotone; approximate under concurrency).
  /// Used by stuck-VDP diagnostics to distinguish a channel that never saw
  /// a packet from one whose traffic stopped mid-stream.
  long long pushed() const { return pushed_.load(std::memory_order_acquire); }
  long long popped() const { return popped_.load(std::memory_order_acquire); }

  bool enabled() const { return enabled_.load(std::memory_order_acquire); }
  void set_enabled(bool e);

  /// A disabled-and-cleared channel; packets pushed after destruction are
  /// dropped (mirrors prt's channel-destroy option). Consumer-side
  /// operation: must not race with pop() (the runtime only calls it from
  /// the destination VDP's firing code). A push racing with destroy()
  /// either observes the destroyed flag and drops the packet itself, or
  /// its node is drained here or held invisibly (size() pins to zero)
  /// until the destructor — a packet never resurfaces on a destroyed
  /// channel, and the push fast path needs no fence to guarantee it.
  void destroy();
  bool destroyed() const { return destroyed_.load(std::memory_order_acquire); }

  std::size_t max_bytes() const { return max_bytes_; }

  void set_waker(Waker* w) { waker_ = w; }

 private:
  struct Node {
    std::atomic<Node*> next{nullptr};
    Packet p;
  };

  Node* alloc_node();
  void drain();

  std::size_t max_bytes_;
  std::atomic<bool> enabled_;
  std::atomic<bool> destroyed_{false};
  Waker* waker_ = nullptr;

  // ---- Queue state. The queue is a singly linked list from first_ to
  // tail_; [first_, head_) are consumed nodes awaiting recycling, head_ is
  // the consumer's dummy, (head_, tail_] hold live packets.

  // Consumer-owned half.
  alignas(64) std::atomic<Node*> head_{nullptr};
  std::atomic<long long> popped_{0};  ///< single writer: the consumer

  // Producer-owned half.
  alignas(64) Node* tail_ = nullptr;
  Node* first_ = nullptr;      ///< oldest node not yet recycled
  Node* head_copy_ = nullptr;  ///< producer's cached copy of head_
  std::atomic<long long> pushed_{0};  ///< single writer: the producer
};

}  // namespace pulsarqr::prt
