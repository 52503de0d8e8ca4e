// Pooled allocator for Packet payload buffers.
//
// The tree-QR pipeline emits a flood of identically-sized nb×nb / ib×nb
// frames per panel step; routing every Packet::make through the global
// allocator puts malloc on the transport fast path. The pool recycles
// released payload buffers through power-of-two size classes, one
// mutex-guarded free list per class: every release pushes onto its
// class's list and every acquire pops from it, so a buffer freed on any
// thread (packets routinely cross threads through channels and the
// proxy) goes straight back to whichever thread allocates next, and a
// warmed steady state performs zero packet allocations.
//
// The pool is process-global. Buffers above the largest size class are
// never pooled. All buffers are 64-byte aligned.
#pragma once

#include <cstddef>
#include <memory>

namespace pulsarqr::prt {

class PacketPool {
 public:
  /// Monotone process-lifetime totals (relaxed atomics; exact once the
  /// threads touching the pool are quiescent). RunStats reports the delta
  /// of hits/misses over a run: a warmed steady state shows misses == 0.
  struct Stats {
    long long hits = 0;      ///< buffers served from a free list
    long long misses = 0;    ///< fresh heap allocations of poolable sizes
    long long oversize = 0;  ///< requests above the largest class (unpooled)
    long long recycled = 0;  ///< buffers returned to the pool on last release
  };

  /// A buffer of at least `bytes` bytes (rounded up to the size class);
  /// its deleter returns the buffer to the pool on last-reference release.
  static std::shared_ptr<std::byte[]> acquire(std::size_t bytes);

  static Stats stats();

  /// The buffer capacity a request of `bytes` is served with, or 0 when
  /// the size is above the largest class and bypasses the pool.
  static std::size_t capacity_for(std::size_t bytes);
};

}  // namespace pulsarqr::prt
