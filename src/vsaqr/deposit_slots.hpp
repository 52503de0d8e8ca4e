// Exactly-once deposit slots, shared by every scenario store (the QR
// ResultStore, the Cholesky/LU TileStore).
//
// A store's outputs are slots: planes ("kinds") of mt x nt column-major
// blocks, each with a first-writer flag. A slot's home is the store's own
// block, in the matrix the caller gets back. Under the socket transport
// every node process is a forked copy of the parent, so the store builds
// its matrices in shared arenas (common/arena.hpp) before the fork, and
// keeps the flags in a small shared arena of their own: a node process's
// deposit lands in the parent's result, and finish() has nothing to copy.
//
// A deposit checks the slot's flag, writes the slot, then publishes the
// flag with release ordering. A rank killed mid-copy therefore leaves its
// slot unpublished, and its replacement overwrites it. A published slot
// deposited again is fatal, unless dedup is on (crash recovery, where a
// respawned rank re-fires what its dead incarnation deposited): then the
// new content must be bitwise equal to the slot's, and the deposit is
// skipped. Any nonzero flag byte reads as written.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <string>
#include <vector>

#include "common/arena.hpp"
#include "common/view.hpp"

namespace pulsarqr::vsaqr {

class DepositSlots {
 public:
  static_assert(std::atomic<std::uint8_t>::is_always_lock_free,
                "slot flags must be lock-free to be shared across processes");
  using Flag = std::atomic<std::uint8_t>;

  /// `kinds.size()` planes of mt x nt slot flags, in shared memory when
  /// `shared`. `owner` and `kinds` name slots in failures ("ResultStore:
  /// tile (2,1) ...").
  DepositSlots(std::string owner, std::vector<std::string> kinds, int mt,
               int nt, bool shared);
  DepositSlots(const DepositSlots&) = delete;
  DepositSlots& operator=(const DepositSlots&) = delete;

  bool shared() const { return flags_.shared(); }
  /// Make re-deposits of a published slot verify-and-skip instead of
  /// fatal. Call before the run.
  void enable_dedup() { dedup_ = true; }

  /// Deposit `src` into slot (kind, i, j), whose home is `home`.
  void put(int kind, int i, int j, MatrixView home, ConstMatrixView src);
  /// Whether slot (kind, i, j) is published.
  bool written(int kind, int i, int j) const {
    return flag(kind, i, j).load(std::memory_order_acquire) != 0;
  }
  /// Throw pulsarqr::Error naming slot (kind, i, j) unless it is written.
  void require_written(int kind, int i, int j) const;

  /// Slot (kind, i, j)'s first-writer flag.
  Flag& flag(int kind, int i, int j) const {
    Flag* flags = std::launder(reinterpret_cast<Flag*>(flags_.data()));
    return flags[index(kind, i, j)];
  }

 private:
  std::size_t index(int kind, int i, int j) const;
  std::string name(int kind, int i, int j) const;

  std::string owner_;
  std::vector<std::string> kinds_;
  int mt_, nt_;
  bool dedup_ = false;
  Arena flags_;
};

}  // namespace pulsarqr::vsaqr
