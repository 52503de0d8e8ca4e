// Exactly-once deposit slots, shared by every scenario store (the QR
// ResultStore, the Cholesky/LU TileStore).
//
// A store's outputs are slots: planes ("kinds") of mt x nt column-major
// blocks, each with a first-writer flag. In-process, the slots are the
// store's own matrices and the flags are private. Under the socket
// transport every node process is a forked copy of the parent, so a write
// to the store's matrices would stay in the child; there the slots and
// their flags live in one MAP_SHARED|MAP_ANONYMOUS mapping, made when the
// store is built and so before the fork. A node process's deposit lands in
// the parent's memory, and the parent's finish() copies each written slot
// into its matrices once. Pages are allocated only as slots are written.
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
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/view.hpp"

namespace pulsarqr::vsaqr {

class DepositSlots {
 public:
  static_assert(std::atomic<std::uint8_t>::is_always_lock_free,
                "slot flags must be lock-free to be shared across processes");
  using Flag = std::atomic<std::uint8_t>;
  struct Shape {
    int rows = 0;
    int cols = 0;
  };

  /// `kinds.size()` planes of mt x nt slots, in shared memory when
  /// `shared`; `shape(kind, i, j)` sizes each shared slot. `owner` and
  /// `kinds` name slots in failures ("ResultStore: tile (2,1) ...").
  DepositSlots(std::string owner, std::vector<std::string> kinds, int mt,
               int nt, bool shared,
               const std::function<Shape(int, int, int)>& shape);
  ~DepositSlots();
  DepositSlots(const DepositSlots&) = delete;
  DepositSlots& operator=(const DepositSlots&) = delete;

  bool shared() const { return map_ != nullptr; }
  /// Make re-deposits of a published slot verify-and-skip instead of
  /// fatal. Call before the run.
  void enable_dedup() { dedup_ = true; }

  /// Deposit `src` into slot (kind, i, j): into `home`, the store's own
  /// block, in-process; into the mapping when shared.
  void put(int kind, int i, int j, MatrixView home, ConstMatrixView src);
  /// Whether slot (kind, i, j) is published.
  bool written(int kind, int i, int j) const {
    return flag(kind, i, j).load(std::memory_order_acquire) != 0;
  }
  /// Throw pulsarqr::Error naming slot (kind, i, j) unless it is written.
  void require_written(int kind, int i, int j) const;
  /// Shared: copy a written slot into `home`. In-process a no-op: the
  /// deposit already wrote it there.
  void copy_out(int kind, int i, int j, MatrixView home) const;

  /// Slot (kind, i, j)'s first-writer flag.
  Flag& flag(int kind, int i, int j) const { return flags_[index(kind, i, j)]; }
  /// The slot's block in the mapping (shared only).
  MatrixView view(int kind, int i, int j) const;

 private:
  std::size_t index(int kind, int i, int j) const;
  std::string name(int kind, int i, int j) const;

  std::string owner_;
  std::vector<std::string> kinds_;
  int mt_, nt_;
  bool dedup_ = false;
  std::unique_ptr<Flag[]> own_flags_;  ///< in-process flags
  Flag* flags_ = nullptr;              ///< own_flags_, or the mapping's head
  // Shared only: the mapping, and each slot's shape and offset in doubles
  // from data_.
  std::byte* map_ = nullptr;
  std::size_t map_bytes_ = 0;
  double* data_ = nullptr;
  std::vector<Shape> shape_;
  std::vector<std::size_t> offset_;
};

}  // namespace pulsarqr::vsaqr
