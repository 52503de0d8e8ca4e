// Thread-safe collection points for the factorizations' outputs.
//
// Tiles leave the systolic array when they become final (eliminated V
// tiles, binary losers, and the R tiles of each step's survivor row); the
// VDP that finalizes a tile deposits it here together with its T factors.
// Every slot is written at most once, by exactly one VDP, so writes are
// lock-free; first-writer flags catch double writes and missing tiles.
// The deposits land in the matrices finish() returns. Under the socket
// transport those matrices are shared arenas mapped when the store is
// built, before the fork (vsaqr/deposit_slots.hpp), so results need no
// shipping and no copy.
#pragma once

#include "prt/vsa.hpp"
#include "ref/reference_qr.hpp"
#include "tile/tile_matrix.hpp"
#include "vsaqr/deposit_slots.hpp"

namespace pulsarqr::vsaqr {

/// The tree QR's outputs (and apply_qt's, which uses only the tiles).
class ResultStore {
 public:
  /// Deposit kinds: factor tiles, geqrt T factors, tsqrt/ttqrt T factors.
  enum Kind { kTile, kGeqrtT, kTreeT };

  /// Build the store before the run: under Transport::Socket its slots are
  /// mapped here, before the fork.
  ResultStore(int m, int n, int nb, int ib,
              prt::Transport transport = prt::Transport::InProcess);

  int mt() const { return a_.mt(); }
  int nt() const { return a_.nt(); }

  /// Deposit the final content of factor tile (i, j).
  void put_tile(int i, int j, ConstMatrixView tile);
  /// Deposit the geqrt T factors of tile (i, j).
  void put_tg(int i, int j, ConstMatrixView t);
  /// Deposit the tsqrt/ttqrt T factors of eliminated row i at panel j.
  void put_tt(int i, int j, ConstMatrixView t);

  /// Crash recovery: a respawned node re-fires its VDPs from scratch, so
  /// it may re-deposit what its dead incarnation published. Make such a
  /// re-deposit verify-and-skip instead of fatal. Call before the run.
  void enable_dedup() { slots_.enable_dedup(); }

  /// Verify completeness (every tile deposited) and move the collected
  /// factors out; a socket run's stay in their shared arenas. `plan` must
  /// describe the run that filled the store.
  ref::TreeQrFactors finish(plan::ReductionPlan plan, int ib);

  DepositSlots& slots() { return slots_; }

 private:
  TileMatrix a_;
  ref::TStore tg_;
  ref::TStore tt_;
  DepositSlots slots_;
};

/// Collection point for one TileMatrix of final tiles (Cholesky's L, LU's
/// packed factors), with the same first-writer discipline.
class TileStore {
 public:
  TileStore(int m, int n, int nb,
            prt::Transport transport = prt::Transport::InProcess);

  void put(int i, int j, ConstMatrixView tile) {
    slots_.put(0, i, j, tiles_.tile(i, j), tile);
  }
  /// As ResultStore::enable_dedup.
  void enable_dedup() { slots_.enable_dedup(); }

  /// Verify that every tile, or with `lower` every tile on or below the
  /// diagonal, was deposited, and move the matrix out.
  TileMatrix finish(bool lower = false);

  DepositSlots& slots() { return slots_; }

 private:
  TileMatrix tiles_;
  DepositSlots slots_;
};

}  // namespace pulsarqr::vsaqr
