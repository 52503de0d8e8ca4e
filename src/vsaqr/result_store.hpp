// Thread-safe collection point for the factorization's outputs.
//
// Tiles leave the systolic array when they become final (eliminated V
// tiles, binary losers, and the R tiles of each step's survivor row); the
// VDP that finalizes a tile deposits it here together with its T factors.
// Every (i, j) slot is written exactly once, by exactly one VDP, so writes
// are lock-free; atomic flags catch double writes and missing tiles.
#pragma once

#include <atomic>
#include <vector>

#include "ref/reference_qr.hpp"
#include "tile/tile_matrix.hpp"
#include "vsaqr/deposit_log.hpp"

namespace pulsarqr::vsaqr {

class ResultStore {
 public:
  ResultStore(int m, int n, int nb, int ib);

  int mt() const { return a_.mt(); }
  int nt() const { return a_.nt(); }

  /// Deposit the final content of factor tile (i, j).
  void put_tile(int i, int j, ConstMatrixView tile);
  /// Deposit the geqrt T factors of tile (i, j).
  void put_tg(int i, int j, ConstMatrixView t);
  /// Deposit the tsqrt/ttqrt T factors of eliminated row i at panel j.
  void put_tt(int i, int j, ConstMatrixView t);

  /// Verify completeness (every tile deposited) and move the collected
  /// factors out. `plan` must describe the run that filled the store.
  ref::TreeQrFactors finish(plan::ReductionPlan plan, int ib);

  // ---- socket-transport result shipping (see vsaqr/deposit_log.hpp) ----
  //
  // Under the Socket transport every node process fills a copy-on-write
  // copy of this store with ONLY its own deposits; the parent's copy
  // stays empty. With the deposit log enabled, each first write of a
  // slot also records (kind, i, j), and replaying a child's blob goes
  // through put(), re-asserting the exactly-once discipline across
  // processes.

  /// Deposit kinds: 0 = factor tile, 1 = geqrt T, 2 = tsqrt/ttqrt T.
  static constexpr int kDepositKinds = 3;
  /// Dispatch one deposit to put_tile / put_tg / put_tt by kind.
  void put(int kind, int i, int j, ConstMatrixView v);
  /// The current content of slot (kind, i, j).
  ConstMatrixView slot(int kind, int i, int j) const;
  DepositLog& log() { return log_; }

  // ---- crash recovery: exactly-once deposits ----
  //
  // Under crash recovery a deposit can in principle be replayed (a
  // respawned node re-executes its VDPs from scratch, and the parent
  // applies whatever epilogue blobs reach it). With dedup enabled a
  // re-deposit of an already-written slot is verified to be bitwise
  // identical to the first write and then skipped — it neither
  // overwrites nor re-logs — so replay is idempotent end to end. A
  // re-deposit with DIFFERENT content still asserts: that is not
  // recovery, it is two VDPs claiming one slot.

  /// Make re-deposits idempotent (verify + skip) instead of fatal.
  /// Call BEFORE the run, alongside enabling the deposit log.
  void enable_dedup();

 private:
  TileMatrix a_;
  ref::TStore tg_;
  ref::TStore tt_;
  int ib_;
  std::vector<std::atomic<bool>> tile_written_;
  /// First-writer flags for the T stores, mirroring tile_written_: they
  /// make put_tg/put_tt replays detectable (and loggable exactly once).
  std::vector<std::atomic<bool>> tg_written_;
  std::vector<std::atomic<bool>> tt_written_;
  bool dedup_ = false;
  DepositLog log_;
};

}  // namespace pulsarqr::vsaqr
