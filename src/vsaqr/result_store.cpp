#include "vsaqr/result_store.hpp"

#include <cstring>

#include "blas/blas.hpp"

namespace pulsarqr::vsaqr {

namespace {
/// Bitwise equality of two equally-shaped views (memcmp per column: a
/// replayed deposit must reproduce the first write exactly, including
/// signed zeros and NaN payloads).
bool bitwise_equal(ConstMatrixView a, ConstMatrixView b) {
  if (a.rows != b.rows || a.cols != b.cols) return false;
  for (int j = 0; j < a.cols; ++j) {
    if (std::memcmp(a.col(j), b.col(j),
                    static_cast<std::size_t>(a.rows) * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}
}  // namespace

ResultStore::ResultStore(int m, int n, int nb, int ib)
    : a_(m, n, nb),
      tg_(a_.mt(), a_.nt(), ib, nb, n),
      tt_(a_.mt(), a_.nt(), ib, nb, n),
      ib_(ib),
      tile_written_(static_cast<std::size_t>(a_.mt()) * a_.nt()),
      tg_written_(static_cast<std::size_t>(a_.mt()) * a_.nt()),
      tt_written_(static_cast<std::size_t>(a_.mt()) * a_.nt()) {
  // Pre-touch every T slot so concurrent put_tg/put_tt never allocate the
  // same lazily-created buffer from two threads.
  for (int j = 0; j < a_.nt(); ++j) {
    for (int i = 0; i < a_.mt(); ++i) {
      (void)tg_.t(i, j);
      (void)tt_.t(i, j);
    }
  }
}

void ResultStore::put_tile(int i, int j, ConstMatrixView tile) {
  MatrixView dst = a_.tile(i, j);
  PQR_ASSERT(dst.rows == tile.rows && dst.cols == tile.cols,
             "ResultStore: tile shape mismatch");
  const bool was =
      tile_written_[i + static_cast<std::size_t>(j) * a_.mt()].exchange(true);
  if (was) {
    PQR_ASSERT(dedup_, "ResultStore: tile deposited twice");
    PQR_ASSERT(bitwise_equal(tile, dst),
               "ResultStore: conflicting re-deposit of tile (replay produced "
               "different content)");
    return;  // idempotent replay: already written, already logged
  }
  blas::lacpy_all(tile, dst);
  log_.record(0, i, j);
}

void ResultStore::put_tg(int i, int j, ConstMatrixView t) {
  MatrixView dst = tg_.t(i, j);
  const ConstMatrixView src = t.block(0, 0, dst.rows, dst.cols);
  const bool was =
      tg_written_[i + static_cast<std::size_t>(j) * a_.mt()].exchange(true);
  if (was && dedup_) {
    PQR_ASSERT(bitwise_equal(src, dst),
               "ResultStore: conflicting re-deposit of geqrt T factors");
    return;
  }
  blas::lacpy_all(src, dst);
  if (!was) log_.record(1, i, j);
}

void ResultStore::put_tt(int i, int j, ConstMatrixView t) {
  MatrixView dst = tt_.t(i, j);
  const ConstMatrixView src = t.block(0, 0, dst.rows, dst.cols);
  const bool was =
      tt_written_[i + static_cast<std::size_t>(j) * a_.mt()].exchange(true);
  if (was && dedup_) {
    PQR_ASSERT(bitwise_equal(src, dst),
               "ResultStore: conflicting re-deposit of tree T factors");
    return;
  }
  blas::lacpy_all(src, dst);
  if (!was) log_.record(2, i, j);
}

void ResultStore::enable_dedup() { dedup_ = true; }

void ResultStore::put(int kind, int i, int j, ConstMatrixView v) {
  switch (kind) {
    case 0:
      put_tile(i, j, v);
      break;
    case 1:
      put_tg(i, j, v);
      break;
    default:
      put_tt(i, j, v);
      break;
  }
}

ConstMatrixView ResultStore::slot(int kind, int i, int j) const {
  switch (kind) {
    case 0:
      return a_.tile(i, j);
    case 1:
      return tg_.t(i, j);
    default:
      return tt_.t(i, j);
  }
}

ref::TreeQrFactors ResultStore::finish(plan::ReductionPlan plan, int ib) {
  for (int j = 0; j < a_.nt(); ++j) {
    for (int i = 0; i < a_.mt(); ++i) {
      require(tile_written_[i + static_cast<std::size_t>(j) * a_.mt()].load(),
              "ResultStore: tile (" + std::to_string(i) + "," +
                  std::to_string(j) + ") was never deposited");
    }
  }
  return ref::TreeQrFactors{std::move(a_), std::move(tg_), std::move(tt_),
                            std::move(plan), ib};
}

}  // namespace pulsarqr::vsaqr
