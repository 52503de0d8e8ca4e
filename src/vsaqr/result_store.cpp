#include "vsaqr/result_store.hpp"

namespace pulsarqr::vsaqr {

ResultStore::ResultStore(int m, int n, int nb, int ib,
                         prt::Transport transport)
    : a_(m, n, nb, transport == prt::Transport::Socket),
      tg_(a_.mt(), ib, nb, n, a_.shared()),
      tt_(a_.mt(), ib, nb, n, a_.shared()),
      slots_("ResultStore", {"tile", "geqrt T", "tree T"}, a_.mt(), a_.nt(),
             a_.shared()) {}

void ResultStore::put_tile(int i, int j, ConstMatrixView tile) {
  slots_.put(kTile, i, j, a_.tile(i, j), tile);
}

void ResultStore::put_tg(int i, int j, ConstMatrixView t) {
  MatrixView dst = tg_.t(i, j);
  slots_.put(kGeqrtT, i, j, dst, t.block(0, 0, dst.rows, dst.cols));
}

void ResultStore::put_tt(int i, int j, ConstMatrixView t) {
  MatrixView dst = tt_.t(i, j);
  slots_.put(kTreeT, i, j, dst, t.block(0, 0, dst.rows, dst.cols));
}

ref::TreeQrFactors ResultStore::finish(plan::ReductionPlan plan, int ib) {
  for (int j = 0; j < a_.nt(); ++j) {
    for (int i = 0; i < a_.mt(); ++i) slots_.require_written(kTile, i, j);
  }
  return ref::TreeQrFactors{std::move(a_), std::move(tg_), std::move(tt_),
                            std::move(plan), ib};
}

TileStore::TileStore(int m, int n, int nb, prt::Transport transport)
    : tiles_(m, n, nb, transport == prt::Transport::Socket),
      slots_("TileStore", {"tile"}, tiles_.mt(), tiles_.nt(),
             tiles_.shared()) {}

TileMatrix TileStore::finish(bool lower) {
  for (int j = 0; j < tiles_.nt(); ++j) {
    for (int i = lower ? j : 0; i < tiles_.mt(); ++i) {
      slots_.require_written(0, i, j);
    }
  }
  return std::move(tiles_);
}

}  // namespace pulsarqr::vsaqr
