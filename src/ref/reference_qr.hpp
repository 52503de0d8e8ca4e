// Sequential reference executor for a ReductionPlan — the ground truth the
// virtual systolic array is tested against, and the simplest way to use the
// tree QR without the runtime.
#pragma once

#include <cstddef>

#include "plan/reduction_plan.hpp"
#include "tile/tile_matrix.hpp"

namespace pulsarqr::ref {

/// Storage for the T factors of the block reflectors: one ib-by-(panel
/// width) tile per (tile row, panel) position, zero-filled, in a
/// TileMatrix of ib-by-nb tiles. The mutable t() marks its tile written
/// in a byte Arena beside it, which a `shared` store keeps shared as well,
/// so the marks of a node process's deposits reach the caller.
class TStore {
 public:
  TStore() = default;
  TStore(int mt, int ib, int nb, int n, bool shared = false);
  MatrixView t(int i, int j);
  ConstMatrixView t(int i, int j) const;
  int ib() const { return ib_; }

 private:
  int ib_ = 0;
  TileMatrix tiles_;
  Arena written_;
  std::byte& written(int i, int j) const {
    return written_.data()[i + static_cast<std::size_t>(j) * tiles_.mt()];
  }
};

/// Output of a tree QR factorization. `a` holds R in the upper triangle of
/// the upper tile rows, flat-tree Householder vectors in the lower parts,
/// and binary-tree (TT) vectors in the upper triangles of eliminated head
/// tiles. `tg` holds geqrt T factors, `tt` holds tsqrt/ttqrt T factors
/// (each tile row is eliminated exactly once, so one slot per row suffices).
struct TreeQrFactors {
  TileMatrix a;
  TStore tg;
  TStore tt;
  plan::ReductionPlan plan;
  int ib = 0;
};

/// Execute one plan op against the factor storage (kernel dispatch shared
/// by the reference executor; the VSA performs the same calls on
/// packet-carried tiles).
void execute_op(const plan::Op& op, TileMatrix& a, TStore& tg, TStore& tt,
                int ib);

/// Factorize a tile matrix with the given tree configuration. The input is
/// consumed (moved into the factor storage).
TreeQrFactors tree_qr(TileMatrix a, int ib, const plan::PlanConfig& cfg);

/// Extract the dense n-by-n upper-triangular R factor.
Matrix extract_r(const TreeQrFactors& f);

}  // namespace pulsarqr::ref
