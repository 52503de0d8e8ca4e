#include "ref/reference_qr.hpp"

#include <algorithm>
#include <utility>

#include "kernels/tile_kernels.hpp"

namespace pulsarqr::ref {

TStore::TStore(int mt, int ib, int nb, int n, bool shared)
    : ib_(ib),
      tiles_(mt * ib, n, ib, nb, shared),
      written_(static_cast<std::size_t>(mt) * tiles_.nt(), shared) {}

MatrixView TStore::t(int i, int j) {
  const MatrixView v = tiles_.tile(i, j);
  written(i, j) = std::byte{1};
  return v;
}

ConstMatrixView TStore::t(int i, int j) const {
  const ConstMatrixView v = tiles_.tile(i, j);
  PQR_ASSERT(written(i, j) != std::byte{0}, "TStore: reading unwritten T tile");
  return v;
}

void execute_op(const plan::Op& op, TileMatrix& a, TStore& tg, TStore& tt,
                int ib) {
  using plan::OpKind;
  const int pw = a.tile_cols(op.j);  // panel width
  switch (op.kind) {
    case OpKind::Geqrt:
      kernels::geqrt(a.tile(op.i, op.j), ib, tg.t(op.i, op.j));
      break;
    case OpKind::Ormqr:
      kernels::ormqr(blas::Trans::Yes, a.tile(op.i, op.j), tg.t(op.i, op.j),
                     ib, a.tile(op.i, op.l));
      break;
    case OpKind::Tsqrt:
      kernels::tsqrt(a.tile(op.i, op.j).block(0, 0, pw, pw),
                     a.tile(op.k, op.j), ib, tt.t(op.k, op.j));
      break;
    case OpKind::Tsmqr:
      kernels::tsmqr(blas::Trans::Yes, a.tile(op.k, op.j), tt.t(op.k, op.j),
                     ib, a.tile(op.i, op.l), a.tile(op.k, op.l));
      break;
    case OpKind::Ttqrt:
      kernels::ttqrt(a.tile(op.i, op.j).block(0, 0, pw, pw),
                     a.tile(op.k, op.j), ib, tt.t(op.k, op.j));
      break;
    case OpKind::Ttmqr:
      kernels::ttmqr(blas::Trans::Yes, a.tile(op.k, op.j), tt.t(op.k, op.j),
                     ib, a.tile(op.i, op.l), a.tile(op.k, op.l));
      break;
  }
}

TreeQrFactors tree_qr(TileMatrix a, int ib, const plan::PlanConfig& cfg) {
  require(ib >= 1 && ib <= a.nb(), "tree_qr: need 1 <= ib <= nb");
  const int mt = a.mt();
  const int nt = a.nt();
  const int nb = a.nb();
  const int n = a.cols();
  TreeQrFactors f{std::move(a), TStore(mt, ib, nb, n), TStore(mt, ib, nb, n),
                  plan::ReductionPlan(mt, nt, cfg), ib};
  for (const auto& op : f.plan.ops()) {
    execute_op(op, f.a, f.tg, f.tt, ib);
  }
  return f;
}

Matrix extract_r(const TreeQrFactors& f) {
  const int n = f.a.cols();
  Matrix r(n, n);
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i <= j; ++i) {
      if (i < f.a.rows()) r(i, j) = f.a.at(i, j);
    }
  }
  return r;
}

}  // namespace pulsarqr::ref
