#include "kernels/tile_kernels.hpp"

#include <algorithm>

#include "blas/simd.hpp"
#include "lapack/householder.hpp"
#include "lapack/qr.hpp"

namespace pulsarqr::kernels {

using blas::Diag;
using blas::Side;
using blas::Trans;
using blas::Uplo;

void geqrt(MatrixView a, int ib, MatrixView t, Workspace& ws) {
  lapack::geqrt(a, ib, t, ws);
}

void geqrt(MatrixView a, int ib, MatrixView t) {
  lapack::geqrt(a, ib, t, tls_workspace());
}

void ormqr(blas::Trans trans, ConstMatrixView v, ConstMatrixView t, int ib,
           MatrixView c, Workspace& ws) {
  lapack::ormqr_t(trans, v, t, ib, c, ws);
}

void ormqr(blas::Trans trans, ConstMatrixView v, ConstMatrixView t, int ib,
           MatrixView c) {
  lapack::ormqr_t(trans, v, t, ib, c, tls_workspace());
}

void geqrt(MatrixViewF a, int ib, MatrixViewF t, Workspace& ws) {
  lapack::geqrt(a, ib, t, ws);
}

void geqrt(MatrixViewF a, int ib, MatrixViewF t) {
  lapack::geqrt(a, ib, t, tls_workspace());
}

void ormqr(blas::Trans trans, ConstMatrixViewF v, ConstMatrixViewF t, int ib,
           MatrixViewF c, Workspace& ws) {
  lapack::ormqr_t(trans, v, t, ib, c, ws);
}

void ormqr(blas::Trans trans, ConstMatrixViewF v, ConstMatrixViewF t, int ib,
           MatrixViewF c) {
  lapack::ormqr_t(trans, v, t, ib, c, tls_workspace());
}

namespace {

// Row bound of column c of the stacked block A2/V2: the dense (TS) kernels
// use the full height m2; the TT kernels exploit the upper-triangular
// structure — column c has nonzeros only in rows [0, min(c+1, m2)), and
// everything below is foreign data (Householder vectors of the flat phase)
// that must be neither read nor written.
inline int row_bound(bool tri, int c, int m2) {
  return tri ? std::min(c + 1, m2) : m2;
}

// One inner block of the stacked apply, C := op(H) C with the block
// reflector H = I - V T V^T, V = [I; V2b], V2b = V2(:, jb:jb+kb):
//   W = C1b + V2b^T C2 ;  W := op(Tb) W ;  C1b -= W ;  C2 -= V2b W.
// C1b is kb-by-nc, C2 is m2-by-nc, work holds kb*nc elements. Dense V2
// (tri=false) is one gemm per product. With triangular V2 (tri=true) rows
// [0, jb) of V2b are dense for every panel column and go to the same gemm,
// while rows [jb, jb+kb) form V2's kb-by-kb upper-triangular diagonal
// block U — a trapezoid when m2 < jb+kb: a triangle plus dense columns on
// its right. Each product with U's triangle copies its operand into
// scratch (kb*nc elements) and makes one trmm call, which reads only the
// triangle; the dense columns go to gemm. Nothing below V2's diagonal is
// read, and C2 rows past the block's support are untouched.
template <class T>
void apply_block(Trans trans, ConstMatrixViewT<T> v2, int jb, int kb,
                 ConstMatrixViewT<T> tb, MatrixViewT<T> c1b,
                 MatrixViewT<T> c2, T* work, T* scratch, bool tri) {
  const int m2 = v2.rows;
  const int nc = c1b.cols;
  const int r0 = tri ? std::min(jb, m2) : m2;  // V2b rows dense in every column
  const int mt = tri ? std::clamp(m2 - jb, 0, kb) : 0;  // U's row count
  MatrixViewT<T> w(work, kb, nc, kb);
  blas::lacpy_all(c1b, w);
  if (r0 > 0) {
    blas::gemm(Trans::Yes, Trans::No, T(1), v2.block(0, jb, r0, kb),
               ConstMatrixViewT<T>(c2.block(0, 0, r0, nc)), T(1), w);
  }
  ConstMatrixViewT<T> u, u_right;
  MatrixViewT<T> c2b, x;
  if (mt > 0) {
    u = v2.block(jb, jb, mt, mt);
    u_right = v2.block(jb, jb + mt, mt, kb - mt);
    c2b = c2.block(jb, 0, mt, nc);
    x = MatrixViewT<T>(scratch, mt, nc, mt);
    // W += U^T C2b: the triangle's rows of W through trmm, the rest gemm.
    blas::lacpy_all(c2b, x);
    blas::trmm(Side::Left, Uplo::Upper, Trans::Yes, Diag::NonUnit, T(1), u,
               x);
    for (int j = 0; j < nc; ++j) blas::axpy(mt, T(1), x.col(j), w.col(j));
    if (kb > mt) {
      blas::gemm(Trans::Yes, Trans::No, T(1), u_right,
                 ConstMatrixViewT<T>(c2b), T(1), w.block(mt, 0, kb - mt, nc));
    }
  }
  blas::trmm(Side::Left, Uplo::Upper, trans, Diag::NonUnit, T(1), tb, w);
  for (int j = 0; j < nc; ++j) blas::axpy(kb, T(-1), w.col(j), c1b.col(j));
  if (r0 > 0) {
    blas::gemm(Trans::No, Trans::No, T(-1), v2.block(0, jb, r0, kb),
               ConstMatrixViewT<T>(w), T(1), c2.block(0, 0, r0, nc));
  }
  if (mt > 0) {
    // C2b -= U W.
    blas::lacpy_all(ConstMatrixViewT<T>(w.block(0, 0, mt, nc)), x);
    blas::trmm(Side::Left, Uplo::Upper, Trans::No, Diag::NonUnit, T(1), u, x);
    for (int j = 0; j < nc; ++j) blas::axpy(mt, T(-1), x.col(j), c2b.col(j));
    if (kb > mt) {
      blas::gemm(Trans::No, Trans::No, T(-1), u_right,
                 ConstMatrixViewT<T>(w.block(mt, 0, kb - mt, nc)), T(1), c2b);
    }
  }
}

// Shared "triangle on top of block" QR core: factorizes [A1; A2] where A1
// is n-by-n upper triangular and A2 is m2-by-n dense (tri=false) or upper
// triangular (tri=true, per-column row bounds). Householder vector j is
// [e_j; V2(:, j)] (identity top), so only row j of A1 is touched when
// eliminating column j, and the block T recurrence reduces to dot products
// over V2 columns. Each panel is factored one reflector at a time with one
// dot_cols and one ger_cols sweep over the reflector's rows; the trailing
// columns then take the panel's block reflector through apply_block, the
// same inner step tsmqr/ttmqr run.
template <class T>
void stacked_qrt(MatrixViewT<T> a1, MatrixViewT<T> a2, int ib,
                 MatrixViewT<T> t, Workspace& ws, bool tri) {
  const int n = a1.cols;
  const int m2 = a2.rows;
  PQR_ASSERT(a1.rows >= n, "tsqrt: A1 must be at least n-by-n");
  PQR_ASSERT(a2.cols == n, "tsqrt: A2 column mismatch");
  require(ib >= 1, "tsqrt: ib must be positive");
  PQR_ASSERT(t.rows >= std::min(ib, n) && t.cols >= n, "tsqrt: T too small");
  if (n == 0) return;

  const auto& kt = blas::simd::kernels<T>();
  WsFrame frame(ws);
  const int ibk = std::min(ib, n);
  T* tau = ws.alloc_as<T>(ibk);
  T* workbuf = ws.alloc_as<T>(static_cast<std::size_t>(ibk) * n);
  T* scratch =
      tri ? ws.alloc_as<T>(static_cast<std::size_t>(ibk) * n) : nullptr;

  for (int jb = 0; jb < n; jb += ib) {
    const int kb = std::min(ib, n - jb);
    // Panel: eliminate columns jb .. jb+kb-1 one reflector at a time.
    for (int jl = 0; jl < kb; ++jl) {
      const int j = jb + jl;
      const int bj = row_bound(tri, j, m2);
      tau[jl] = lapack::larfg(bj + 1, a1(j, j), a2.col(j));
      // Apply H_j to the remaining panel columns: one dot_cols sweep forms
      // w = tau * (A1(j, :) + V2(:, j)^T A2) over rows [0, bj), one
      // ger_cols sweep forms A2 -= V2(:, j) w over the same rows. Every
      // later column's row bound is at least bj. The block-update buffer
      // is idle during the panel, so its head holds w.
      const int nr = jb + kb - j - 1;
      if (nr == 0) continue;
      T* w = workbuf;
      for (int c = 0; c < nr; ++c) w[c] = a1(j, j + 1 + c);
      kt.dot_cols(bj, T(1), a2.col(j), a2.col(j + 1), a2.ld, nr, w, 1);
      for (int c = 0; c < nr; ++c) {
        w[c] *= tau[jl];
        a1(j, j + 1 + c) -= w[c];
      }
      kt.ger_cols(bj, T(-1), a2.col(j), w, 1, a2.col(j + 1), a2.ld, nr);
    }
    // T block for this panel: T(i,i) = tau_i and
    // T(0:i, i) = -tau_i * T(0:i, 0:i) * (V2b(:, 0:i)^T V2b(:, i));
    // the identity tops of the reflectors contribute nothing off-diagonal.
    MatrixViewT<T> tb = t.block(0, jb, kb, kb);
    for (int i = 0; i < kb; ++i) {
      tb(i, i) = tau[i];
      for (int j2 = 0; j2 < i; ++j2) {
        const int bj2 = row_bound(tri, jb + j2, m2);
        tb(j2, i) = -tau[i] * blas::dot(bj2, a2.col(jb + j2), a2.col(jb + i));
      }
      if (i > 0) {
        blas::trmv(Uplo::Upper, Trans::No, Diag::NonUnit,
                   ConstMatrixViewT<T>(tb.data, i, i, tb.ld), tb.col(i));
      }
    }
    // Block update of the trailing columns with Q_panel^T.
    const int rest = n - (jb + kb);
    if (rest > 0) {
      apply_block<T>(Trans::Yes, a2, jb, kb, tb,
                     a1.block(jb, jb + kb, kb, rest),
                     a2.block(0, jb + kb, m2, rest), workbuf, scratch, tri);
    }
  }
}

// Shared apply core for tsmqr/ttmqr: C := op(Q) C with Q from stacked_qrt,
// one apply_block per inner block. With tri=true, v2 is read through the
// same triangular support, so the raw ttqrt output tile (upper triangle =
// V2, strict lower = foreign data) can be passed directly.
template <class T>
void stacked_apply(Trans trans, ConstMatrixViewT<T> v2, ConstMatrixViewT<T> t,
                   int ib, MatrixViewT<T> c1, MatrixViewT<T> c2, Workspace& ws,
                   bool tri) {
  const int n = v2.cols;
  const int m2 = v2.rows;
  const int nc = c1.cols;
  PQR_ASSERT(c1.rows >= n, "tsmqr: C1 must have at least n rows");
  PQR_ASSERT(c2.rows == m2 && c2.cols == nc, "tsmqr: C2 shape mismatch");
  require(ib >= 1, "tsmqr: ib must be positive");
  if (n == 0 || nc == 0) return;

  WsFrame frame(ws);
  const std::size_t wsize = static_cast<std::size_t>(std::min(ib, n)) * nc;
  T* workbuf = ws.alloc_as<T>(wsize);
  T* scratch = tri ? ws.alloc_as<T>(wsize) : nullptr;
  const int nblocks = (n + ib - 1) / ib;
  // Q^T applies inner blocks first-to-last (with T^T), Q last-to-first.
  for (int bi = 0; bi < nblocks; ++bi) {
    const int b = trans == Trans::Yes ? bi : nblocks - 1 - bi;
    const int jb = b * ib;
    const int kb = std::min(ib, n - jb);
    apply_block<T>(trans, v2, jb, kb, t.block(0, jb, kb, kb),
                   c1.block(jb, 0, kb, nc), c2, workbuf, scratch, tri);
  }
}

template <class T>
void ttqrt_t(MatrixViewT<T> a1, MatrixViewT<T> a2, int ib, MatrixViewT<T> t,
             Workspace& ws) {
  // Only the upper triangle of A2 is input (R of the losing domain) and only
  // the upper triangle is output (V2); the strict lower part of the tile
  // holds Householder vectors from the flat-tree phase and must survive —
  // the row-bounded core never touches it.
  const int n = a1.cols;
  const int m2 = std::min(a2.rows, n);
  stacked_qrt<T>(a1, MatrixViewT<T>(a2.data, m2, n, a2.ld), ib, t, ws,
                 /*tri=*/true);
}

template <class T>
void ttmqr_t(Trans trans, ConstMatrixViewT<T> v2, ConstMatrixViewT<T> t,
             int ib, MatrixViewT<T> c1, MatrixViewT<T> c2, Workspace& ws) {
  const int n = v2.cols;
  const int m2 = std::min(v2.rows, n);
  stacked_apply<T>(trans, ConstMatrixViewT<T>(v2.data, m2, n, v2.ld), t, ib,
                   c1, MatrixViewT<T>(c2.data, m2, c2.cols, c2.ld), ws,
                   /*tri=*/true);
}

}  // namespace

void tsqrt(MatrixView a1, MatrixView a2, int ib, MatrixView t, Workspace& ws) {
  stacked_qrt<double>(a1, a2, ib, t, ws, /*tri=*/false);
}

void tsqrt(MatrixView a1, MatrixView a2, int ib, MatrixView t) {
  stacked_qrt<double>(a1, a2, ib, t, tls_workspace(), /*tri=*/false);
}

void tsqrt(MatrixViewF a1, MatrixViewF a2, int ib, MatrixViewF t,
           Workspace& ws) {
  stacked_qrt<float>(a1, a2, ib, t, ws, /*tri=*/false);
}

void tsmqr(Trans trans, ConstMatrixView v2, ConstMatrixView t, int ib,
           MatrixView c1, MatrixView c2, Workspace& ws) {
  stacked_apply<double>(trans, v2, t, ib, c1, c2, ws, /*tri=*/false);
}

void tsmqr(Trans trans, ConstMatrixView v2, ConstMatrixView t, int ib,
           MatrixView c1, MatrixView c2) {
  stacked_apply<double>(trans, v2, t, ib, c1, c2, tls_workspace(),
                        /*tri=*/false);
}

void tsmqr(Trans trans, ConstMatrixViewF v2, ConstMatrixViewF t, int ib,
           MatrixViewF c1, MatrixViewF c2, Workspace& ws) {
  stacked_apply<float>(trans, v2, t, ib, c1, c2, ws, /*tri=*/false);
}

void ttqrt(MatrixView a1, MatrixView a2, int ib, MatrixView t, Workspace& ws) {
  ttqrt_t<double>(a1, a2, ib, t, ws);
}

void ttqrt(MatrixView a1, MatrixView a2, int ib, MatrixView t) {
  ttqrt_t<double>(a1, a2, ib, t, tls_workspace());
}

void ttqrt(MatrixViewF a1, MatrixViewF a2, int ib, MatrixViewF t,
           Workspace& ws) {
  ttqrt_t<float>(a1, a2, ib, t, ws);
}

void ttmqr(Trans trans, ConstMatrixView v2, ConstMatrixView t, int ib,
           MatrixView c1, MatrixView c2, Workspace& ws) {
  ttmqr_t<double>(trans, v2, t, ib, c1, c2, ws);
}

void ttmqr(Trans trans, ConstMatrixView v2, ConstMatrixView t, int ib,
           MatrixView c1, MatrixView c2) {
  ttmqr_t<double>(trans, v2, t, ib, c1, c2, tls_workspace());
}

void ttmqr(Trans trans, ConstMatrixViewF v2, ConstMatrixViewF t, int ib,
           MatrixViewF c1, MatrixViewF c2, Workspace& ws) {
  ttmqr_t<float>(trans, v2, t, ib, c1, c2, ws);
}

}  // namespace pulsarqr::kernels
