// Shared implementation of the SIMD kernel bundle, parameterized by a
// vector-traits class. Each ISA translation unit (kernels_generic.cpp,
// kernels_avx2.cpp, kernels_avx512.cpp) defines a thin
// traits struct — register type, lane count, load/store/fma/hsum — and
// instantiates Kernels<Traits, AR, NR> from this header, so the micro-kernel
// schedule (full-width register accumulation over a zero-padded packed A
// panel and an in-place op(B), the masked-diagonal triangular multiply,
// 4-way unrolled level-1 sweeps, 4-column fused multi-sweeps) is written
// once and compiled per-ISA with that TU's target flags.
//
// Traits contract (see ScalarTraits for the reference shape):
//   using T            — scalar type (double or float)
//   using reg          — vector register holding W lanes of T
//   static constexpr int W
//   zero(), set1(a), load(p) [64-byte-aligned p], loadu(p), storeu(p, v),
//   add(a, b), fma(a, b, c) -> c + a * b, hsum(v) -> sum of lanes,
//   fma_lanes(a, b, c, lo, hi) -> c + a * b in lanes [lo, hi) and c
//     unchanged in every other lane (0 <= lo < hi <= W); the product of an
//     excluded lane must not reach the result, so a NaN or an Inf there
//     leaves c as it was
//
// Kernels<VT, AR, NR> yields a gemm micro-tile of MR = AR * W rows by NR
// columns: AR accumulator registers per C column, NR columns resident, so
// AR * NR accumulators + AR operand registers + one broadcast must fit the
// register file (15 of 16 ymm for AVX2 8x6 doubles; 19 of 32 zmm for
// AVX-512 16x8).
#pragma once

#include <algorithm>
#include <cstddef>

#include "blas/simd.hpp"

// Fully unroll a register-tile loop (trip count NRK, NC or AR, at most
// 16) early enough that the accumulator arrays become registers. Left to
// itself GCC keeps them in a stack array, zeroed on entry and stored and
// reloaded around the k loop, which a short-k tile pays for on every call.
#define PQR_UNROLL_TILE _Pragma("GCC unroll 16")

// GCC's loop vectorizer turns the k loop of a one-lane (ScalarTraits) gemm
// tile into in-order reductions over strided op(B) loads: 2x slower than
// the register tile on a portable build, 6x with -march=native. The SIMD
// tiles give it nothing to vectorize. Clang does not vectorize in-order
// floating-point reductions.
#if defined(__GNUC__) && !defined(__clang__)
#define PQR_NO_LOOP_VECTORIZE __attribute__((optimize("no-tree-loop-vectorize")))
#else
#define PQR_NO_LOOP_VECTORIZE
#endif

namespace pulsarqr::blas::simd {

/// Reference traits: one lane, plain arithmetic. Kernels<ScalarTraits<T>,
/// 8, 4> reproduces the PR 3 scalar register-tiled micro-kernel exactly
/// (the compiler autovectorizes the fixed-trip loops when the TU is built
/// with the host flags).
template <class S>
struct ScalarTraits {
  using T = S;
  using reg = S;
  static constexpr int W = 1;
  static reg zero() { return S(0); }
  static reg set1(T a) { return a; }
  static reg load(const T* p) { return *p; }
  static reg loadu(const T* p) { return *p; }
  static void storeu(T* p, reg v) { *p = v; }
  static reg add(reg a, reg b) { return a + b; }
  static reg fma(reg a, reg b, reg c) { return c + a * b; }
  static T hsum(reg v) { return v; }
  static reg fma_lanes(reg a, reg b, reg c, int lo, int hi) {
    return lo <= 0 && 0 < hi ? c + a * b : c;
  }
};

template <class VT, int AR, int NRK>
struct Kernels {
  using T = typename VT::T;
  using reg = typename VT::reg;
  static constexpr int W = VT::W;
  static constexpr int MR = AR * W;

  // C(0:mr, 0:nr) += alpha * Ap * op(B) over a kc-deep panel. Ap streams MR
  // contiguous (and 64-byte-aligned) rows per k step, zero-padded past mr
  // by the packing; op(B)(k, j) is read in place at b[k * bk + j * bj].
  // Columns past nr alias column 0, so every load stays inside op(B), and
  // their accumulators are never written back. Accumulation is always
  // full-width; only the writeback is bounded.
  PQR_NO_LOOP_VECTORIZE
  static void gemm_micro(int kc, T alpha, const T* ap, const T* b, int bk,
                         int bj, T* c, int ldc, int mr, int nr) {
    // Column offsets from one k-row pointer: a single pointer steps down
    // op(B), and each broadcast is an indexed load off it.
    std::ptrdiff_t off[NRK];
    for (int j = 0; j < NRK; ++j) {
      off[j] = static_cast<std::ptrdiff_t>(j < nr ? j : 0) * bj;
    }
    reg acc[NRK][AR];
    PQR_UNROLL_TILE
    for (int j = 0; j < NRK; ++j) {
      PQR_UNROLL_TILE
      for (int r = 0; r < AR; ++r) acc[j][r] = VT::zero();
    }
    for (int k = 0; k < kc; ++k) {
      reg a[AR];
      PQR_UNROLL_TILE
      for (int r = 0; r < AR; ++r) a[r] = VT::load(ap + r * W);
      PQR_UNROLL_TILE
      for (int j = 0; j < NRK; ++j) {
        const reg bv = VT::set1(b[off[j]]);
        PQR_UNROLL_TILE
        for (int r = 0; r < AR; ++r) acc[j][r] = VT::fma(a[r], bv, acc[j][r]);
      }
      ap += MR;
      b += bk;
    }
    if (mr == MR && nr == NRK) {
      const reg va = VT::set1(alpha);
      PQR_UNROLL_TILE
      for (int j = 0; j < NRK; ++j) {
        T* cj = c + static_cast<std::ptrdiff_t>(j) * ldc;
        PQR_UNROLL_TILE
        for (int r = 0; r < AR; ++r) {
          VT::storeu(cj + r * W,
                     VT::fma(va, acc[j][r], VT::loadu(cj + r * W)));
        }
      }
    } else {
      alignas(64) T tmp[NRK][MR];
      PQR_UNROLL_TILE
      for (int j = 0; j < NRK; ++j) {
        PQR_UNROLL_TILE
        for (int r = 0; r < AR; ++r) VT::storeu(&tmp[j][r * W], acc[j][r]);
      }
      for (int j = 0; j < nr; ++j) {
        T* cj = c + static_cast<std::ptrdiff_t>(j) * ldc;
        for (int i = 0; i < mr; ++i) cj[i] += alpha * tmp[j][i];
      }
    }
  }

  // B(0:m, 0:n) := alpha * op(A) * B in place, op(A) an m-by-m triangle
  // packed column-major with its rows padded to MR (see KernelTable::trmm).
  // Each MR-by-NRK tile of the product lives in registers, as in
  // gemm_micro. Against op(A)'s columns strictly off the tile's diagonal
  // block every row of the tile is coupled, so those run full-width FMAs;
  // inside the MR-by-MR diagonal block each column couples only the rows on
  // its side of the diagonal, and fma_lanes keeps every other row's product
  // out of the sum (a zero there would turn an Inf of B into a NaN). Tiles
  // run top-down when op(A) is upper (a row reads only rows at or below
  // it), bottom-up when it is lower, so every row of B a tile reads still
  // holds its input.
  static void trmm(int m, int n, T alpha, const T* ap, bool lower, T* b,
                   int ldb) {
    const int nblk = (m + MR - 1) / MR;
    for (int j = 0; j < n; j += NRK) {
      T* bj = b + static_cast<std::ptrdiff_t>(j) * ldb;
      for (int s = 0; s < nblk; ++s) {
        const int i0 = (lower ? nblk - 1 - s : s) * MR;
        trmm_cols<NRK>(std::min(NRK, n - j), m, alpha, ap, lower, i0, bj, ldb);
      }
    }
  }

  // Dispatch a column tile of nc <= NC columns to the kernel compiled for
  // exactly that width, so a column's arithmetic never depends on how many
  // neighbours share its tile.
  template <int NC>
  static void trmm_cols(int nc, int m, T alpha, const T* ap, bool lower,
                        int i0, T* b, int ldb) {
    if constexpr (NC > 1) {
      if (nc < NC) {
        trmm_cols<NC - 1>(nc, m, alpha, ap, lower, i0, b, ldb);
        return;
      }
    }
    trmm_tile<NC>(m, alpha, ap, lower, i0, b, ldb);
  }

  // Rows [i0, min(i0 + MR, m)) of NC columns of the product.
  template <int NC>
  static void trmm_tile(int m, T alpha, const T* ap, bool lower, int i0, T* b,
                        int ldb) {
    const std::ptrdiff_t mp = (m + MR - 1) / MR * MR;
    const int d1 = std::min(i0 + MR, m);  // end of the diagonal block
    // Column offsets from B's row k, as in gemm_micro: one pointer per
    // k instead of one per column.
    std::ptrdiff_t off[NC];
    PQR_UNROLL_TILE
    for (int j = 0; j < NC; ++j) off[j] = static_cast<std::ptrdiff_t>(j) * ldb;
    reg acc[NC][AR];
    PQR_UNROLL_TILE
    for (int j = 0; j < NC; ++j) {
      PQR_UNROLL_TILE
      for (int r = 0; r < AR; ++r) acc[j][r] = VT::zero();
    }
    // Columns of op(A) every row of the tile is coupled to.
    const int k0 = lower ? 0 : d1;
    const int k1 = lower ? i0 : m;
    for (int k = k0; k < k1; ++k) {
      const T* ak = ap + k * mp + i0;
      reg a[AR];
      PQR_UNROLL_TILE
      for (int r = 0; r < AR; ++r) a[r] = VT::loadu(ak + r * W);
      PQR_UNROLL_TILE
      for (int j = 0; j < NC; ++j) {
        const reg bv = VT::set1(b[k + off[j]]);
        PQR_UNROLL_TILE
        for (int r = 0; r < AR; ++r) acc[j][r] = VT::fma(a[r], bv, acc[j][r]);
      }
    }
    // Diagonal block. Its column c = rc * W + cw meets the diagonal in
    // register rc, lane cw: that register couples lanes [0, cw] (upper) or
    // [cw, W) (lower); the registers on the triangle's side of it are
    // fully coupled and the others not at all.
    PQR_UNROLL_TILE
    for (int rc = 0; rc < AR; ++rc) {
      for (int cw = 0; cw < W && i0 + rc * W + cw < d1; ++cw) {
        const int k = i0 + rc * W + cw;
        const T* ak = ap + k * mp + i0;
        reg bv[NC];
        PQR_UNROLL_TILE
        for (int j = 0; j < NC; ++j) bv[j] = VT::set1(b[k + off[j]]);
        PQR_UNROLL_TILE
        for (int r = 0; r < AR; ++r) {
          if (r == rc) {
            const reg a = VT::loadu(ak + r * W);
            const int lo = lower ? cw : 0;
            const int hi = lower ? W : cw + 1;
            PQR_UNROLL_TILE
            for (int j = 0; j < NC; ++j) {
              acc[j][r] = VT::fma_lanes(a, bv[j], acc[j][r], lo, hi);
            }
          } else if ((r < rc) != lower) {
            const reg a = VT::loadu(ak + r * W);
            PQR_UNROLL_TILE
            for (int j = 0; j < NC; ++j) {
              acc[j][r] = VT::fma(a, bv[j], acc[j][r]);
            }
          }
        }
      }
    }
    if (d1 - i0 == MR && alpha == T(1)) {
      PQR_UNROLL_TILE
      for (int j = 0; j < NC; ++j) {
        T* cj = b + static_cast<std::ptrdiff_t>(j) * ldb + i0;
        PQR_UNROLL_TILE
        for (int r = 0; r < AR; ++r) VT::storeu(cj + r * W, acc[j][r]);
      }
    } else {
      alignas(64) T tmp[NC][MR];
      PQR_UNROLL_TILE
      for (int j = 0; j < NC; ++j) {
        PQR_UNROLL_TILE
        for (int r = 0; r < AR; ++r) VT::storeu(&tmp[j][r * W], acc[j][r]);
      }
      PQR_UNROLL_TILE
      for (int j = 0; j < NC; ++j) {
        T* cj = b + static_cast<std::ptrdiff_t>(j) * ldb + i0;
        for (int i = 0; i < d1 - i0; ++i) cj[i] = alpha * tmp[j][i];
      }
    }
  }

  // y += a * x, 4-vector unrolled.
  static void axpy(int n, T a, const T* x, T* y) {
    int i = 0;
    const reg va = VT::set1(a);
    for (; i + 4 * W <= n; i += 4 * W) {
      for (int u = 0; u < 4; ++u) {
        VT::storeu(y + i + u * W, VT::fma(va, VT::loadu(x + i + u * W),
                                          VT::loadu(y + i + u * W)));
      }
    }
    for (; i + W <= n; i += W) {
      VT::storeu(y + i, VT::fma(va, VT::loadu(x + i), VT::loadu(y + i)));
    }
    for (; i < n; ++i) y[i] += a * x[i];
  }

  // dot(x, y) with 4 independent accumulators.
  static T dot(int n, const T* x, const T* y) {
    reg a0 = VT::zero(), a1 = VT::zero(), a2 = VT::zero(), a3 = VT::zero();
    int i = 0;
    for (; i + 4 * W <= n; i += 4 * W) {
      a0 = VT::fma(VT::loadu(x + i), VT::loadu(y + i), a0);
      a1 = VT::fma(VT::loadu(x + i + W), VT::loadu(y + i + W), a1);
      a2 = VT::fma(VT::loadu(x + i + 2 * W), VT::loadu(y + i + 2 * W), a2);
      a3 = VT::fma(VT::loadu(x + i + 3 * W), VT::loadu(y + i + 3 * W), a3);
    }
    reg a = VT::add(VT::add(a0, a1), VT::add(a2, a3));
    for (; i + W <= n; i += W) {
      a = VT::fma(VT::loadu(x + i), VT::loadu(y + i), a);
    }
    T s = VT::hsum(a);
    for (; i < n; ++i) s += x[i] * y[i];
    return s;
  }

  // out[j * inc_out] += alpha * dot(x, Y.col(j)): one pass of x feeds four
  // columns.
  static void dot_cols(int n, T alpha, const T* x, const T* y, int ldy,
                       int ncols, T* out, int inc_out) {
    int j = 0;
    for (; j + 4 <= ncols; j += 4) {
      const T* y0 = y + static_cast<std::ptrdiff_t>(j) * ldy;
      const T* y1 = y0 + ldy;
      const T* y2 = y1 + ldy;
      const T* y3 = y2 + ldy;
      reg a0 = VT::zero(), a1 = VT::zero(), a2 = VT::zero(), a3 = VT::zero();
      int i = 0;
      for (; i + W <= n; i += W) {
        const reg xv = VT::loadu(x + i);
        a0 = VT::fma(xv, VT::loadu(y0 + i), a0);
        a1 = VT::fma(xv, VT::loadu(y1 + i), a1);
        a2 = VT::fma(xv, VT::loadu(y2 + i), a2);
        a3 = VT::fma(xv, VT::loadu(y3 + i), a3);
      }
      T s0 = VT::hsum(a0), s1 = VT::hsum(a1), s2 = VT::hsum(a2),
        s3 = VT::hsum(a3);
      for (; i < n; ++i) {
        const T xi = x[i];
        s0 += xi * y0[i];
        s1 += xi * y1[i];
        s2 += xi * y2[i];
        s3 += xi * y3[i];
      }
      out[static_cast<std::ptrdiff_t>(j) * inc_out] += alpha * s0;
      out[static_cast<std::ptrdiff_t>(j + 1) * inc_out] += alpha * s1;
      out[static_cast<std::ptrdiff_t>(j + 2) * inc_out] += alpha * s2;
      out[static_cast<std::ptrdiff_t>(j + 3) * inc_out] += alpha * s3;
    }
    for (; j < ncols; ++j) {
      out[static_cast<std::ptrdiff_t>(j) * inc_out] +=
          alpha * dot(n, x, y + static_cast<std::ptrdiff_t>(j) * ldy);
    }
  }

  // Y.col(j) += alpha * coeff[j * inc_c] * x: x is loaded once per block
  // of four destination columns.
  static void ger_cols(int n, T alpha, const T* x, const T* coeff, int inc_c,
                       T* y, int ldy, int ncols) {
    int j = 0;
    for (; j + 4 <= ncols; j += 4) {
      const T t0 = alpha * coeff[static_cast<std::ptrdiff_t>(j) * inc_c];
      const T t1 = alpha * coeff[static_cast<std::ptrdiff_t>(j + 1) * inc_c];
      const T t2 = alpha * coeff[static_cast<std::ptrdiff_t>(j + 2) * inc_c];
      const T t3 = alpha * coeff[static_cast<std::ptrdiff_t>(j + 3) * inc_c];
      T* y0 = y + static_cast<std::ptrdiff_t>(j) * ldy;
      T* y1 = y0 + ldy;
      T* y2 = y1 + ldy;
      T* y3 = y2 + ldy;
      const reg v0 = VT::set1(t0), v1 = VT::set1(t1), v2 = VT::set1(t2),
                v3 = VT::set1(t3);
      int i = 0;
      for (; i + W <= n; i += W) {
        const reg xv = VT::loadu(x + i);
        VT::storeu(y0 + i, VT::fma(v0, xv, VT::loadu(y0 + i)));
        VT::storeu(y1 + i, VT::fma(v1, xv, VT::loadu(y1 + i)));
        VT::storeu(y2 + i, VT::fma(v2, xv, VT::loadu(y2 + i)));
        VT::storeu(y3 + i, VT::fma(v3, xv, VT::loadu(y3 + i)));
      }
      for (; i < n; ++i) {
        const T xi = x[i];
        y0[i] += t0 * xi;
        y1[i] += t1 * xi;
        y2[i] += t2 * xi;
        y3[i] += t3 * xi;
      }
    }
    for (; j < ncols; ++j) {
      axpy(n, alpha * coeff[static_cast<std::ptrdiff_t>(j) * inc_c], x,
           y + static_cast<std::ptrdiff_t>(j) * ldy);
    }
  }

  // y += alpha * sum_j coeff[j * inc_c] * X.col(j): each y vector is
  // loaded and stored once per block of four source columns.
  static void axpy_cols(int n, T alpha, const T* coeff, int inc_c, const T* x,
                        int ldx, int ncols, T* y) {
    int j = 0;
    for (; j + 4 <= ncols; j += 4) {
      const T t0 = alpha * coeff[static_cast<std::ptrdiff_t>(j) * inc_c];
      const T t1 = alpha * coeff[static_cast<std::ptrdiff_t>(j + 1) * inc_c];
      const T t2 = alpha * coeff[static_cast<std::ptrdiff_t>(j + 2) * inc_c];
      const T t3 = alpha * coeff[static_cast<std::ptrdiff_t>(j + 3) * inc_c];
      const T* x0 = x + static_cast<std::ptrdiff_t>(j) * ldx;
      const T* x1 = x0 + ldx;
      const T* x2 = x1 + ldx;
      const T* x3 = x2 + ldx;
      const reg v0 = VT::set1(t0), v1 = VT::set1(t1), v2 = VT::set1(t2),
                v3 = VT::set1(t3);
      int i = 0;
      for (; i + W <= n; i += W) {
        reg yv = VT::loadu(y + i);
        yv = VT::fma(v0, VT::loadu(x0 + i), yv);
        yv = VT::fma(v1, VT::loadu(x1 + i), yv);
        yv = VT::fma(v2, VT::loadu(x2 + i), yv);
        yv = VT::fma(v3, VT::loadu(x3 + i), yv);
        VT::storeu(y + i, yv);
      }
      for (; i < n; ++i) {
        y[i] += t0 * x0[i] + t1 * x1[i] + t2 * x2[i] + t3 * x3[i];
      }
    }
    for (; j < ncols; ++j) {
      axpy(n, alpha * coeff[static_cast<std::ptrdiff_t>(j) * inc_c],
           x + static_cast<std::ptrdiff_t>(j) * ldx, y);
    }
  }

  // Fused small-panel Householder apply: C := (I - tau * v * v^T) C with
  // v(0) = 1 implicit. Per block of four columns the dot pass (w_j =
  // c_j(0) + dot(v[1:], c_j[1:])) and the update pass (c_j(0) -= tau*w_j;
  // c_j[1:] -= tau*w_j * v[1:]) run back-to-back, so v and the column
  // block stay cache-hot and no work vector is needed — this is the
  // geqr2 inner loop of the batched small-matrix QR path.
  static void larf(int m, int n, T tau, const T* v, T* c, int ldc) {
    if (tau == T(0) || m <= 0) return;
    const int len = m - 1;  // rows below the implicit leading 1
    const T* vt = v + 1;
    int j = 0;
    for (; j + 4 <= n; j += 4) {
      T* c0 = c + static_cast<std::ptrdiff_t>(j) * ldc;
      T* c1 = c0 + ldc;
      T* c2 = c1 + ldc;
      T* c3 = c2 + ldc;
      reg a0 = VT::zero(), a1 = VT::zero(), a2 = VT::zero(), a3 = VT::zero();
      int i = 0;
      for (; i + W <= len; i += W) {
        const reg xv = VT::loadu(vt + i);
        a0 = VT::fma(xv, VT::loadu(c0 + 1 + i), a0);
        a1 = VT::fma(xv, VT::loadu(c1 + 1 + i), a1);
        a2 = VT::fma(xv, VT::loadu(c2 + 1 + i), a2);
        a3 = VT::fma(xv, VT::loadu(c3 + 1 + i), a3);
      }
      T s0 = c0[0] + VT::hsum(a0), s1 = c1[0] + VT::hsum(a1),
        s2 = c2[0] + VT::hsum(a2), s3 = c3[0] + VT::hsum(a3);
      for (; i < len; ++i) {
        const T vi = vt[i];
        s0 += vi * c0[1 + i];
        s1 += vi * c1[1 + i];
        s2 += vi * c2[1 + i];
        s3 += vi * c3[1 + i];
      }
      const T t0 = tau * s0, t1 = tau * s1, t2 = tau * s2, t3 = tau * s3;
      c0[0] -= t0;
      c1[0] -= t1;
      c2[0] -= t2;
      c3[0] -= t3;
      const reg w0 = VT::set1(-t0), w1 = VT::set1(-t1), w2 = VT::set1(-t2),
                w3 = VT::set1(-t3);
      i = 0;
      for (; i + W <= len; i += W) {
        const reg xv = VT::loadu(vt + i);
        VT::storeu(c0 + 1 + i, VT::fma(w0, xv, VT::loadu(c0 + 1 + i)));
        VT::storeu(c1 + 1 + i, VT::fma(w1, xv, VT::loadu(c1 + 1 + i)));
        VT::storeu(c2 + 1 + i, VT::fma(w2, xv, VT::loadu(c2 + 1 + i)));
        VT::storeu(c3 + 1 + i, VT::fma(w3, xv, VT::loadu(c3 + 1 + i)));
      }
      for (; i < len; ++i) {
        const T vi = vt[i];
        c0[1 + i] -= t0 * vi;
        c1[1 + i] -= t1 * vi;
        c2[1 + i] -= t2 * vi;
        c3[1 + i] -= t3 * vi;
      }
    }
    for (; j < n; ++j) {
      T* cj = c + static_cast<std::ptrdiff_t>(j) * ldc;
      const T t = tau * (cj[0] + dot(len, vt, cj + 1));
      cj[0] -= t;
      axpy(len, -t, vt, cj + 1);
    }
  }

  static KernelTable<T> table() {
    KernelTable<T> t;
    t.mr = MR;
    t.nr = NRK;
    t.gemm_micro = &gemm_micro;
    t.trmm = &trmm;
    t.axpy = &axpy;
    t.dot = &dot;
    t.dot_cols = &dot_cols;
    t.ger_cols = &ger_cols;
    t.axpy_cols = &axpy_cols;
    t.larf = &larf;
    return t;
  }
};

}  // namespace pulsarqr::blas::simd
