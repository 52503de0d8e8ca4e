#include "blas/blas.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>

#include "blas/simd.hpp"

namespace pulsarqr::blas {

// ---- Level 1 -------------------------------------------------------------
//
// axpy and dot are the innermost loops of every panel factorization; they
// route through the runtime-dispatched SIMD kernel table (an atomic pointer
// load — the table itself is immutable once published).

void axpy(int n, double a, const double* x, double* y) {
  simd::kernels<double>().axpy(n, a, x, y);
}

void axpy(int n, float a, const float* x, float* y) {
  simd::kernels<float>().axpy(n, a, x, y);
}

double dot(int n, const double* x, const double* y) {
  return simd::kernels<double>().dot(n, x, y);
}

float dot(int n, const float* x, const float* y) {
  return simd::kernels<float>().dot(n, x, y);
}

namespace {

template <class T>
void scal_t(int n, T a, T* x) {
  for (int i = 0; i < n; ++i) x[i] *= a;
}

template <class T>
T nrm2_t(int n, const T* x) {
  // Fast path: one SIMD sum of squares. Kept when it is finite (no square
  // or partial sum overflowed, no NaN/Inf in x) and at least min/eps: then
  // even if every square that fell below min had been flushed to zero, the
  // n absolute errors of at most min each add up to at most n*eps of the
  // sum, inside the rounding bound of the sum itself.
  const T ssq_fast = simd::kernels<T>().dot(n, x, x);
  if (std::isfinite(ssq_fast) &&
      ssq_fast >= std::numeric_limits<T>::min() /
                      std::numeric_limits<T>::epsilon()) {
    return std::sqrt(ssq_fast);
  }
  // Fallback (NaN, Inf, zero, overflowing or near-underflow input): the
  // scaled sum of squares of LAPACK dlassq.
  T scale = T(0);
  T ssq = T(1);
  for (int i = 0; i < n; ++i) {
    const T ax = std::fabs(x[i]);
    if (ax == T(0)) continue;
    if (scale < ax) {
      const T r = scale / ax;
      ssq = T(1) + ssq * r * r;
      scale = ax;
    } else {
      const T r = ax / scale;
      ssq += r * r;
    }
  }
  return scale * std::sqrt(ssq);
}

}  // namespace

void scal(int n, double a, double* x) { scal_t(n, a, x); }
void scal(int n, float a, float* x) { scal_t(n, a, x); }

double nrm2(int n, const double* x) { return nrm2_t(n, x); }
float nrm2(int n, const float* x) { return nrm2_t(n, x); }

// std::copy_n lowers to memmove: the element loop compiled to one scalar
// load/store pair per element, and lacpy (the W and trmm operand copies of
// every block reflector apply) runs through here.
void copy(int n, const double* x, double* y) {
  if (n > 0) std::copy_n(x, n, y);
}

void copy(int n, const float* x, float* y) {
  if (n > 0) std::copy_n(x, n, y);
}

// ---- Level 2 -------------------------------------------------------------

namespace {

template <class T>
void gemv_t(Trans trans, T alpha, ConstMatrixViewT<T> a, const T* x, T beta,
            T* y) {
  const int m = a.rows;
  const int n = a.cols;
  const auto& kt = simd::kernels<T>();
  if (trans == Trans::No) {
    if (beta != T(1)) scal(m, beta, y);
    if (alpha == T(0) || n == 0 || m == 0) return;
    // y += alpha * sum_j x[j] * A(:, j), four columns fused per sweep.
    kt.axpy_cols(m, alpha, x, 1, a.data, a.ld, n, y);
  } else {
    if (beta != T(1)) scal(n, beta, y);
    if (alpha == T(0) || m == 0 || n == 0) return;
    // y[j] += alpha * dot(A(:, j), x), four columns per pass of x.
    kt.dot_cols(m, alpha, x, a.data, a.ld, n, y, 1);
  }
}

template <class T>
void ger_t(T alpha, const T* x, const T* y, MatrixViewT<T> a) {
  if (alpha == T(0) || a.rows == 0 || a.cols == 0) return;
  simd::kernels<T>().ger_cols(a.rows, alpha, x, y, 1, a.data, a.ld, a.cols);
}

template <class T>
void trmv_t(Uplo uplo, Trans trans, Diag diag, ConstMatrixViewT<T> a, T* x) {
  const int n = a.rows;
  PQR_ASSERT(a.cols == n, "trmv: A must be square");
  const bool unit = diag == Diag::Unit;
  if (trans == Trans::No) {
    // Column sweeps over contiguous columns, four fused per pass (a row
    // sweep would read A with stride ld). A block of columns adds them,
    // times the unscaled x entries they scale, into the rows outside the
    // block; its diagonal triangle then forms the block's new x entries
    // from the same saved values. Upper runs the blocks left to right and
    // Lower right to left, so every x entry a block reads is unscaled.
    if (uplo == Uplo::Upper) {
      int j = 0;
      for (; j + 4 <= n; j += 4) {
        const T x0 = x[j], x1 = x[j + 1], x2 = x[j + 2], x3 = x[j + 3];
        const T* a0 = a.col(j);
        const T* a1 = a.col(j + 1);
        const T* a2 = a.col(j + 2);
        const T* a3 = a.col(j + 3);
        for (int i = 0; i < j; ++i) {
          x[i] += x0 * a0[i] + x1 * a1[i] + x2 * a2[i] + x3 * a3[i];
        }
        x[j] = (unit ? x0 : a0[j] * x0) + a1[j] * x1 + a2[j] * x2 +
               a3[j] * x3;
        x[j + 1] = (unit ? x1 : a1[j + 1] * x1) + a2[j + 1] * x2 +
                   a3[j + 1] * x3;
        x[j + 2] = (unit ? x2 : a2[j + 2] * x2) + a3[j + 2] * x3;
        x[j + 3] = unit ? x3 : a3[j + 3] * x3;
      }
      for (; j < n; ++j) {
        const T xj = x[j];
        const T* aj = a.col(j);
        for (int i = 0; i < j; ++i) x[i] += xj * aj[i];
        if (!unit) x[j] = aj[j] * xj;
      }
    } else {
      int j = n;  // columns [j, n) are done
      for (; j >= 4; j -= 4) {
        const int b = j - 4;
        const T x0 = x[b], x1 = x[b + 1], x2 = x[b + 2], x3 = x[b + 3];
        const T* a0 = a.col(b);
        const T* a1 = a.col(b + 1);
        const T* a2 = a.col(b + 2);
        const T* a3 = a.col(b + 3);
        for (int i = j; i < n; ++i) {
          x[i] += x0 * a0[i] + x1 * a1[i] + x2 * a2[i] + x3 * a3[i];
        }
        x[b + 3] = (unit ? x3 : a3[b + 3] * x3) + a0[b + 3] * x0 +
                   a1[b + 3] * x1 + a2[b + 3] * x2;
        x[b + 2] = (unit ? x2 : a2[b + 2] * x2) + a0[b + 2] * x0 +
                   a1[b + 2] * x1;
        x[b + 1] = (unit ? x1 : a1[b + 1] * x1) + a0[b + 1] * x0;
        x[b] = unit ? x0 : a0[b] * x0;
      }
      for (--j; j >= 0; --j) {
        const T xj = x[j];
        const T* aj = a.col(j);
        for (int i = j + 1; i < n; ++i) x[i] += xj * aj[i];
        if (!unit) x[j] = aj[j] * xj;
      }
    }
  } else {
    if (uplo == Uplo::Upper) {
      for (int j = n - 1; j >= 0; --j) {
        T s = unit ? x[j] : a(j, j) * x[j];
        for (int i = 0; i < j; ++i) s += a(i, j) * x[i];
        x[j] = s;
      }
    } else {
      for (int j = 0; j < n; ++j) {
        T s = unit ? x[j] : a(j, j) * x[j];
        for (int i = j + 1; i < n; ++i) s += a(i, j) * x[i];
        x[j] = s;
      }
    }
  }
}

}  // namespace

void gemv(Trans trans, double alpha, ConstMatrixView a, const double* x,
          double beta, double* y) {
  gemv_t(trans, alpha, a, x, beta, y);
}

void gemv(Trans trans, float alpha, ConstMatrixViewF a, const float* x,
          float beta, float* y) {
  gemv_t(trans, alpha, a, x, beta, y);
}

void ger(double alpha, const double* x, const double* y, MatrixView a) {
  ger_t(alpha, x, y, a);
}

void ger(float alpha, const float* x, const float* y, MatrixViewF a) {
  ger_t(alpha, x, y, a);
}

void trmv(Uplo uplo, Trans trans, Diag diag, ConstMatrixView a, double* x) {
  trmv_t(uplo, trans, diag, a, x);
}

void trmv(Uplo uplo, Trans trans, Diag diag, ConstMatrixViewF a, float* x) {
  trmv_t(uplo, trans, diag, a, x);
}

void trsv(Uplo uplo, Trans trans, Diag diag, ConstMatrixView a, double* x) {
  const int n = a.rows;
  PQR_ASSERT(a.cols == n, "trsv: A must be square");
  const bool unit = diag == Diag::Unit;
  if (trans == Trans::No) {
    if (uplo == Uplo::Upper) {
      for (int i = n - 1; i >= 0; --i) {
        double s = x[i];
        for (int j = i + 1; j < n; ++j) s -= a(i, j) * x[j];
        x[i] = unit ? s : s / a(i, i);
      }
    } else {
      for (int i = 0; i < n; ++i) {
        double s = x[i];
        for (int j = 0; j < i; ++j) s -= a(i, j) * x[j];
        x[i] = unit ? s : s / a(i, i);
      }
    }
  } else {
    if (uplo == Uplo::Upper) {
      for (int i = 0; i < n; ++i) {
        double s = x[i];
        for (int j = 0; j < i; ++j) s -= a(j, i) * x[j];
        x[i] = unit ? s : s / a(i, i);
      }
    } else {
      for (int i = n - 1; i >= 0; --i) {
        double s = x[i];
        for (int j = i + 1; j < n; ++j) s -= a(j, i) * x[j];
        x[i] = unit ? s : s / a(i, i);
      }
    }
  }
}

// ---- Level 3 -------------------------------------------------------------

namespace {

// C := C + alpha * A * B. The inner kernels are 4-way unrolled over k so
// each sweep of a C column touches it once per four A columns — the
// no-dependency accumulator form the compiler can vectorize. These stay
// plain loops on purpose: gemm_ref is the scalar reference the SIMD
// kernels are fuzz-checked against.
template <class T>
void gemm_nn(T alpha, ConstMatrixViewT<T> a, ConstMatrixViewT<T> b,
             MatrixViewT<T> c) {
  const int m = c.rows;
  const int kk = a.cols;
  for (int j = 0; j < c.cols; ++j) {
    T* cj = c.col(j);
    int k = 0;
    for (; k + 4 <= kk; k += 4) {
      const T t0 = alpha * b(k, j);
      const T t1 = alpha * b(k + 1, j);
      const T t2 = alpha * b(k + 2, j);
      const T t3 = alpha * b(k + 3, j);
      const T* a0 = a.col(k);
      const T* a1 = a.col(k + 1);
      const T* a2 = a.col(k + 2);
      const T* a3 = a.col(k + 3);
      for (int i = 0; i < m; ++i) {
        cj[i] += t0 * a0[i] + t1 * a1[i] + t2 * a2[i] + t3 * a3[i];
      }
    }
    for (; k < kk; ++k) {
      const T t = alpha * b(k, j);
      if (t == T(0)) continue;
      const T* ak = a.col(k);
      for (int i = 0; i < m; ++i) cj[i] += t * ak[i];
    }
  }
}

template <class T>
void gemm_tn(T alpha, ConstMatrixViewT<T> a, ConstMatrixViewT<T> b,
             MatrixViewT<T> c) {
  // C(i,j) += alpha * dot(A(:,i), B(:,j)); four rows of C share one pass
  // over B's column.
  const int kk = a.rows;
  for (int j = 0; j < c.cols; ++j) {
    const T* bj = b.col(j);
    int i = 0;
    for (; i + 4 <= c.rows; i += 4) {
      const T* a0 = a.col(i);
      const T* a1 = a.col(i + 1);
      const T* a2 = a.col(i + 2);
      const T* a3 = a.col(i + 3);
      T s0 = T(0), s1 = T(0), s2 = T(0), s3 = T(0);
      for (int p = 0; p < kk; ++p) {
        const T bp = bj[p];
        s0 += a0[p] * bp;
        s1 += a1[p] * bp;
        s2 += a2[p] * bp;
        s3 += a3[p] * bp;
      }
      c(i, j) += alpha * s0;
      c(i + 1, j) += alpha * s1;
      c(i + 2, j) += alpha * s2;
      c(i + 3, j) += alpha * s3;
    }
    for (; i < c.rows; ++i) {
      T s = T(0);
      for (int p = 0; p < kk; ++p) s += a(p, i) * bj[p];
      c(i, j) += alpha * s;
    }
  }
}

template <class T>
void gemm_nt(T alpha, ConstMatrixViewT<T> a, ConstMatrixViewT<T> b,
             MatrixViewT<T> c) {
  const int m = c.rows;
  const int kk = a.cols;
  for (int j = 0; j < c.cols; ++j) {
    T* cj = c.col(j);
    int k = 0;
    for (; k + 4 <= kk; k += 4) {
      const T t0 = alpha * b(j, k);
      const T t1 = alpha * b(j, k + 1);
      const T t2 = alpha * b(j, k + 2);
      const T t3 = alpha * b(j, k + 3);
      const T* a0 = a.col(k);
      const T* a1 = a.col(k + 1);
      const T* a2 = a.col(k + 2);
      const T* a3 = a.col(k + 3);
      for (int i = 0; i < m; ++i) {
        cj[i] += t0 * a0[i] + t1 * a1[i] + t2 * a2[i] + t3 * a3[i];
      }
    }
    for (; k < kk; ++k) {
      const T t = alpha * b(j, k);
      if (t == T(0)) continue;
      const T* ak = a.col(k);
      for (int i = 0; i < m; ++i) cj[i] += t * ak[i];
    }
  }
}

template <class T>
void gemm_tt(T alpha, ConstMatrixViewT<T> a, ConstMatrixViewT<T> b,
             MatrixViewT<T> c) {
  // C(i,j) += alpha * dot(A(:,i), B(j,:)); like gemm_tn, four rows of C
  // share one (strided) pass over B's row j, with independent accumulators.
  const int kk = a.rows;
  for (int j = 0; j < c.cols; ++j) {
    int i = 0;
    for (; i + 4 <= c.rows; i += 4) {
      const T* a0 = a.col(i);
      const T* a1 = a.col(i + 1);
      const T* a2 = a.col(i + 2);
      const T* a3 = a.col(i + 3);
      T s0 = T(0), s1 = T(0), s2 = T(0), s3 = T(0);
      for (int p = 0; p < kk; ++p) {
        const T bp = b(j, p);
        s0 += a0[p] * bp;
        s1 += a1[p] * bp;
        s2 += a2[p] * bp;
        s3 += a3[p] * bp;
      }
      c(i, j) += alpha * s0;
      c(i + 1, j) += alpha * s1;
      c(i + 2, j) += alpha * s2;
      c(i + 3, j) += alpha * s3;
    }
    for (; i < c.rows; ++i) {
      T s = T(0);
      for (int p = 0; p < kk; ++p) s += a(p, i) * b(j, p);
      c(i, j) += alpha * s;
    }
  }
}

template <class T>
void laset_all_t(T off, T diag, MatrixViewT<T> a) {
  for (int j = 0; j < a.cols; ++j) {
    T* cj = a.col(j);
    for (int i = 0; i < a.rows; ++i) cj[i] = off;
    if (j < a.rows) cj[j] = diag;
  }
}

template <class T>
void gemm_ref_t(Trans ta, Trans tb, T alpha, ConstMatrixViewT<T> a,
                ConstMatrixViewT<T> b, T beta, MatrixViewT<T> c) {
  const int ka = (ta == Trans::No) ? a.cols : a.rows;
  const int kb = (tb == Trans::No) ? b.rows : b.cols;
  const int ma = (ta == Trans::No) ? a.rows : a.cols;
  const int nb_ = (tb == Trans::No) ? b.cols : b.rows;
  PQR_ASSERT(ka == kb && ma == c.rows && nb_ == c.cols, "gemm: shape mismatch");
  if (beta == T(0)) {
    laset_all_t(T(0), T(0), c);
  } else if (beta != T(1)) {
    for (int j = 0; j < c.cols; ++j) scal(c.rows, beta, c.col(j));
  }
  if (alpha == T(0) || ka == 0) return;
  if (ta == Trans::No && tb == Trans::No) {
    gemm_nn(alpha, a, b, c);
  } else if (ta == Trans::Yes && tb == Trans::No) {
    gemm_tn(alpha, a, b, c);
  } else if (ta == Trans::No && tb == Trans::Yes) {
    gemm_nt(alpha, a, b, c);
  } else {
    gemm_tt(alpha, a, b, c);
  }
}

// Crossover between the direct small path and the packed loop nest,
// derived from the active table's register tile: packing op(A) plus the
// tile setup and edge writebacks start paying for themselves once the
// product covers roughly 64 micro-tile volumes. For the AVX-512 f64 tile
// (16x8) that is 8192; smaller tiles (scalar 8x4) amortize
// sooner and get a lower threshold instead of inheriting a constant tuned
// on the widest ISA.
template <class T>
long long gemm_small_max_work_t() {
  const simd::KernelTable<T>& kt = simd::kernels<T>();
  return 64LL * kt.mr * kt.nr;
}

// Direct small-shape gemm: every column of C is produced by one fused
// table sweep over the operands in place — no packing, and (unlike the
// packed path) no thread_local pack-buffer touch, so a tiny product never
// faults in the MC*KC panel pages. TT is the one combination with
// no contiguous fused sweep (both operands would be row-strided); it is
// rare in the QR kernels and falls back to the reference sweep.
template <class T>
void gemm_small_t(Trans ta, Trans tb, T alpha, ConstMatrixViewT<T> a,
                  ConstMatrixViewT<T> b, T beta, MatrixViewT<T> c) {
  const int m = c.rows;
  const int n = c.cols;
  const int k = (ta == Trans::No) ? a.cols : a.rows;
  {
    const int kb = (tb == Trans::No) ? b.rows : b.cols;
    const int ma = (ta == Trans::No) ? a.rows : a.cols;
    const int nb_ = (tb == Trans::No) ? b.cols : b.rows;
    PQR_ASSERT(k == kb && ma == m && nb_ == n, "gemm: shape mismatch");
  }
  if (beta == T(0)) {
    laset_all_t(T(0), T(0), c);
  } else if (beta != T(1)) {
    for (int j = 0; j < c.cols; ++j) scal(c.rows, beta, c.col(j));
  }
  if (alpha == T(0) || k == 0 || m == 0 || n == 0) return;
  const simd::KernelTable<T>& kt = simd::kernels<T>();
  if (ta == Trans::No && tb == Trans::No) {
    // C.col(j) += alpha * sum_p B(p,j) * A.col(p)
    for (int j = 0; j < n; ++j) {
      kt.axpy_cols(m, alpha, b.col(j), 1, a.data, a.ld, k, c.col(j));
    }
  } else if (ta == Trans::Yes && tb == Trans::No) {
    // C(i,j) += alpha * dot(A.col(i), B.col(j))
    for (int j = 0; j < n; ++j) {
      kt.dot_cols(k, alpha, b.col(j), a.data, a.ld, m, c.col(j), 1);
    }
  } else if (ta == Trans::No && tb == Trans::Yes) {
    // C.col(j) += alpha * sum_p B(j,p) * A.col(p): B's row j is the
    // coefficient vector, strided by its leading dimension.
    for (int j = 0; j < n; ++j) {
      kt.axpy_cols(m, alpha, b.data + j, b.ld, a.data, a.ld, k, c.col(j));
    }
  } else {
    gemm_tt(alpha, a, b, c);
  }
}

template <class T>
void gemm_t(Trans ta, Trans tb, T alpha, ConstMatrixViewT<T> a,
            ConstMatrixViewT<T> b, T beta, MatrixViewT<T> c) {
  const int k = (ta == Trans::No) ? a.cols : a.rows;
  // Tiny products cannot amortize the packing sweep; they go to the
  // direct small tier instead (still through the SIMD tables, but with
  // the operands read in place).
  const long long work = static_cast<long long>(c.rows) * c.cols * k;
  if (work > gemm_small_max_work_t<T>()) {
    gemm_packed(ta, tb, alpha, a, b, beta, c);
  } else {
    gemm_small_t(ta, tb, alpha, a, b, beta, c);
  }
}

}  // namespace

void gemm_ref(Trans ta, Trans tb, double alpha, ConstMatrixView a,
              ConstMatrixView b, double beta, MatrixView c) {
  gemm_ref_t(ta, tb, alpha, a, b, beta, c);
}

void gemm_ref(Trans ta, Trans tb, float alpha, ConstMatrixViewF a,
              ConstMatrixViewF b, float beta, MatrixViewF c) {
  gemm_ref_t(ta, tb, alpha, a, b, beta, c);
}

void gemm_small(Trans ta, Trans tb, double alpha, ConstMatrixView a,
                ConstMatrixView b, double beta, MatrixView c) {
  gemm_small_t(ta, tb, alpha, a, b, beta, c);
}

void gemm_small(Trans ta, Trans tb, float alpha, ConstMatrixViewF a,
                ConstMatrixViewF b, float beta, MatrixViewF c) {
  gemm_small_t(ta, tb, alpha, a, b, beta, c);
}

long long gemm_small_max_work_f64() { return gemm_small_max_work_t<double>(); }

long long gemm_small_max_work_f32() { return gemm_small_max_work_t<float>(); }

void gemm(Trans ta, Trans tb, double alpha, ConstMatrixView a,
          ConstMatrixView b, double beta, MatrixView c) {
  gemm_t(ta, tb, alpha, a, b, beta, c);
}

void gemm(Trans ta, Trans tb, float alpha, ConstMatrixViewF a,
          ConstMatrixViewF b, float beta, MatrixViewF c) {
  gemm_t(ta, tb, alpha, a, b, beta, c);
}

namespace {

// Largest triangle trmm packs whole: op(A) with its rows padded to mr
// fills at most kTrmmPackDim^2 elements (32 KiB of doubles on the stack);
// every table's mr divides kTrmmPackDim.
constexpr int kTrmmPackDim = 64;

// B := alpha * op(A) * B for an op(A) small enough to pack: op(A) is
// copied column-major into a stack buffer with its rows padded to the
// table's mr, and the table's register-tiled kernel multiplies in place.
// Only op(A)'s triangle is read from A; under Diag::Unit the diagonal is
// packed as 1 instead. The other slots are zeroed only so no register
// ever loads indeterminate memory: the kernel keeps them out of every sum.
template <class T>
void trmm_left_packed(bool lower, Trans trans, Diag diag, T alpha,
                      ConstMatrixViewT<T> a, MatrixViewT<T> b) {
  const simd::KernelTable<T>& kt = simd::kernels<T>();
  const int m = b.rows;
  const int mp = (m + kt.mr - 1) / kt.mr * kt.mr;
  PQR_ASSERT(mp <= kTrmmPackDim, "trmm: triangle exceeds the pack buffer");
  alignas(64) T ap[kTrmmPackDim * kTrmmPackDim];
  for (int k = 0; k < m; ++k) {
    T* col = ap + static_cast<std::ptrdiff_t>(k) * mp;
    const int lo = lower ? k : 0;
    const int hi = lower ? m : k + 1;
    std::fill(col, col + lo, T(0));
    for (int i = lo; i < hi; ++i) {
      col[i] = trans == Trans::No ? a(i, k) : a(k, i);
    }
    std::fill(col + hi, col + mp, T(0));
    if (diag == Diag::Unit) col[k] = T(1);
  }
  kt.trmm(m, b.cols, alpha, ap, lower, b.data, b.ld);
}

// Left trmm for any m: a triangle too large to pack splits into two
// halves plus one gemm for the off-diagonal block, ordered so each step
// still reads the rows of B it needs as input.
template <class T>
void trmm_left(Uplo uplo, Trans trans, Diag diag, T alpha,
               ConstMatrixViewT<T> a, MatrixViewT<T> b) {
  const int m = b.rows;
  const int n = b.cols;
  if (m == 0 || n == 0) return;
  const bool lower = (uplo == Uplo::Lower) == (trans == Trans::No);
  if (m <= kTrmmPackDim) {
    trmm_left_packed(lower, trans, diag, alpha, a, b);
    return;
  }
  const int h = m / 2;
  ConstMatrixViewT<T> a11 = a.block(0, 0, h, h);
  ConstMatrixViewT<T> a22 = a.block(h, h, m - h, m - h);
  MatrixViewT<T> b1 = b.block(0, 0, h, n);
  MatrixViewT<T> b2 = b.block(h, 0, m - h, n);
  // op(A)'s referenced off-diagonal block: rows [0, h) x cols [h, m) when
  // it is upper, rows [h, m) x cols [0, h) when lower, stored transposed
  // in A under Trans::Yes.
  const bool off_top = !lower == (trans == Trans::No);
  ConstMatrixViewT<T> off =
      off_top ? a.block(0, h, h, m - h) : a.block(h, 0, m - h, h);
  if (!lower) {
    // B1 := O11 B1 + O12 B2, then B2 := O22 B2.
    trmm_left(uplo, trans, diag, alpha, a11, b1);
    gemm_t(trans, Trans::No, alpha, off, ConstMatrixViewT<T>(b2), T(1), b1);
    trmm_left(uplo, trans, diag, alpha, a22, b2);
  } else {
    // B2 := O22 B2 + O21 B1, then B1 := O11 B1.
    trmm_left(uplo, trans, diag, alpha, a22, b2);
    gemm_t(trans, Trans::No, alpha, off, ConstMatrixViewT<T>(b1), T(1), b2);
    trmm_left(uplo, trans, diag, alpha, a11, b1);
  }
}

template <class T>
void trmm_t(Side side, Uplo uplo, Trans trans, Diag diag, T alpha,
            ConstMatrixViewT<T> a, MatrixViewT<T> b) {
  if (side == Side::Left) {
    PQR_ASSERT(a.rows == b.rows && a.cols == b.rows, "trmm: shape mismatch");
    trmm_left(uplo, trans, diag, alpha, a, b);
  } else {
    PQR_ASSERT(a.rows == b.cols && a.cols == b.cols, "trmm: shape mismatch");
    // B := alpha * B * op(A). Work row-wise via column combinations:
    // treat each row of B as a vector times op(A) from the right, i.e.
    // B(:,j) := alpha * sum_k B(:,k) * op(A)(k,j). Computed out-of-place
    // one column at a time in the safe traversal order.
    const int n = b.cols;
    const bool upper_effect = (uplo == Uplo::Upper) == (trans == Trans::No);
    if (upper_effect) {
      // op(A) upper: column j depends on columns k <= j, traverse j desc.
      for (int j = n - 1; j >= 0; --j) {
        const T ajj = diag == Diag::Unit ? T(1) : a(j, j);
        scal(b.rows, alpha * ajj, b.col(j));
        for (int k = 0; k < j; ++k) {
          const T t = alpha * (trans == Trans::No ? a(k, j) : a(j, k));
          if (t != T(0)) axpy(b.rows, t, b.col(k), b.col(j));
        }
      }
    } else {
      // op(A) lower: column j depends on columns k >= j, traverse j asc.
      for (int j = 0; j < n; ++j) {
        const T ajj = diag == Diag::Unit ? T(1) : a(j, j);
        scal(b.rows, alpha * ajj, b.col(j));
        for (int k = j + 1; k < n; ++k) {
          const T t = alpha * (trans == Trans::No ? a(k, j) : a(j, k));
          if (t != T(0)) axpy(b.rows, t, b.col(k), b.col(j));
        }
      }
    }
  }
}

}  // namespace

void trmm(Side side, Uplo uplo, Trans trans, Diag diag, double alpha,
          ConstMatrixView a, MatrixView b) {
  trmm_t(side, uplo, trans, diag, alpha, a, b);
}

void trmm(Side side, Uplo uplo, Trans trans, Diag diag, float alpha,
          ConstMatrixViewF a, MatrixViewF b) {
  trmm_t(side, uplo, trans, diag, alpha, a, b);
}

namespace {

// Widest right-side solve the column recurrence takes directly; wider
// ones split their columns in half around one gemm.
constexpr int kTrsmLeafCols = 16;

// Solve X * op(A) = B in place (X overwrites B). Up to kTrsmLeafCols
// columns this is the column recurrence; wider, the columns split in
// half, the half op(A) couples nothing into is solved first, one gemm
// through the kernel table folds it into the other half's right-hand
// side, and that half is solved next.
void trsm_right(Uplo uplo, Trans trans, Diag diag, ConstMatrixView a,
                MatrixView b) {
  const int n = b.cols;
  const bool upper_effect = (uplo == Uplo::Upper) == (trans == Trans::No);
  auto op = [&](int i, int j) { return trans == Trans::No ? a(i, j) : a(j, i); };
  if (n <= kTrsmLeafCols) {
    if (upper_effect) {
      // op(A) upper: X(:,j) = (B(:,j) - sum_{k<j} X(:,k) op(A)(k,j)) / op(A)(j,j)
      for (int j = 0; j < n; ++j) {
        for (int k = 0; k < j; ++k) {
          const double t = op(k, j);
          if (t != 0.0) axpy(b.rows, -t, b.col(k), b.col(j));
        }
        if (diag == Diag::NonUnit) scal(b.rows, 1.0 / a(j, j), b.col(j));
      }
    } else {
      for (int j = n - 1; j >= 0; --j) {
        for (int k = j + 1; k < n; ++k) {
          const double t = op(k, j);
          if (t != 0.0) axpy(b.rows, -t, b.col(k), b.col(j));
        }
        if (diag == Diag::NonUnit) scal(b.rows, 1.0 / a(j, j), b.col(j));
      }
    }
    return;
  }
  const int h = n / 2;
  ConstMatrixView a11 = a.block(0, 0, h, h);
  ConstMatrixView a22 = a.block(h, h, n - h, n - h);
  MatrixView b1 = b.block(0, 0, b.rows, h);
  MatrixView b2 = b.block(0, h, b.rows, n - h);
  // op(A)'s referenced off-diagonal block: columns [h, n) of rows [0, h)
  // when it is upper, rows [h, n) x columns [0, h) when lower, stored
  // transposed in A under Trans::Yes.
  const bool off_top = upper_effect == (trans == Trans::No);
  ConstMatrixView off =
      off_top ? a.block(0, h, h, n - h) : a.block(h, 0, n - h, h);
  if (upper_effect) {
    // X1 O11 = B1, then X2 O22 = B2 - X1 O12.
    trsm_right(uplo, trans, diag, a11, b1);
    gemm(Trans::No, trans, -1.0, ConstMatrixView(b1), off, 1.0, b2);
    trsm_right(uplo, trans, diag, a22, b2);
  } else {
    // X2 O22 = B2, then X1 O11 = B1 - X2 O21.
    trsm_right(uplo, trans, diag, a22, b2);
    gemm(Trans::No, trans, -1.0, ConstMatrixView(b2), off, 1.0, b1);
    trsm_right(uplo, trans, diag, a11, b1);
  }
}

}  // namespace

void trsm(Side side, Uplo uplo, Trans trans, Diag diag, double alpha,
          ConstMatrixView a, MatrixView b) {
  if (alpha != 1.0) {
    for (int j = 0; j < b.cols; ++j) scal(b.rows, alpha, b.col(j));
  }
  if (side == Side::Left) {
    PQR_ASSERT(a.rows == b.rows && a.cols == b.rows, "trsm: shape mismatch");
    for (int j = 0; j < b.cols; ++j) trsv(uplo, trans, diag, a, b.col(j));
  } else {
    PQR_ASSERT(a.rows == b.cols && a.cols == b.cols, "trsm: shape mismatch");
    trsm_right(uplo, trans, diag, a, b);
  }
}

// ---- Auxiliary -------------------------------------------------------------

void laset_all(double off, double diag, MatrixView a) {
  laset_all_t(off, diag, a);
}

void laset_all(float off, float diag, MatrixViewF a) {
  laset_all_t(off, diag, a);
}

void laset(Uplo uplo, double off, double diag, MatrixView a) {
  for (int j = 0; j < a.cols; ++j) {
    if (uplo == Uplo::Upper) {
      for (int i = 0; i < j && i < a.rows; ++i) a(i, j) = off;
    } else {
      for (int i = j + 1; i < a.rows; ++i) a(i, j) = off;
    }
    if (j < a.rows) a(j, j) = diag;
  }
}

void lacpy_all(ConstMatrixView a, MatrixView b) {
  PQR_ASSERT(a.rows == b.rows && a.cols == b.cols, "lacpy: shape mismatch");
  for (int j = 0; j < a.cols; ++j) copy(a.rows, a.col(j), b.col(j));
}

void lacpy_all(ConstMatrixViewF a, MatrixViewF b) {
  PQR_ASSERT(a.rows == b.rows && a.cols == b.cols, "lacpy: shape mismatch");
  for (int j = 0; j < a.cols; ++j) copy(a.rows, a.col(j), b.col(j));
}

void lacpy(Uplo uplo, ConstMatrixView a, MatrixView b) {
  PQR_ASSERT(a.rows == b.rows && a.cols == b.cols, "lacpy: shape mismatch");
  for (int j = 0; j < a.cols; ++j) {
    if (uplo == Uplo::Upper) {
      const int top = j < a.rows - 1 ? j + 1 : a.rows;
      copy(top, a.col(j), b.col(j));
    } else {
      for (int i = j; i < a.rows; ++i) b(i, j) = a(i, j);
    }
  }
}

double norm_fro(ConstMatrixView a) {
  double scale = 0.0;
  double ssq = 1.0;
  for (int j = 0; j < a.cols; ++j) {
    for (int i = 0; i < a.rows; ++i) {
      const double ax = std::fabs(a(i, j));
      if (ax == 0.0) continue;
      if (scale < ax) {
        const double r = scale / ax;
        ssq = 1.0 + ssq * r * r;
        scale = ax;
      } else {
        const double r = ax / scale;
        ssq += r * r;
      }
    }
  }
  return scale * std::sqrt(ssq);
}

double norm_max(ConstMatrixView a) {
  double m = 0.0;
  for (int j = 0; j < a.cols; ++j) {
    for (int i = 0; i < a.rows; ++i) {
      m = std::fmax(m, std::fabs(a(i, j)));
    }
  }
  return m;
}

double norm_one(ConstMatrixView a) {
  double m = 0.0;
  for (int j = 0; j < a.cols; ++j) {
    double s = 0.0;
    for (int i = 0; i < a.rows; ++i) s += std::fabs(a(i, j));
    m = std::fmax(m, s);
  }
  return m;
}

}  // namespace pulsarqr::blas
