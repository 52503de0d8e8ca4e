#include "lapack/householder.hpp"

#include <cmath>
#include <limits>

#include "blas/simd.hpp"

namespace pulsarqr::lapack {

using blas::Diag;
using blas::Trans;
using blas::Uplo;

namespace {

template <class T>
T larfg_t(int n, T& alpha, T* x) {
  if (n <= 1) return T(0);
  const T xnorm = blas::nrm2(n - 1, x);
  if (xnorm == T(0)) return T(0);  // H = I
  T beta = -std::copysign(std::hypot(alpha, xnorm), alpha);
  // Rescale if beta is tiny (LAPACK-style safeguard); safmin is
  // xlamch('S') / xlamch('E'), the smallest value safe to invert.
  const T safmin = std::numeric_limits<T>::min() /
                   (std::numeric_limits<T>::epsilon() / T(2));
  int iters = 0;
  T scale = T(1);
  while (std::fabs(beta) < safmin && iters < 20) {
    const T inv = T(1) / safmin;
    blas::scal(n - 1, inv, x);
    beta *= inv;
    alpha *= inv;
    scale *= safmin;
    ++iters;
  }
  if (iters > 0) {
    const T xn = blas::nrm2(n - 1, x);
    beta = -std::copysign(std::hypot(alpha, xn), alpha);
  }
  const T tau = (beta - alpha) / beta;
  blas::scal(n - 1, T(1) / (alpha - beta), x);
  alpha = beta * scale;
  return tau;
}

template <class T>
void larft_t(ConstMatrixViewT<T> v, const T* tau, MatrixViewT<T> t) {
  const int k = v.cols;
  PQR_ASSERT(t.rows >= k && t.cols >= k, "larft: T too small");
  const int m = v.rows;
  const blas::simd::KernelTable<T>& kt = blas::simd::kernels<T>();
  for (int i = 0; i < k; ++i) {
    t(i, i) = tau[i];
    if (i == 0) continue;
    // t(0:i, i) = -tau_i * V(:, 0:i)^T * v_i, exploiting the unit-lower
    // trapezoidal structure: v_i has zeros above row i and v_i(i) = 1, so
    // the head term is v(i, j) and the tail is one fused multi-column dot
    // over rows i+1..m-1.
    for (int j = 0; j < i; ++j) t(j, i) = -tau[i] * v(i, j);
    if (i + 1 < m) {
      kt.dot_cols(m - i - 1, -tau[i], v.col(i) + i + 1, v.col(0) + i + 1,
                  v.ld, i, t.col(i), 1);
    }
    // t(0:i, i) := T(0:i, 0:i) * t(0:i, i)
    blas::trmv(Uplo::Upper, Trans::No, Diag::NonUnit,
               ConstMatrixViewT<T>(t.data, i, i, t.ld), t.col(i));
  }
}

template <class T>
void larfb_left_t(blas::Trans trans, ConstMatrixViewT<T> v,
                  ConstMatrixViewT<T> t, MatrixViewT<T> c, T* work) {
  const int m = c.rows;
  const int n = c.cols;
  const int k = v.cols;
  PQR_ASSERT(v.rows == m && t.rows >= k && t.cols >= k,
             "larfb_left: shape mismatch");
  if (k == 0 || m == 0 || n == 0) return;
  // W (k-by-n) = V^T C, with V = [V1 (unit lower tri, k-by-k); V2].
  MatrixViewT<T> w(work, k, n, k);
  // W := V1^T C1 : copy C1 then trmm.
  blas::lacpy_all(ConstMatrixViewT<T>(c.data, k, n, c.ld), w);
  blas::trmm(blas::Side::Left, Uplo::Lower, Trans::Yes, Diag::Unit, T(1),
             ConstMatrixViewT<T>(v.data, k, k, v.ld), w);
  if (m > k) {
    blas::gemm(Trans::Yes, Trans::No, T(1), v.block(k, 0, m - k, k),
               ConstMatrixViewT<T>(c.data + k, m - k, n, c.ld), T(1), w);
  }
  // W := op(T) W
  blas::trmm(blas::Side::Left, Uplo::Upper, trans, Diag::NonUnit, T(1),
             ConstMatrixViewT<T>(t.data, k, k, t.ld), w);
  // C := C - V W
  if (m > k) {
    blas::gemm(Trans::No, Trans::No, T(-1), v.block(k, 0, m - k, k),
               ConstMatrixViewT<T>(w), T(1),
               MatrixViewT<T>(c.data + k, m - k, n, c.ld));
  }
  // C1 := C1 - V1 W : W := V1 W in place via trmm, then subtract.
  blas::trmm(blas::Side::Left, Uplo::Lower, Trans::No, Diag::Unit, T(1),
             ConstMatrixViewT<T>(v.data, k, k, v.ld), w);
  for (int j = 0; j < n; ++j) {
    blas::axpy(k, T(-1), w.col(j), c.col(j));
  }
}

}  // namespace

double larfg(int n, double& alpha, double* x) { return larfg_t(n, alpha, x); }

float larfg(int n, float& alpha, float* x) { return larfg_t(n, alpha, x); }

void larft(ConstMatrixView v, const double* tau, MatrixView t) {
  larft_t(v, tau, t);
}

void larft(ConstMatrixViewF v, const float* tau, MatrixViewF t) {
  larft_t(v, tau, t);
}

void larfb_left(blas::Trans trans, ConstMatrixView v, ConstMatrixView t,
                MatrixView c, double* work) {
  larfb_left_t(trans, v, t, c, work);
}

void larfb_left(blas::Trans trans, ConstMatrixViewF v, ConstMatrixViewF t,
                MatrixViewF c, float* work) {
  larfb_left_t(trans, v, t, c, work);
}

}  // namespace pulsarqr::lapack
