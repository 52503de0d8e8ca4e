// AVX-512 kernel tables. Compiled with -mavx512f regardless of the build
// host; only reachable through the runtime dispatch in simd.cpp.
//
// Micro-tile: 16x8 doubles — 8 C columns x 2 zmm accumulators = 16 of the
// 32 zmm registers, plus 2 for the A column and 1 for the B broadcast.
// Floats double the lane count to 32x8. With op(B) read in place, the
// three widths that fit were A/B-tested on a 4-vCPU AVX-512 Xeon VM (GCC
// 12, medians of 5 interleaved bench_kernels runs, Gflop/s, 16x4 / 16x8 /
// 16x12):
//   one tile, kc 128, L1-resident   57 / 67 / 61
//   gemm TN 32x128x128 (tsmqr W)    44 / 52 / 50
//   gemm NN 128x128x32 (tsmqr C2)   44 / 50 / 42
//   gemm NT 128x128x128 (chol)      43 / 55 / 55
//   tsmqr 64/16, 128/32 (us)        45, 254 / 31, 200 / 49, 230
// 16x8 halves the A loads per FMA against 16x4 and still divides the 16-,
// 32-, 64- and 128-column tiles the kernels issue; 16x12 (27 zmm) leaves a
// ragged 8-column edge at n 128 and is slower than 16x8 on 11 of the 12
// tile-kernel rows at 64/16 and 128/32.
#include "blas/simd_kernels_inc.hpp"
#include "blas/simd_tables.hpp"

#include <immintrin.h>

// GCC's _mm512_reduce_add_* expand through _mm256_undefined_pd(), which
// -Wuninitialized flags spuriously (the lanes are masked off).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

namespace pulsarqr::blas::simd {
namespace {

struct Avx512D {
  using T = double;
  using reg = __m512d;
  static constexpr int W = 8;
  static reg zero() { return _mm512_setzero_pd(); }
  static reg set1(T a) { return _mm512_set1_pd(a); }
  static reg load(const T* p) { return _mm512_load_pd(p); }
  static reg loadu(const T* p) { return _mm512_loadu_pd(p); }
  static void storeu(T* p, reg v) { _mm512_storeu_pd(p, v); }
  static reg add(reg a, reg b) { return _mm512_add_pd(a, b); }
  static reg fma(reg a, reg b, reg c) { return _mm512_fmadd_pd(a, b, c); }
  static T hsum(reg v) { return _mm512_reduce_add_pd(v); }
  static reg fma_lanes(reg a, reg b, reg c, int lo, int hi) {
    const auto m = static_cast<__mmask8>((1u << hi) - (1u << lo));
    return _mm512_mask3_fmadd_pd(a, b, c, m);
  }
};

struct Avx512F {
  using T = float;
  using reg = __m512;
  static constexpr int W = 16;
  static reg zero() { return _mm512_setzero_ps(); }
  static reg set1(T a) { return _mm512_set1_ps(a); }
  static reg load(const T* p) { return _mm512_load_ps(p); }
  static reg loadu(const T* p) { return _mm512_loadu_ps(p); }
  static void storeu(T* p, reg v) { _mm512_storeu_ps(p, v); }
  static reg add(reg a, reg b) { return _mm512_add_ps(a, b); }
  static reg fma(reg a, reg b, reg c) { return _mm512_fmadd_ps(a, b, c); }
  static T hsum(reg v) { return _mm512_reduce_add_ps(v); }
  static reg fma_lanes(reg a, reg b, reg c, int lo, int hi) {
    const auto m = static_cast<__mmask16>((1u << hi) - (1u << lo));
    return _mm512_mask3_fmadd_ps(a, b, c, m);
  }
};

}  // namespace

const KernelTable<double>& avx512_table_f64() {
  static const KernelTable<double> t = Kernels<Avx512D, 2, 8>::table();
  return t;
}

const KernelTable<float>& avx512_table_f32() {
  static const KernelTable<float> t = Kernels<Avx512F, 2, 8>::table();
  return t;
}

}  // namespace pulsarqr::blas::simd
