// AVX-512 kernel tables. Compiled with -mavx512f regardless of the build
// host; only reachable through the runtime dispatch in simd.cpp.
//
// Micro-tile: 16x4 doubles — 4 C columns x 2 zmm accumulators = 8 of the
// 32 zmm registers, plus 2 for the A column and 1 for the B broadcast.
// 16x4 beats 8x8 here because each A load is amortized over two FMAs per
// broadcast and the writeback stays two stores per column. Floats double
// the lane count to 32x4.
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
  static const KernelTable<double> t = Kernels<Avx512D, 2, 4>::table();
  return t;
}

const KernelTable<float>& avx512_table_f32() {
  static const KernelTable<float> t = Kernels<Avx512F, 2, 4>::table();
  return t;
}

}  // namespace pulsarqr::blas::simd
