// AVX2 + FMA kernel tables. Compiled with -mavx2 -mfma regardless of the
// build host; only reachable through the runtime dispatch in simd.cpp,
// which verifies CPU support before publishing these tables.
//
// Micro-tile: 8x6 doubles — 6 C columns x 2 ymm accumulators = 12 of the
// 16 ymm registers, plus 2 for the A column and 1 for the B broadcast
// (the 8x4 footprint of the scalar kernel would leave a third of the
// register file idle). Floats double the lane count to 16x6.
#include "blas/simd_kernels_inc.hpp"
#include "blas/simd_tables.hpp"

#include <immintrin.h>

namespace pulsarqr::blas::simd {
namespace {

struct Avx2D {
  using T = double;
  using reg = __m256d;
  static constexpr int W = 4;
  static reg zero() { return _mm256_setzero_pd(); }
  static reg set1(T a) { return _mm256_set1_pd(a); }
  static reg load(const T* p) { return _mm256_load_pd(p); }
  static reg loadu(const T* p) { return _mm256_loadu_pd(p); }
  static void storeu(T* p, reg v) { _mm256_storeu_pd(p, v); }
  static reg add(reg a, reg b) { return _mm256_add_pd(a, b); }
  static reg fma(reg a, reg b, reg c) { return _mm256_fmadd_pd(a, b, c); }
  static T hsum(reg v) {
    const __m128d lo = _mm256_castpd256_pd128(v);
    const __m128d hi = _mm256_extractf128_pd(v, 1);
    const __m128d s = _mm_add_pd(lo, hi);
    return _mm_cvtsd_f64(_mm_add_sd(s, _mm_unpackhi_pd(s, s)));
  }
  // Blend the full-width FMA into c on lanes lo <= lane < hi.
  static reg fma_lanes(reg a, reg b, reg c, int lo, int hi) {
    const __m256i lane = _mm256_setr_epi64x(0, 1, 2, 3);
    const __m256i in = _mm256_andnot_si256(
        _mm256_cmpgt_epi64(_mm256_set1_epi64x(lo), lane),
        _mm256_cmpgt_epi64(_mm256_set1_epi64x(hi), lane));
    return _mm256_blendv_pd(c, _mm256_fmadd_pd(a, b, c),
                            _mm256_castsi256_pd(in));
  }
};

struct Avx2F {
  using T = float;
  using reg = __m256;
  static constexpr int W = 8;
  static reg zero() { return _mm256_setzero_ps(); }
  static reg set1(T a) { return _mm256_set1_ps(a); }
  static reg load(const T* p) { return _mm256_load_ps(p); }
  static reg loadu(const T* p) { return _mm256_loadu_ps(p); }
  static void storeu(T* p, reg v) { _mm256_storeu_ps(p, v); }
  static reg add(reg a, reg b) { return _mm256_add_ps(a, b); }
  static reg fma(reg a, reg b, reg c) { return _mm256_fmadd_ps(a, b, c); }
  static T hsum(reg v) {
    const __m128 lo = _mm256_castps256_ps128(v);
    const __m128 hi = _mm256_extractf128_ps(v, 1);
    __m128 s = _mm_add_ps(lo, hi);
    s = _mm_add_ps(s, _mm_movehl_ps(s, s));
    s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 0x55));
    return _mm_cvtss_f32(s);
  }
  static reg fma_lanes(reg a, reg b, reg c, int lo, int hi) {
    const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    const __m256i in = _mm256_andnot_si256(
        _mm256_cmpgt_epi32(_mm256_set1_epi32(lo), lane),
        _mm256_cmpgt_epi32(_mm256_set1_epi32(hi), lane));
    return _mm256_blendv_ps(c, _mm256_fmadd_ps(a, b, c),
                            _mm256_castsi256_ps(in));
  }
};

}  // namespace

const KernelTable<double>& avx2_table_f64() {
  static const KernelTable<double> t = Kernels<Avx2D, 2, 6>::table();
  return t;
}

const KernelTable<float>& avx2_table_f32() {
  static const KernelTable<float> t = Kernels<Avx2F, 2, 6>::table();
  return t;
}

}  // namespace pulsarqr::blas::simd
