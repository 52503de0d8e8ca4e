// NEON (aarch64 ASIMD) kernel tables. ASIMD is architecturally mandatory
// on aarch64, so no runtime feature probe is needed beyond being on the
// architecture at all; the whole TU compiles away elsewhere.
//
// Micro-tile: 4x4 doubles — 4 C columns x 2 128-bit accumulators = 8 of
// the 32 q registers, plus 2 for the A column and a broadcast. Floats
// double the lane count to 8x4.
#if defined(__aarch64__)

#include "blas/simd_kernels_inc.hpp"
#include "blas/simd_tables.hpp"

#include <arm_neon.h>

#include <cstdint>

namespace pulsarqr::blas::simd {
namespace {

struct NeonD {
  using T = double;
  using reg = float64x2_t;
  static constexpr int W = 2;
  static reg zero() { return vdupq_n_f64(0.0); }
  static reg set1(T a) { return vdupq_n_f64(a); }
  static reg load(const T* p) { return vld1q_f64(p); }
  static reg loadu(const T* p) { return vld1q_f64(p); }
  static void storeu(T* p, reg v) { vst1q_f64(p, v); }
  static reg add(reg a, reg b) { return vaddq_f64(a, b); }
  static reg fma(reg a, reg b, reg c) { return vfmaq_f64(c, a, b); }
  static T hsum(reg v) { return vaddvq_f64(v); }
  // Bit-select the full-width FMA into c on lanes lo <= lane < hi.
  static reg fma_lanes(reg a, reg b, reg c, int lo, int hi) {
    const uint64x2_t lane = {0, 1};
    const uint64x2_t in = vandq_u64(
        vcgeq_u64(lane, vdupq_n_u64(static_cast<std::uint64_t>(lo))),
        vcltq_u64(lane, vdupq_n_u64(static_cast<std::uint64_t>(hi))));
    return vbslq_f64(in, vfmaq_f64(c, a, b), c);
  }
};

struct NeonF {
  using T = float;
  using reg = float32x4_t;
  static constexpr int W = 4;
  static reg zero() { return vdupq_n_f32(0.0f); }
  static reg set1(T a) { return vdupq_n_f32(a); }
  static reg load(const T* p) { return vld1q_f32(p); }
  static reg loadu(const T* p) { return vld1q_f32(p); }
  static void storeu(T* p, reg v) { vst1q_f32(p, v); }
  static reg add(reg a, reg b) { return vaddq_f32(a, b); }
  static reg fma(reg a, reg b, reg c) { return vfmaq_f32(c, a, b); }
  static T hsum(reg v) { return vaddvq_f32(v); }
  static reg fma_lanes(reg a, reg b, reg c, int lo, int hi) {
    const uint32x4_t lane = {0, 1, 2, 3};
    const uint32x4_t in = vandq_u32(
        vcgeq_u32(lane, vdupq_n_u32(static_cast<std::uint32_t>(lo))),
        vcltq_u32(lane, vdupq_n_u32(static_cast<std::uint32_t>(hi))));
    return vbslq_f32(in, vfmaq_f32(c, a, b), c);
  }
};

}  // namespace

const KernelTable<double>& neon_table_f64() {
  static const KernelTable<double> t = Kernels<NeonD, 2, 4>::table();
  return t;
}

const KernelTable<float>& neon_table_f32() {
  static const KernelTable<float> t = Kernels<NeonF, 2, 4>::table();
  return t;
}

}  // namespace pulsarqr::blas::simd

#endif  // __aarch64__
