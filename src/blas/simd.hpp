// Runtime CPU-feature dispatch for the explicit SIMD micro-kernels.
//
// One binary carries every kernel flavor it was compiled with — scalar
// (always), AVX2+FMA and AVX-512 on x86-64 — and picks the best one the
// executing CPU supports, once, at first use. Other hosts (aarch64
// included) run the scalar table. The selection can be overridden:
//
//   * environment: PQR_KERNEL_ISA=auto|avx512|avx2|scalar (read once,
//     at first dispatch; unknown or unsupported values fall back to auto
//     with a warning on stderr), or
//   * programmatically: set_isa()/parse_isa(), which is what
//     `pqr --kernel-isa` uses (the CLI rejects bad values instead of
//     falling back).
//
// Each ISA exports one KernelTable<T> per scalar type (double and float):
// the gemm micro-kernel with its MR x NR register-tile footprint (the
// op(A) packing in gemm_packed.cpp obeys the active table's mr), the left
// triangular multiply on the same register tile (blas::trmm), plus the
// vector level-1 primitives (axpy/dot) and the multi-column fused sweeps
// (dot_cols/ger_cols/axpy_cols) that back blas::gemv/ger, small gemms and
// the tsqrt/ttqrt panel sweep. The scalar
// table is the always-correct fallback: plain templated loops, compiled
// with the host-tuning flags when PULSARQR_NATIVE_KERNELS is ON so the
// autovectorized PR 3 baseline is preserved exactly.
#pragma once

#include <atomic>
#include <string_view>

namespace pulsarqr::blas::simd {

/// Kernel instruction sets, in ascending preference order. Auto is a
/// parse-time pseudo-value resolved to the best supported ISA.
enum class Isa { Scalar = 0, Avx2 = 1, Avx512 = 2 };

/// Short lower-case name ("scalar", "avx2", "avx512").
const char* isa_name(Isa isa);

/// True if the kernels for `isa` are linked into this binary (decided at
/// build time; see PULSARQR_NATIVE_KERNELS in src/CMakeLists.txt).
bool isa_compiled(Isa isa);

/// True if `isa` is compiled in AND the executing CPU supports it. Scalar
/// is always supported.
bool isa_supported(Isa isa);

/// Best supported ISA on this host (what "auto" resolves to).
Isa detect_isa();

/// The currently selected ISA. First call resolves PQR_KERNEL_ISA (or
/// auto-detects) and latches the kernel tables.
Isa active_isa();

/// Select a specific ISA (or re-run detection). Returns false — and leaves
/// the selection unchanged — if the ISA is not supported on this host.
bool set_isa(Isa isa);
/// Reset to auto-detection (ignoring PQR_KERNEL_ISA).
void set_isa_auto();

/// Parse an ISA name ("auto" included). Returns false on an unknown name;
/// *out is untouched in that case. "auto" yields detect_isa().
bool parse_isa(std::string_view name, Isa* out);

/// One ISA's kernel bundle for scalar type T. All function pointers are
/// non-null in every table.
template <class T>
struct KernelTable {
  /// Register micro-tile of the gemm kernel; pack_a pads op(A)'s row
  /// panels to mr, and every A panel is 64-byte aligned so the kernel may
  /// use aligned vector loads on the packed operand.
  int mr = 0;
  int nr = 0;
  /// C(0:mr_eff, 0:nr_eff) += alpha * Ap * op(B) over a kc-deep panel: Ap
  /// is one packed mr-row panel of op(A), and op(B) is read in place,
  /// op(B)(k, j) at b[k * bk + j * bj] — (bk, bj) = (1, ldb) for a
  /// NoTrans B, (ldb, 1) for a Trans B. Columns j >= nr_eff are never
  /// read past column 0 (the kernel aliases them to it and discards their
  /// accumulators), so an edge tile loads only elements of op(B). Each
  /// accumulator starts at 0, takes one FMA per k in order, and enters C
  /// as c + alpha * acc.
  ///
  /// C must not share elements with op(B): the kernel reads B while the
  /// writes of earlier tiles land in C. (B packing used to hide such an
  /// alias within one KC block.) Audited callers, none of which alias C
  /// with B: larfb_left (W = VᵀC into a work block, C -= V W), the tile
  /// kernels' apply_block (W and the C2 rows are distinct buffers),
  /// getrf_nopiv/potrf (A22 is disjoint from U12 / L21), the chol and lu
  /// tile updates and their reference executors (distinct tiles).
  void (*gemm_micro)(int kc, T alpha, const T* ap, const T* b, int bk, int bj,
                     T* c, int ldc, int mr_eff, int nr_eff) = nullptr;
  /// B(0:m, 0:n) := alpha * op(A) * B in place (B has leading dimension
  /// ldb), op(A) an m-by-m triangle, lower or upper. ap holds op(A) packed
  /// column-major with its rows padded to a multiple of mr: op(A)(i, k) at
  /// ap[k * mp + i], mp = m rounded up to mr (a unit diagonal is packed as
  /// 1). Slots outside the triangle are loaded but never part of any sum,
  /// so whatever they hold cannot reach B.
  void (*trmm)(int m, int n, T alpha, const T* ap, bool lower, T* b,
               int ldb) = nullptr;
  /// y += a * x.
  void (*axpy)(int n, T a, const T* x, T* y) = nullptr;
  /// dot(x, y).
  T (*dot)(int n, const T* x, const T* y) = nullptr;
  /// out[j * inc_out] += alpha * dot(x, Y.col(j)) for j in [0, ncols); Y
  /// has leading dimension ldy. One pass of x feeds four columns at a time.
  void (*dot_cols)(int n, T alpha, const T* x, const T* y, int ldy, int ncols,
                   T* out, int inc_out) = nullptr;
  /// Y.col(j) += alpha * coeff[j * inc_c] * x for j in [0, ncols).
  void (*ger_cols)(int n, T alpha, const T* x, const T* coeff, int inc_c,
                   T* y, int ldy, int ncols) = nullptr;
  /// y += alpha * sum_j coeff[j * inc_c] * X.col(j); X has leading
  /// dimension ldx.
  void (*axpy_cols)(int n, T alpha, const T* coeff, int inc_c, const T* x,
                    int ldx, int ncols, T* y) = nullptr;
  /// Fused Householder apply C := (I - tau * v * v^T) C for the small-panel
  /// geqr2 path: C is m-by-n with leading dimension ldc, v has length m
  /// with v(0) = 1 implicit (v[0] is never read). Four columns at a time,
  /// the reduction (w_j = v^T c_j) and the update (c_j -= tau * w_j * v)
  /// run back-to-back while the block is register/L1 resident — no
  /// workspace, unlike the classic two-pass larf with a work vector.
  void (*larf)(int m, int n, T tau, const T* v, T* c, int ldc) = nullptr;
};

namespace detail {
extern std::atomic<const KernelTable<double>*> table_f64;
extern std::atomic<const KernelTable<float>*> table_f32;
const KernelTable<double>* resolve_f64();
const KernelTable<float>* resolve_f32();
}  // namespace detail

/// The active ISA's kernel table for T (T = double or float). The atomic
/// load is an acquire, paired with the release store that publishes the
/// table: a thread's first kernel call must see the entries another
/// thread initialized before publishing (function-local statics in
/// kernels_f64/f32). Tables are immutable once published.
template <class T>
inline const KernelTable<T>& kernels();

template <>
inline const KernelTable<double>& kernels<double>() {
  const KernelTable<double>* t =
      detail::table_f64.load(std::memory_order_acquire);
  return t ? *t : *detail::resolve_f64();
}

template <>
inline const KernelTable<float>& kernels<float>() {
  const KernelTable<float>* t =
      detail::table_f32.load(std::memory_order_acquire);
  return t ? *t : *detail::resolve_f32();
}

/// A specific ISA's table (must satisfy isa_supported; used by the fuzz
/// tests and benches to A/B kernel flavors without touching the global
/// selection).
const KernelTable<double>& kernels_f64(Isa isa);
const KernelTable<float>& kernels_f32(Isa isa);

template <class T>
const KernelTable<T>& kernels(Isa isa);
template <>
inline const KernelTable<double>& kernels<double>(Isa isa) {
  return kernels_f64(isa);
}
template <>
inline const KernelTable<float>& kernels<float>(Isa isa) {
  return kernels_f32(isa);
}

}  // namespace pulsarqr::blas::simd
