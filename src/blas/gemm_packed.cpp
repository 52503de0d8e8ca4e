// Packed, cache-blocked GEMM (the BLIS/GotoBLAS loop nest, from scratch).
//
// C += alpha * op(A) * op(B) is computed as
//
//   for pc in steps of KC:                 (k block)
//     for ic in steps of MC:               (A row block; pack A -> Ap, col panels)
//       for jr in steps of NR:             (macro kernel, op(B) read in place)
//         for ir in steps of MR:
//           micro_kernel: MR x NR register tile, FMA loop over k
//
// Only op(A) is packed: it is rewritten into MR-row column panels
// (Ap[p][k][r], r fastest), zero-padded to full MR height, so the
// micro-kernel streams it with unit stride regardless of the Trans flag.
// op(B) is read where it lies through two strides, op(B)(k, j) at
// b[k * bk + j * bj], and edge tiles alias their missing columns to
// column 0 instead of padding (simd.hpp, KernelTable::gemm_micro). With no
// B copy there is no NC column block: a KC x NR sliver of op(B) is reused
// across the MC / MR A panels of one block while it is L1-resident.
//
// The micro-kernel and its MR x NR footprint come from the runtime-dispatched
// SIMD kernel table (blas/simd.hpp): 8x6 AVX2 and 16x8 AVX-512 for doubles
// (double the rows for floats), 8x4 scalar. Packing reads mr from the
// table at call time, and the pack buffer is 64-byte aligned so every A
// panel k-step starts on a cache-line boundary (mr * sizeof(T) is a
// multiple of 64 for the x86 tiles), which lets the kernels use aligned
// vector loads on the packed operand.
//
// A C element sums its k blocks in order, each block's FMAs into a
// zero-started accumulator, so its value depends neither on the tile
// width nor on which tile it lands in.
//
// The packing buffer is thread_local and grow-only: steady-state calls
// perform no heap allocation (same discipline as kernels::Workspace).
#include <algorithm>
#include <cstddef>
#include <new>
#include <utility>

#include "blas/blas.hpp"
#include "blas/simd.hpp"

namespace pulsarqr::blas {

namespace {

// Cache blocking, in elements. Ap is MC*KC doubles (256 KiB, ~L2); one
// op(B) sliver is KC*NR doubles (~L1). Floats reuse the same element counts
// (half the bytes — comfortably cached).
constexpr int MC = 128;
constexpr int KC = 256;

// Grow-only 64-byte-aligned buffer for the packed panels. std::vector is
// not used because its allocator only guarantees alignof(T).
template <class T>
class AlignedVec {
 public:
  AlignedVec() = default;
  AlignedVec(const AlignedVec&) = delete;
  AlignedVec& operator=(const AlignedVec&) = delete;
  ~AlignedVec() {
    ::operator delete(data_, std::align_val_t(64));
  }

  void reserve(std::size_t n) {
    if (n <= cap_) return;
    ::operator delete(data_, std::align_val_t(64));
    data_ = static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t(64)));
    cap_ = n;
  }

  T* data() { return data_; }

 private:
  T* data_ = nullptr;
  std::size_t cap_ = 0;
};

template <class T>
AlignedVec<T>& pack_buffer() {
  thread_local AlignedVec<T> buf;  // MC x KC, MR-row panels
  return buf;
}

// Pack op(A)(ic:ic+mc, pc:pc+kc) into mr-row panels:
// dst[p * (mr*kc) + k * mr + r] = op(A)(ic + p*mr + r, pc + k),
// zero-padded in r for the last partial panel.
template <class T>
void pack_a(Trans ta, ConstMatrixViewT<T> a, int ic, int pc, int mc, int kc,
            int mr, T* dst) {
  for (int p = 0; p < mc; p += mr) {
    const int pr = std::min(mr, mc - p);
    if (ta == Trans::No) {
      // op(A) columns are A columns: walk k outer, rows contiguous.
      for (int k = 0; k < kc; ++k) {
        const T* src = a.col(pc + k) + ic + p;
        for (int r = 0; r < pr; ++r) dst[k * mr + r] = src[r];
        for (int r = pr; r < mr; ++r) dst[k * mr + r] = T(0);
      }
    } else {
      // op(A)(i, k) = A(k, i): walk rows outer so k runs down A's columns.
      for (int r = 0; r < pr; ++r) {
        const T* src = a.col(ic + p + r) + pc;
        for (int k = 0; k < kc; ++k) dst[k * mr + r] = src[k];
      }
      for (int r = pr; r < mr; ++r) {
        for (int k = 0; k < kc; ++k) dst[k * mr + r] = T(0);
      }
    }
    dst += static_cast<std::ptrdiff_t>(mr) * kc;
  }
}

template <class T>
void gemm_packed_t(Trans ta, Trans tb, T alpha, ConstMatrixViewT<T> a,
                   ConstMatrixViewT<T> b, T beta, MatrixViewT<T> c) {
  const int m = c.rows;
  const int n = c.cols;
  const int k = (ta == Trans::No) ? a.cols : a.rows;
  {
    const int ka = (ta == Trans::No) ? a.cols : a.rows;
    const int kb = (tb == Trans::No) ? b.rows : b.cols;
    const int ma = (ta == Trans::No) ? a.rows : a.cols;
    const int nb = (tb == Trans::No) ? b.cols : b.rows;
    PQR_ASSERT(ka == kb && ma == m && nb == n, "gemm: shape mismatch");
  }
  if (beta == T(0)) {
    laset_all(T(0), T(0), c);
  } else if (beta != T(1)) {
    for (int j = 0; j < n; ++j) scal(m, beta, c.col(j));
  }
  if (alpha == T(0) || k == 0 || m == 0 || n == 0) return;

  const simd::KernelTable<T>& kt = simd::kernels<T>();
  const int mr = kt.mr;
  const int nr = kt.nr;
  // op(B)(k, j) sits at b.data[k * bk + j * bj].
  const int bk = tb == Trans::No ? 1 : b.ld;
  const int bj = tb == Trans::No ? b.ld : 1;

  // Panel footprint for THIS problem, capped by the cache blocking and
  // rounded up to whole mr panels. Sizing to the problem (instead of the
  // worst-case MC*KC) keeps sub-block products from faulting in pack
  // pages they will never use; the buffer remains grow-only, so
  // steady-state calls still allocate nothing once a thread has seen its
  // largest shape.
  AlignedVec<T>& ap_buf = pack_buffer<T>();
  const int kc_max = std::min(KC, k);
  const int mc_max =
      std::min(((m + mr - 1) / mr) * mr, ((MC + mr - 1) / mr) * mr);
  ap_buf.reserve(static_cast<std::size_t>(mc_max) * kc_max);

  for (int pc = 0; pc < k; pc += KC) {
    const int kc = std::min(KC, k - pc);
    for (int ic = 0; ic < m; ic += MC) {
      const int mc = std::min(MC, m - ic);
      pack_a(ta, a, ic, pc, mc, kc, mr, ap_buf.data());
      for (int jr = 0; jr < n; jr += nr) {
        const T* bp = b.data + static_cast<std::ptrdiff_t>(pc) * bk +
                      static_cast<std::ptrdiff_t>(jr) * bj;
        for (int ir = 0; ir < mc; ir += mr) {
          const T* ap =
              ap_buf.data() + static_cast<std::ptrdiff_t>(ir / mr) * mr * kc;
          kt.gemm_micro(kc, alpha, ap, bp, bk, bj, c.col(jr) + ic + ir, c.ld,
                        std::min(mr, mc - ir), std::min(nr, n - jr));
        }
      }
    }
  }
}

}  // namespace

void gemm_packed(Trans ta, Trans tb, double alpha, ConstMatrixView a,
                 ConstMatrixView b, double beta, MatrixView c) {
  gemm_packed_t(ta, tb, alpha, a, b, beta, c);
}

void gemm_packed(Trans ta, Trans tb, float alpha, ConstMatrixViewF a,
                 ConstMatrixViewF b, float beta, MatrixViewF c) {
  gemm_packed_t(ta, tb, alpha, a, b, beta, c);
}

}  // namespace pulsarqr::blas
