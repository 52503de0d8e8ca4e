// Randomized equivalence testing of the packed, cache-blocked gemm against
// the reference implementation: all four Trans combinations, shapes that
// straddle every blocking boundary (0, 1, odd, multiples of and beyond
// MR/NR/MC/KC), non-tight leading dimensions, and the alpha/beta special
// cases. The packed path accumulates in a different order than the
// reference, so comparisons use a tolerance scaled by the reduction depth.
//
// With the explicit SIMD micro-kernels the packed path dispatches through
// blas::simd; the IsaCrossCheck tests pin each compiled-and-supported ISA
// in turn and re-run the equivalence sweep, so every kernel flavor (scalar,
// AVX2, AVX-512 — whatever this binary and host have) is checked
// against the plain-loop scalar reference, in double and float. The tile
// kernel leg does the same for the tsqrt/tsmqr/ttqrt/ttmqr stacked cores,
// whose panel loops use the dot_cols/ger_cols fused kernels and whose
// triangles go through the trmm kernel.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <tuple>
#include <utility>
#include <vector>

#include "blas/blas.hpp"
#include "blas/simd.hpp"
#include "common/rng.hpp"
#include "isa_guard.hpp"
#include "kernels/tile_kernels.hpp"
#include "kernels/workspace.hpp"

namespace pulsarqr {
namespace {

using blas::Trans;

// Blocking parameters of the packed implementation (gemm_packed.cpp);
// shapes below are chosen to land on and beyond these boundaries.
constexpr int kMC = 128;
constexpr int kKC = 256;
// A wide n: many column tiles read in place against one packed A block.
constexpr int kWideN = 512;

struct Case {
  int m, n, k;
  int lda_pad, ldb_pad, ldc_pad;
  Trans ta, tb;
  double alpha, beta;
};

// Build op-shaped operand: a is stored so that op(a) is m-by-k.
Matrix make_operand(Trans t, int m, int k, int ld_pad, std::uint64_t seed) {
  const int rows = t == Trans::No ? m : k;
  const int cols = t == Trans::No ? k : m;
  Matrix a(rows + ld_pad, std::max(cols, 1));
  fill_random(a.view(), seed);
  return a;
}

ConstMatrixView operand_view(const Matrix& a, Trans t, int m, int k) {
  const int rows = t == Trans::No ? m : k;
  const int cols = t == Trans::No ? k : m;
  return ConstMatrixView(a.data(), rows, cols, a.rows());
}

double tol_for(int k) { return 1e-13 * (k + 4); }

void run_case(const Case& cs) {
  SCOPED_TRACE(::testing::Message()
               << "m=" << cs.m << " n=" << cs.n << " k=" << cs.k
               << " ta=" << (cs.ta == Trans::No ? "N" : "T")
               << " tb=" << (cs.tb == Trans::No ? "N" : "T")
               << " alpha=" << cs.alpha << " beta=" << cs.beta
               << " pads=" << cs.lda_pad << "," << cs.ldb_pad << ","
               << cs.ldc_pad);
  std::uint64_t seed = 0x9e3779b97f4a7c15ull ^
                       (static_cast<std::uint64_t>(cs.m) << 40) ^
                       (static_cast<std::uint64_t>(cs.n) << 20) ^
                       static_cast<std::uint64_t>(cs.k);
  Matrix a = make_operand(cs.ta, cs.m, cs.k, cs.lda_pad, seed + 1);
  Matrix b = make_operand(cs.tb, cs.k, cs.n, cs.ldb_pad, seed + 2);
  Matrix c0(cs.m + cs.ldc_pad, std::max(cs.n, 1));
  fill_random(c0.view(), seed + 3);

  Matrix c_ref = c0;
  Matrix c_packed = c0;
  ConstMatrixView av = operand_view(a, cs.ta, cs.m, cs.k);
  ConstMatrixView bv = operand_view(b, cs.tb, cs.k, cs.n);
  MatrixView cr(c_ref.data(), cs.m, cs.n, c_ref.rows());
  MatrixView cp(c_packed.data(), cs.m, cs.n, c_packed.rows());
  blas::gemm_ref(cs.ta, cs.tb, cs.alpha, av, bv, cs.beta, cr);
  blas::gemm_packed(cs.ta, cs.tb, cs.alpha, av, bv, cs.beta, cp);

  const double tol = tol_for(cs.k);
  for (int j = 0; j < cs.n; ++j) {
    for (int i = 0; i < cs.m; ++i) {
      const double scale = std::fmax(1.0, std::fabs(cr(i, j)));
      ASSERT_NEAR(cr(i, j), cp(i, j), tol * scale)
          << "mismatch at (" << i << ", " << j << ")";
    }
  }
  // Rows below the view (padding) must be untouched by both paths.
  for (int j = 0; j < c0.cols(); ++j) {
    for (int i = cs.m; i < c0.rows(); ++i) {
      ASSERT_EQ(c0(i, j), c_packed(i, j)) << "padding clobbered";
    }
  }
}

TEST(GemmFuzz, BlockingBoundaries) {
  const int ms[] = {0, 1, 3, 7, 8, 9, 17, kMC, kMC + 5};
  const int ns[] = {0, 1, 3, 4, 5, 13, kWideN / 8, kWideN / 4 + 3};
  const int ks[] = {0, 1, 2, 9, 31, kKC, kKC + 7};
  const Trans ts[] = {Trans::No, Trans::Yes};
  int idx = 0;
  for (int m : ms) {
    for (int n : ns) {
      for (int k : ks) {
        // Rotate through the Trans combinations and scalars so the full
        // product of cases stays fast while every (ta, tb) pair still sees
        // every boundary class.
        const Trans ta = ts[idx % 2];
        const Trans tb = ts[(idx / 2) % 2];
        const double alpha = (idx % 3 == 0) ? 0.0 : 1.25;
        const double beta = (idx % 5 == 0) ? 0.0 : ((idx % 5 == 1) ? 1.0 : -0.5);
        run_case({m, n, k, idx % 3, (idx + 1) % 3, (idx + 2) % 4, ta, tb,
                  alpha, beta});
        ++idx;
      }
    }
  }
}

TEST(GemmFuzz, RandomizedShapes) {
  std::mt19937_64 rng(2026);
  std::uniform_int_distribution<int> dm(0, kMC + 40);
  std::uniform_int_distribution<int> dn(0, 96);
  std::uniform_int_distribution<int> dk(0, kKC + 40);
  std::uniform_int_distribution<int> dt(0, 1);
  std::uniform_int_distribution<int> dpad(0, 5);
  std::uniform_real_distribution<double> dscal(-2.0, 2.0);
  for (int it = 0; it < 60; ++it) {
    run_case({dm(rng), dn(rng), dk(rng), dpad(rng), dpad(rng), dpad(rng),
              dt(rng) ? Trans::Yes : Trans::No,
              dt(rng) ? Trans::Yes : Trans::No, dscal(rng), dscal(rng)});
  }
}

// A wide n with a ragged last column tile: the op(B) slivers of every
// column tile are read in place against the same packed A block.
TEST(GemmFuzz, WideN) {
  run_case({33, kWideN + 9, 21, 1, 0, 2, Trans::No, Trans::Yes, 1.0, 1.0});
  run_case({9, kWideN + 9, 40, 0, 1, 0, Trans::Yes, Trans::No, -1.0, 0.0});
}

// ---- Per-ISA cross-checks -------------------------------------------------

using blas::simd::Isa;

TEST(GemmFuzz, EveryIsaMatchesScalarReference) {
  IsaGuard guard;
  // Shapes straddle every micro-tile boundary in use (MR up to 32 for
  // AVX-512 floats, NR up to 6 for AVX2) plus odd fringes; alpha/beta
  // rotate through the special cases 0, 1 and a general value.
  const int ms[] = {1, 5, 8, 16, 17, 31, 33};
  const int ns[] = {1, 3, 4, 6, 7, 13};
  const int ks[] = {1, 2, 17, 64};
  const Trans ts[] = {Trans::No, Trans::Yes};
  const double alphas[] = {0.0, 1.0, -0.75};
  const double betas[] = {0.0, 1.0, -0.5};
  for (Isa isa : supported_isas()) {
    SCOPED_TRACE(blas::simd::isa_name(isa));
    ASSERT_TRUE(blas::simd::set_isa(isa));
    int idx = 0;
    for (int m : ms) {
      for (int n : ns) {
        for (int k : ks) {
          run_case({m, n, k, idx % 3, (idx + 1) % 3, (idx + 2) % 4,
                    ts[idx % 2], ts[(idx / 2) % 2], alphas[idx % 3],
                    betas[idx % 5 % 3]});
          ++idx;
        }
      }
    }
  }
}

// Single-precision equivalence: same structure as the double tests, float
// tolerance scaled by the reduction depth.
void fill_random_f(MatrixViewF a, std::uint64_t seed) {
  Rng rng(seed);
  for (int j = 0; j < a.cols; ++j) {
    for (int i = 0; i < a.rows; ++i) {
      a(i, j) = static_cast<float>(rng.next_symmetric());
    }
  }
}

void run_case_f(int m, int n, int k, Trans ta, Trans tb, float alpha,
                float beta, int pad) {
  SCOPED_TRACE(::testing::Message()
               << "f32 m=" << m << " n=" << n << " k=" << k
               << " ta=" << (ta == Trans::No ? "N" : "T")
               << " tb=" << (tb == Trans::No ? "N" : "T") << " alpha=" << alpha
               << " beta=" << beta);
  const std::uint64_t seed = 0xd1b54a32d192ed03ull ^
                             (static_cast<std::uint64_t>(m) << 40) ^
                             (static_cast<std::uint64_t>(n) << 20) ^
                             static_cast<std::uint64_t>(k);
  MatrixF a(ta == Trans::No ? m + pad : k, std::max(ta == Trans::No ? k : m, 1));
  MatrixF b(tb == Trans::No ? k : n + pad, std::max(tb == Trans::No ? n : k, 1));
  fill_random_f(a.view(), seed + 1);
  fill_random_f(b.view(), seed + 2);
  MatrixF c0(m, std::max(n, 1));
  fill_random_f(c0.view(), seed + 3);

  MatrixF c_ref = c0;
  MatrixF c_packed = c0;
  ConstMatrixViewF av(a.data(), ta == Trans::No ? m : k,
                      ta == Trans::No ? k : m, a.rows());
  ConstMatrixViewF bv(b.data(), tb == Trans::No ? k : n,
                      tb == Trans::No ? n : k, b.rows());
  blas::gemm_ref(ta, tb, alpha, av, bv, beta,
                 MatrixViewF(c_ref.data(), m, n, c_ref.rows()));
  blas::gemm_packed(ta, tb, alpha, av, bv, beta,
                    MatrixViewF(c_packed.data(), m, n, c_packed.rows()));

  const float tol = 2e-6f * static_cast<float>(k + 8);
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < m; ++i) {
      const float scale = std::fmax(1.0f, std::fabs(c_ref(i, j)));
      ASSERT_NEAR(c_ref(i, j), c_packed(i, j), tol * scale)
          << "mismatch at (" << i << ", " << j << ")";
    }
  }
}

TEST(GemmFuzzF32, EveryIsaMatchesScalarReference) {
  IsaGuard guard;
  const int ms[] = {1, 7, 16, 32, 33, 47};
  const int ns[] = {1, 4, 6, 11};
  const int ks[] = {1, 9, 64};
  const Trans ts[] = {Trans::No, Trans::Yes};
  const float alphas[] = {0.0f, 1.0f, -0.75f};
  const float betas[] = {0.0f, 1.0f, -0.5f};
  for (Isa isa : supported_isas()) {
    SCOPED_TRACE(blas::simd::isa_name(isa));
    ASSERT_TRUE(blas::simd::set_isa(isa));
    int idx = 0;
    for (int m : ms) {
      for (int n : ns) {
        for (int k : ks) {
          run_case_f(m, n, k, ts[idx % 2], ts[(idx / 2) % 2], alphas[idx % 3],
                     betas[(idx / 3) % 3], idx % 3);
          ++idx;
        }
      }
    }
  }
}

// ---- op(B) read in place --------------------------------------------------

template <class T>
MatrixT<T> random_matrix_t(int rows, int cols, std::uint64_t seed) {
  MatrixT<T> a(rows, cols);
  Rng rng(seed);
  for (int j = 0; j < cols; ++j) {
    for (int i = 0; i < rows; ++i) {
      a(i, j) = static_cast<T>(rng.next_symmetric());
    }
  }
  return a;
}

template <class T>
bool bitwise_equal(const MatrixT<T>& x, const MatrixT<T>& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         std::memcmp(x.data(), y.data(),
                     sizeof(T) * static_cast<std::size_t>(x.rows()) *
                         x.cols()) == 0;
}

// The micro-kernel reads op(B) where it lies, and an edge tile aliases its
// missing columns to column 0 instead of reading past the last one. B sits
// in a buffer with three padding rows under it and two whole columns after
// it; the padding holds NaN in one run and zero in the other. If any load
// left op(B), the NaN would reach C, so C must be bitwise equal across the
// two fills and match the reference.
template <class T>
void in_place_b_case(Trans ta, Trans tb, int m, int n, int k) {
  SCOPED_TRACE(::testing::Message()
               << "m=" << m << " n=" << n << " k=" << k
               << " ta=" << (ta == Trans::No ? "N" : "T")
               << " tb=" << (tb == Trans::No ? "N" : "T"));
  constexpr int kPadRows = 3;
  constexpr int kPadCols = 2;
  const std::uint64_t seed = (static_cast<std::uint64_t>(m) << 40) ^
                             (static_cast<std::uint64_t>(n) << 20) ^
                             static_cast<std::uint64_t>(k);
  const MatrixT<T> a = ta == Trans::No ? random_matrix_t<T>(m, k, seed + 1)
                                       : random_matrix_t<T>(k, m, seed + 1);
  const int b_rows = tb == Trans::No ? k : n;
  const int b_cols = tb == Trans::No ? n : k;
  const MatrixT<T> b_vals = random_matrix_t<T>(b_rows, b_cols, seed + 2);
  const MatrixT<T> c0 = random_matrix_t<T>(m, n, seed + 3);
  const T alpha = T(-0.75);
  const T beta = T(0.5);

  MatrixT<T> c_fill[2];
  const T fills[2] = {std::numeric_limits<T>::quiet_NaN(), T(0)};
  for (int f = 0; f < 2; ++f) {
    MatrixT<T> buf(b_rows + kPadRows, b_cols + kPadCols);
    for (int j = 0; j < buf.cols(); ++j) {
      for (int i = 0; i < buf.rows(); ++i) {
        buf(i, j) = i < b_rows && j < b_cols ? b_vals(i, j) : fills[f];
      }
    }
    c_fill[f] = c0;
    blas::gemm_packed(ta, tb, alpha, a.view(),
                      ConstMatrixViewT<T>(buf.data(), b_rows, b_cols,
                                          buf.rows()),
                      beta, c_fill[f].view());
  }
  ASSERT_TRUE(bitwise_equal(c_fill[0], c_fill[1]))
      << "C depends on what lies outside op(B)";

  MatrixT<T> c_ref = c0;
  blas::gemm_ref(ta, tb, alpha, a.view(), b_vals.view(), beta, c_ref.view());
  const T tol = (sizeof(T) == sizeof(double) ? T(1e-13) : T(2e-6)) *
                static_cast<T>(k + 8);
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < m; ++i) {
      const T scale = std::max(T(1), std::fabs(c_ref(i, j)));
      ASSERT_NEAR(c_ref(i, j), c_fill[1](i, j), tol * scale)
          << "mismatch at (" << i << ", " << j << ")";
    }
  }
}

template <class T>
void in_place_b_sweep() {
  IsaGuard guard;
  for (Isa isa : supported_isas()) {
    SCOPED_TRACE(blas::simd::isa_name(isa));
    ASSERT_TRUE(blas::simd::set_isa(isa));
    const blas::simd::KernelTable<T>& kt = blas::simd::kernels<T>();
    std::vector<int> ns;
    for (int n = 1; n <= kt.nr + 1; ++n) ns.push_back(n);
    ns.push_back(2 * kt.nr + 3);
    int idx = 0;
    for (Trans tb : {Trans::No, Trans::Yes}) {
      for (int n : ns) {
        for (int k : {1, kKC, kKC + 7}) {
          for (int m : {1, kt.mr + 1, kMC + 5}) {
            const Trans ta = idx++ % 2 == 0 ? Trans::No : Trans::Yes;
            in_place_b_case<T>(ta, tb, m, n, k);
            if (::testing::Test::HasFatalFailure()) return;
          }
        }
      }
    }
  }
}

TEST(GemmFuzz, InPlaceBNeverReadOutsideOpB) { in_place_b_sweep<double>(); }

TEST(GemmFuzzF32, InPlaceBNeverReadOutsideOpB) { in_place_b_sweep<float>(); }

// A column of C sums the same products in the same order whatever tile it
// lands in and however wide the tile is: each column of a gemm_packed
// product is bitwise equal to that column computed alone (n = 1, always an
// edge tile). The n values are multiples of no register-tile width in use
// (4, 6 and 8 columns), and k crosses a KC block.
template <class T>
void column_independence_sweep() {
  IsaGuard guard;
  const T alpha = T(1.25);
  const T beta = T(-0.5);
  for (Isa isa : supported_isas()) {
    SCOPED_TRACE(blas::simd::isa_name(isa));
    ASSERT_TRUE(blas::simd::set_isa(isa));
    int idx = 0;
    for (Trans ta : {Trans::No, Trans::Yes}) {
      for (Trans tb : {Trans::No, Trans::Yes}) {
        for (int n : {7, 13, 23}) {
          const int m = 33 + 14 * (idx % 3);
          const int k = idx % 2 == 0 ? 19 : kKC + 5;
          SCOPED_TRACE(::testing::Message()
                       << "m=" << m << " n=" << n << " k=" << k
                       << " ta=" << (ta == Trans::No ? "N" : "T")
                       << " tb=" << (tb == Trans::No ? "N" : "T"));
          const std::uint64_t seed = 0x5eed0000ull + idx++;
          const MatrixT<T> a = ta == Trans::No
                                   ? random_matrix_t<T>(m, k, seed + 1)
                                   : random_matrix_t<T>(k, m, seed + 1);
          const MatrixT<T> b = tb == Trans::No
                                   ? random_matrix_t<T>(k, n, seed + 2)
                                   : random_matrix_t<T>(n, k, seed + 2);
          const MatrixT<T> c0 = random_matrix_t<T>(m, n, seed + 3);
          MatrixT<T> c_all = c0;
          blas::gemm_packed(ta, tb, alpha, a.view(), b.view(), beta,
                            c_all.view());
          MatrixT<T> c_col = c0;
          for (int j = 0; j < n; ++j) {
            const ConstMatrixViewT<T> bj =
                tb == Trans::No
                    ? ConstMatrixViewT<T>(b.data() + j * b.rows(), k, 1,
                                          b.rows())
                    : ConstMatrixViewT<T>(b.data() + j, 1, k, b.rows());
            blas::gemm_packed(ta, tb, alpha, a.view(), bj, beta,
                              MatrixViewT<T>(c_col.data() + j * c_col.rows(),
                                             m, 1, c_col.rows()));
          }
          ASSERT_TRUE(bitwise_equal(c_all, c_col))
              << "a column's result depends on the tile width";
        }
      }
    }
  }
}

TEST(GemmFuzz, ColumnResultIndependentOfTileWidth) {
  column_independence_sweep<double>();
}

TEST(GemmFuzzF32, ColumnResultIndependentOfTileWidth) {
  column_independence_sweep<float>();
}

// ---- Tile-kernel ISA cross-check ------------------------------------------
//
// Runs the four stacked kernels under each ISA and compares against the
// scalar run. The TT pair multiplies by each inner block's V2 triangle
// through the left trmm kernel; odd nb/ib leave a short last block, and a
// TT loser with m2 < nb rows ends V2 in a trapezoid, so every ISA's
// masked diagonal tiles and the trapezoid's gemm columns are checked.
template <class T>
std::vector<T> run_stacked_kernels(int nb, int ib, int m2,
                                   std::uint64_t seed) {
  kernels::Workspace ws;
  MatrixT<T> a1(nb, nb), a2(nb, nb), t(ib, nb), c1(nb, nb), c2(nb, nb);
  MatrixT<T> a3(m2, nb), t3(ib, nb), c3(m2, nb);
  Rng rng(seed);
  for (MatrixT<T>* m : {&a1, &a2, &c1, &c2, &a3, &c3}) {
    for (int j = 0; j < m->cols(); ++j) {
      for (int i = 0; i < m->rows(); ++i) {
        (*m)(i, j) = static_cast<T>(rng.next_symmetric());
      }
    }
  }
  // Make A1 upper triangular (R-tile contract of the stacked kernels).
  for (int j = 0; j < nb; ++j) {
    for (int i = j + 1; i < nb; ++i) a1(i, j) = T(0);
  }
  kernels::tsqrt(a1.view(), a2.view(), ib, t.view(), ws);
  kernels::tsmqr(blas::Trans::Yes, a2.view(), t.view(), ib, c1.view(),
                 c2.view(), ws);
  kernels::ttqrt(a1.view(), a3.view(), ib, t3.view(), ws);
  kernels::ttmqr(blas::Trans::Yes, a3.view(), t3.view(), ib, c1.view(),
                 c3.view(), ws);
  std::vector<T> out;
  for (const MatrixT<T>* m : {&a1, &a2, &t, &c1, &c2, &a3, &t3, &c3}) {
    out.insert(out.end(), m->data(), m->data() + m->rows() * m->cols());
  }
  return out;
}

template <class T>
void stacked_isa_cross_check(T tol) {
  IsaGuard guard;
  // (nb, ib, m2 of the TT loser)
  const std::tuple<int, int, int> shapes[] = {
      {40, 8, 40}, {37, 7, 37}, {24, 5, 24}, {37, 7, 18}};
  for (const auto& [nb, ib, m2] : shapes) {
    ASSERT_TRUE(blas::simd::set_isa(Isa::Scalar));
    const std::vector<T> ref = run_stacked_kernels<T>(nb, ib, m2, 97);
    for (Isa isa : supported_isas()) {
      if (isa == Isa::Scalar) continue;
      SCOPED_TRACE(::testing::Message() << blas::simd::isa_name(isa)
                                        << " nb=" << nb << " ib=" << ib
                                        << " m2=" << m2);
      ASSERT_TRUE(blas::simd::set_isa(isa));
      const std::vector<T> got = run_stacked_kernels<T>(nb, ib, m2, 97);
      ASSERT_EQ(ref.size(), got.size());
      for (std::size_t i = 0; i < ref.size(); ++i) {
        const T scale = std::fmax(T(1), std::fabs(ref[i]));
        ASSERT_NEAR(ref[i], got[i], tol * scale) << "element " << i;
      }
    }
  }
}

TEST(TileKernelIsaFuzz, StackedKernelsMatchScalarF64) {
  stacked_isa_cross_check<double>(1e-10);
}

TEST(TileKernelIsaFuzz, StackedKernelsMatchScalarF32) {
  stacked_isa_cross_check<float>(5e-4f);
}

// ---- Sub-micro-tile small-GEMM tier ---------------------------------------
//
// The direct (non-packing) small tier handles every shape below the
// work <= 64*MR*NR threshold; sweep all m, n in 1..16 with odd leading
// dimensions and every Trans pair, under every compiled-and-supported ISA,
// both through the public dispatcher (blas::gemm) and the gemm_small entry
// point itself.
TEST(GemmSmall, SubMicroTileShapesEveryIsa) {
  IsaGuard guard;
  const Trans ts[] = {Trans::No, Trans::Yes};
  const double alphas[] = {1.0, -0.75, 0.0};
  const double betas[] = {0.0, 1.0, -0.5};
  for (Isa isa : supported_isas()) {
    SCOPED_TRACE(blas::simd::isa_name(isa));
    ASSERT_TRUE(blas::simd::set_isa(isa));
    int idx = 0;
    for (int m = 1; m <= 16; ++m) {
      for (int n = 1; n <= 16; ++n) {
        const int k = 1 + (idx % 16);
        const Trans ta = ts[idx % 2];
        const Trans tb = ts[(idx / 2) % 2];
        const Case cs{m,
                      n,
                      k,
                      1 + idx % 2 * 2,  // odd ld padding on a
                      3 - idx % 2 * 2,  // and on b
                      idx % 5,
                      ta,
                      tb,
                      alphas[idx % 3],
                      betas[(idx / 3) % 3]};
        run_case(cs);
        // Same shape straight through gemm_small (the dispatcher may route
        // some of these to the packed path if the threshold moves).
        std::uint64_t seed = 0xc0ffee ^ (static_cast<std::uint64_t>(idx) << 8);
        Matrix a = make_operand(ta, m, k, cs.lda_pad, seed + 1);
        Matrix b = make_operand(tb, k, n, cs.ldb_pad, seed + 2);
        Matrix c0(m + cs.ldc_pad, n);
        fill_random(c0.view(), seed + 3);
        Matrix c_ref = c0;
        Matrix c_small = c0;
        ConstMatrixView av = operand_view(a, ta, m, k);
        ConstMatrixView bv = operand_view(b, tb, k, n);
        blas::gemm_ref(ta, tb, cs.alpha, av, bv, cs.beta,
                       MatrixView(c_ref.data(), m, n, c_ref.rows()));
        blas::gemm_small(ta, tb, cs.alpha, av, bv, cs.beta,
                         MatrixView(c_small.data(), m, n, c_small.rows()));
        const double tol = tol_for(k);
        for (int j = 0; j < n; ++j) {
          for (int i = 0; i < m; ++i) {
            const double scale = std::fmax(1.0, std::fabs(c_ref(i, j)));
            ASSERT_NEAR(c_ref(i, j), c_small(i, j), tol * scale)
                << "gemm_small mismatch at (" << i << ", " << j << ") m=" << m
                << " n=" << n << " k=" << k;
          }
        }
        ++idx;
      }
    }
  }
}

TEST(GemmSmallF32, SubMicroTileShapesEveryIsa) {
  IsaGuard guard;
  const Trans ts[] = {Trans::No, Trans::Yes};
  for (Isa isa : supported_isas()) {
    SCOPED_TRACE(blas::simd::isa_name(isa));
    ASSERT_TRUE(blas::simd::set_isa(isa));
    int idx = 0;
    for (int m = 1; m <= 16; m += 3) {
      for (int n = 1; n <= 16; n += 3) {
        for (int k : {1, 5, 16}) {
          const Trans ta = ts[idx % 2];
          const Trans tb = ts[(idx / 2) % 2];
          const std::uint64_t seed = 0xf32f32 + idx;
          MatrixF a(ta == Trans::No ? m + 1 : k + 1, std::max(ta == Trans::No ? k : m, 1));
          MatrixF b(tb == Trans::No ? k + 3 : n + 3, std::max(tb == Trans::No ? n : k, 1));
          fill_random_f(a.view(), seed + 1);
          fill_random_f(b.view(), seed + 2);
          MatrixF c0(m, n);
          fill_random_f(c0.view(), seed + 3);
          MatrixF c_ref = c0;
          MatrixF c_small = c0;
          ConstMatrixViewF av(a.data(), ta == Trans::No ? m : k,
                              ta == Trans::No ? k : m, a.rows());
          ConstMatrixViewF bv(b.data(), tb == Trans::No ? k : n,
                              tb == Trans::No ? n : k, b.rows());
          blas::gemm_ref(ta, tb, 1.25f, av, bv, -0.5f,
                         MatrixViewF(c_ref.data(), m, n, c_ref.rows()));
          blas::gemm_small(ta, tb, 1.25f, av, bv, -0.5f,
                           MatrixViewF(c_small.data(), m, n, c_small.rows()));
          const float tol = 2e-6f * static_cast<float>(k + 8);
          for (int j = 0; j < n; ++j) {
            for (int i = 0; i < m; ++i) {
              const float scale = std::fmax(1.0f, std::fabs(c_ref(i, j)));
              ASSERT_NEAR(c_ref(i, j), c_small(i, j), tol * scale)
                  << "f32 gemm_small mismatch at (" << i << ", " << j
                  << ") m=" << m << " n=" << n << " k=" << k;
            }
          }
          ++idx;
        }
      }
    }
  }
}

TEST(GemmSmall, ThresholdDerivesFromActiveTable) {
  IsaGuard guard;
  for (Isa isa : supported_isas()) {
    SCOPED_TRACE(blas::simd::isa_name(isa));
    ASSERT_TRUE(blas::simd::set_isa(isa));
    const auto& kt64 = blas::simd::kernels<double>();
    const auto& kt32 = blas::simd::kernels<float>();
    EXPECT_EQ(blas::gemm_small_max_work_f64(), 64LL * kt64.mr * kt64.nr);
    EXPECT_EQ(blas::gemm_small_max_work_f32(), 64LL * kt32.mr * kt32.nr);
  }
}

}  // namespace
}  // namespace pulsarqr
