// Unit tests for the from-scratch BLAS subset.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <thread>
#include <vector>

#include "blas/blas.hpp"
#include "blas/simd.hpp"
#include "common/rng.hpp"
#include "isa_guard.hpp"

namespace pulsarqr {
namespace {

using blas::Diag;
using blas::Side;
using blas::Trans;
using blas::Uplo;

Matrix random_matrix(int m, int n, std::uint64_t seed) {
  Matrix a(m, n);
  fill_random(a.view(), seed);
  return a;
}

// Naive reference gemm for validation.
Matrix naive_gemm(Trans ta, Trans tb, double alpha, const Matrix& a,
                  const Matrix& b, double beta, const Matrix& c) {
  Matrix out = c;
  const int m = c.rows();
  const int n = c.cols();
  const int k = ta == Trans::No ? a.cols() : a.rows();
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < m; ++i) {
      double s = 0.0;
      for (int p = 0; p < k; ++p) {
        const double av = ta == Trans::No ? a(i, p) : a(p, i);
        const double bv = tb == Trans::No ? b(p, j) : b(j, p);
        s += av * bv;
      }
      out(i, j) = alpha * s + beta * c(i, j);
    }
  }
  return out;
}

double max_diff(const Matrix& a, const Matrix& b) {
  double d = 0.0;
  for (int j = 0; j < a.cols(); ++j) {
    for (int i = 0; i < a.rows(); ++i) {
      d = std::fmax(d, std::fabs(a(i, j) - b(i, j)));
    }
  }
  return d;
}

// The first kernel call of a process resolves and publishes the SIMD
// kernel tables; other threads read them through a lock-free load. Here
// several threads race that first call (ctest runs each case in a fresh
// process, so it is the process's first use). Under TSan this pins the
// release/acquire pairing of the publication: with a relaxed pair a
// thread could read a table's entries before their initialization by the
// publishing thread is visible to it.
TEST(SimdDispatch, ConcurrentFirstKernelCallsAreRaceFree) {
  std::vector<double> sums(4, 0.0);
  std::vector<float> fsums(4, 0.0f);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      const std::vector<double> x(16, 1.0);
      const std::vector<float> xf(16, 1.0f);
      sums[t] = blas::dot(16, x.data(), x.data());
      fsums[t] = blas::dot(16, xf.data(), xf.data());
    });
  }
  for (std::thread& th : threads) th.join();
  for (double s : sums) EXPECT_EQ(s, 16.0);
  for (float s : fsums) EXPECT_EQ(s, 16.0f);
}

TEST(Level1, AxpyScalDotCopy) {
  std::vector<double> x = {1.0, 2.0, 3.0};
  std::vector<double> y = {4.0, 5.0, 6.0};
  blas::axpy(3, 2.0, x.data(), y.data());
  EXPECT_DOUBLE_EQ(y[0], 6.0);
  EXPECT_DOUBLE_EQ(y[2], 12.0);
  blas::scal(3, 0.5, y.data());
  EXPECT_DOUBLE_EQ(y[1], 4.5);
  EXPECT_DOUBLE_EQ(blas::dot(3, x.data(), x.data()), 14.0);
  std::vector<double> z(3);
  blas::copy(3, x.data(), z.data());
  EXPECT_EQ(z, x);
}

TEST(Level1, Nrm2MatchesSqrtDot) {
  Rng rng(7);
  std::vector<double> x(257);
  for (auto& v : x) v = rng.next_symmetric();
  const double n1 = blas::nrm2(static_cast<int>(x.size()), x.data());
  const double n2 = std::sqrt(blas::dot(static_cast<int>(x.size()), x.data(), x.data()));
  EXPECT_NEAR(n1, n2, 1e-12 * n2);
}

TEST(Level1, Nrm2AvoidsOverflow) {
  std::vector<double> x = {1e200, 1e200};
  EXPECT_DOUBLE_EQ(blas::nrm2(2, x.data()), std::sqrt(2.0) * 1e200);
  std::vector<double> tiny = {1e-200, 1e-200};
  EXPECT_NEAR(blas::nrm2(2, tiny.data()), std::sqrt(2.0) * 1e-200,
              1e-210);
}

// ---- nrm2: the one-pass sum of squares and its scaled fallback -----------
//
// nrm2 keeps one SIMD sum of squares when it is finite and at least
// min/eps, and otherwise runs the scaled dlassq loop. Every result must
// lie within 2n*eps of a long double reference (plus the subnormal
// spacing, which bounds how well a norm below min can be represented at
// all). Inputs whose true sum of squares overflows, or lies below min/eps
// by a margin the fast sum cannot bridge, and every input holding a NaN,
// an Inf or only zeros, must return exactly what the scaled loop returns.
// Lengths straddle every vector width W and the four-accumulator stride
// 4W; f64 and f32 on every ISA.

// The scaled loop of LAPACK dlassq, the reference nrm2's fallback must
// match bit for bit.
template <class T>
T nrm2_scaled_loop(int n, const T* x) {
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

template <class T>
void nrm2_case(const std::vector<T>& x, const char* what) {
  const int n = static_cast<int>(x.size());
  SCOPED_TRACE(::testing::Message() << what << " n=" << n);
  const T got = blas::nrm2(n, x.data());
  const T old = nrm2_scaled_loop(n, x.data());
  bool nonfinite = false;
  T amax = T(0);
  for (T v : x) {
    if (!std::isfinite(v)) {
      nonfinite = true;
    } else {
      amax = std::fmax(amax, std::fabs(v));
    }
  }
  if (nonfinite || amax == T(0)) {  // NaN, Inf or all zeros
    if (std::isnan(old)) {
      ASSERT_TRUE(std::isnan(got)) << got;
    } else {
      ASSERT_EQ(got, old);
    }
    return;
  }
  // Reference: x scaled by the power of two at amax's exponent, so the
  // long double sum neither overflows nor underflows on any platform.
  int e = 0;
  (void)std::frexp(amax, &e);
  long double sigma = 0.0L;
  for (T v : x) {
    const long double s = std::ldexp(static_cast<long double>(v), -e);
    sigma += s * s;
  }
  const long double ref = std::ldexp(std::sqrt(sigma), e);
  const long double log2_ssq = 2.0L * e + std::log2(sigma);
  const long double log2_floor = std::log2(static_cast<long double>(
      std::numeric_limits<T>::min() / std::numeric_limits<T>::epsilon()));
  const bool must_fall_back =
      log2_ssq > std::numeric_limits<T>::max_exponent + 1 ||
      log2_ssq < log2_floor - 1;
  if (must_fall_back) {
    ASSERT_EQ(got, old) << "fallback not taken";
  }
  const long double tol =
      2.0L * std::max(n, 1) * std::numeric_limits<T>::epsilon() * ref +
      std::numeric_limits<T>::denorm_min();
  ASSERT_LE(std::fabs(static_cast<long double>(got) - ref), tol)
      << "got " << got << " ref " << static_cast<double>(ref);
}

template <class T>
void nrm2_sweep() {
  IsaGuard guard;
  using L = std::numeric_limits<T>;
  const T nan = L::quiet_NaN();
  const T inf = L::infinity();
  const int emax = L::max_exponent;  // 1024 (f64), 128 (f32)
  for (blas::simd::Isa isa : supported_isas()) {
    SCOPED_TRACE(blas::simd::isa_name(isa));
    ASSERT_TRUE(blas::simd::set_isa(isa));
    // W - 1, W, W + 1 and 4W +- 1 for every vector width W in 1..16.
    const int ns[] = {0,  1,  2,  3,  4,  5,  7,  8,  9,   15,  16,
                      17, 31, 32, 33, 63, 64, 65, 127, 128, 129, 257};
    Rng rng(77);
    auto random_vec = [&](int n, int exponent) {
      std::vector<T> x(n);
      for (T& v : x) {
        v = static_cast<T>(std::ldexp(rng.next_symmetric(), exponent));
      }
      return x;
    };
    for (int n : ns) {
      // Magnitudes across the type's range, 2^(f * emax): f = +-0.97 is
      // about 1e+-300 in f64; f = 0.5 puts the squares at the overflow
      // threshold and f = -0.5 below min (the fallback's two ends).
      for (double f : {-0.97, -0.7, -0.5, -0.45, -0.3, -0.1, 0.0, 0.1, 0.3,
                       0.45, 0.49, 0.5, 0.7, 0.97}) {
        nrm2_case(random_vec(n, static_cast<int>(f * emax)), "magnitude");
      }
      // Subnormal entries only.
      std::vector<T> sub(n);
      for (T& v : sub) {
        v = L::denorm_min() * static_cast<T>(1 + rng.next_u64() % 1000);
      }
      nrm2_case(sub, "subnormal");
      // Tiny entries (squares underflow to zero or a subnormal) mixed with
      // O(1) ones: the fast sum stays, its lost squares are negligible.
      std::vector<T> mixed = random_vec(n, 0);
      for (int i = 0; i < n; i += 3) {
        mixed[i] = static_cast<T>(std::ldexp(rng.next_symmetric(),
                                             L::min_exponent / 2 - 8));
      }
      nrm2_case(mixed, "tiny among O(1)");
      // Tiny entries mixed with huge ones whose squares overflow.
      std::vector<T> huge = random_vec(n, L::min_exponent / 2 - 8);
      for (int i = 1; i < n; i += 4) {
        huge[i] = static_cast<T>(std::ldexp(1.0 + rng.next_unit(),
                                            emax * 3 / 5));
      }
      nrm2_case(huge, "tiny among huge");
      // Every square finite, their sum not.
      std::vector<T> over(n, static_cast<T>(std::ldexp(1.5, emax / 2 - 1)));
      nrm2_case(over, "sum overflows");
      nrm2_case(std::vector<T>(n, T(0)), "all zero");
      // NaN, +Inf, -Inf in every slot (a sample of slots past 33), alone
      // and together.
      for (int slot = 0; slot < n; slot += n > 33 ? 7 : 1) {
        for (T bad : {nan, inf, -inf}) {
          std::vector<T> x = random_vec(n, 0);
          x[slot] = bad;
          nrm2_case(x, "non-finite slot");
        }
        std::vector<T> both = random_vec(n, 0);
        both[slot] = inf;
        both[(slot + n / 2) % n] = nan;
        nrm2_case(both, "Inf and NaN");
      }
    }
  }
}

TEST(Nrm2Fuzz, FastPathAndFallbackF64) { nrm2_sweep<double>(); }

TEST(Nrm2Fuzz, FastPathAndFallbackF32) { nrm2_sweep<float>(); }

TEST(Level2, GemvBothTrans) {
  Matrix a = random_matrix(5, 3, 11);
  std::vector<double> x = {1.0, -2.0, 0.5};
  std::vector<double> y(5, 1.0);
  blas::gemv(Trans::No, 2.0, a.view(), x.data(), 3.0, y.data());
  for (int i = 0; i < 5; ++i) {
    double s = 0.0;
    for (int j = 0; j < 3; ++j) s += a(i, j) * x[j];
    EXPECT_NEAR(y[i], 2.0 * s + 3.0, 1e-14);
  }
  std::vector<double> xt = {1.0, -1.0, 2.0, 0.5, 0.25};
  std::vector<double> yt(3, -1.0);
  blas::gemv(Trans::Yes, 1.5, a.view(), xt.data(), 0.5, yt.data());
  for (int j = 0; j < 3; ++j) {
    double s = 0.0;
    for (int i = 0; i < 5; ++i) s += a(i, j) * xt[i];
    EXPECT_NEAR(yt[j], 1.5 * s - 0.5, 1e-14);
  }
}

TEST(Level2, Ger) {
  Matrix a = random_matrix(4, 3, 13);
  Matrix a0 = a;
  std::vector<double> x = {1.0, 2.0, 3.0, 4.0};
  std::vector<double> y = {0.5, -1.0, 2.0};
  blas::ger(2.0, x.data(), y.data(), a.view());
  for (int j = 0; j < 3; ++j) {
    for (int i = 0; i < 4; ++i) {
      EXPECT_NEAR(a(i, j), a0(i, j) + 2.0 * x[i] * y[j], 1e-14);
    }
  }
}

class GemmParam : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmParam, AllTransCombosMatchNaive) {
  const auto [m, n, k] = GetParam();
  for (Trans ta : {Trans::No, Trans::Yes}) {
    for (Trans tb : {Trans::No, Trans::Yes}) {
      Matrix a = ta == Trans::No ? random_matrix(m, k, 1) : random_matrix(k, m, 1);
      Matrix b = tb == Trans::No ? random_matrix(k, n, 2) : random_matrix(n, k, 2);
      Matrix c = random_matrix(m, n, 3);
      Matrix expect = naive_gemm(ta, tb, 1.7, a, b, -0.3, c);
      blas::gemm(ta, tb, 1.7, a.view(), b.view(), -0.3, c.view());
      EXPECT_LT(max_diff(c, expect), 1e-12 * (1.0 + k));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, GemmParam,
                         ::testing::Values(std::make_tuple(1, 1, 1),
                                           std::make_tuple(3, 4, 5),
                                           std::make_tuple(8, 8, 8),
                                           std::make_tuple(17, 5, 9),
                                           std::make_tuple(2, 31, 6),
                                           std::make_tuple(24, 24, 1)));

TEST(Level3, GemmBetaZeroIgnoresGarbage) {
  Matrix a = random_matrix(3, 3, 5);
  Matrix b = random_matrix(3, 3, 6);
  Matrix c(3, 3);
  c(0, 0) = std::nan("");
  Matrix zero(3, 3);
  Matrix expect = naive_gemm(Trans::No, Trans::No, 1.0, a, b, 0.0, zero);
  blas::gemm(Trans::No, Trans::No, 1.0, a.view(), b.view(), 0.0, c.view());
  EXPECT_LT(max_diff(c, expect), 1e-13);
}

Matrix make_triangular(int n, Uplo uplo, std::uint64_t seed) {
  Matrix a = random_matrix(n, n, seed);
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < n; ++i) {
      const bool keep = uplo == Uplo::Upper ? i <= j : i >= j;
      if (!keep) a(i, j) = 0.0;
    }
    a(j, j) += 3.0;  // well conditioned
  }
  return a;
}

class TriParam
    : public ::testing::TestWithParam<std::tuple<Side, Uplo, Trans, Diag>> {};

// A product must not depend on where its operands sit in memory. GCC
// vectorized scalar loops of the -O3 kernel tables behind a runtime alias
// check and, with its default FMA contraction, rounded the vector and the
// scalar copy differently, so C placed right after A moved in the last bit
// (a chaos-test flake: heap-allocated reference tiles sometimes sat that
// close).
TEST(Level3, GemmIsIndependentOfOperandPlacement) {
  IsaGuard guard;
  const int n = 5;
  Matrix a(n, n), b(n, n), c(n, n);
  fill_random(a.view(), 61);
  fill_random(b.view(), 62);
  fill_random(c.view(), 63);
  for (blas::simd::Isa isa : supported_isas()) {
    SCOPED_TRACE(blas::simd::isa_name(isa));
    ASSERT_TRUE(blas::simd::set_isa(isa));
    std::vector<double> first;
    // C starts `gap` doubles after A in one buffer; 512 keeps them apart.
    for (int gap : {512, n * n, n * n + 1, n * n + 2, n * n + 3}) {
      std::vector<double> buf(1024, 0.0);
      std::copy(a.data(), a.data() + n * n, buf.data());
      std::copy(c.data(), c.data() + n * n, buf.data() + gap);
      blas::gemm(Trans::No, Trans::No, -1.0,
                 ConstMatrixView(buf.data(), n, n, n), b.view(), 1.0,
                 MatrixView(buf.data() + gap, n, n, n));
      const std::vector<double> out(buf.data() + gap, buf.data() + gap + n * n);
      if (first.empty()) {
        first = out;
      } else {
        ASSERT_EQ(out, first) << "C placed " << gap << " doubles after A";
      }
    }
  }
}

TEST_P(TriParam, TrmmMatchesGemm) {
  const auto [side, uplo, trans, diag] = GetParam();
  const int n = 7;
  const int m = 5;
  Matrix a = make_triangular(side == Side::Left ? m : n, uplo, 21);
  Matrix aeff = a;
  if (diag == Diag::Unit) {
    for (int j = 0; j < aeff.cols(); ++j) aeff(j, j) = 1.0;
  }
  Matrix b = random_matrix(m, n, 22);
  Matrix expect(m, n);
  if (side == Side::Left) {
    expect = naive_gemm(trans, Trans::No, 1.3, aeff, b, 0.0, expect);
  } else {
    expect = naive_gemm(Trans::No, trans, 1.3, b, aeff, 0.0, expect);
  }
  blas::trmm(side, uplo, trans, diag, 1.3, a.view(), b.view());
  EXPECT_LT(max_diff(b, expect), 1e-12);
}

TEST_P(TriParam, TrsmInvertsTrmm) {
  const auto [side, uplo, trans, diag] = GetParam();
  const int n = 6;
  const int m = 4;
  Matrix a = make_triangular(side == Side::Left ? m : n, uplo, 31);
  Matrix b = random_matrix(m, n, 32);
  Matrix b0 = b;
  blas::trmm(side, uplo, trans, diag, 1.0, a.view(), b.view());
  blas::trsm(side, uplo, trans, diag, 1.0, a.view(), b.view());
  EXPECT_LT(max_diff(b, b0), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, TriParam,
    ::testing::Combine(::testing::Values(Side::Left, Side::Right),
                       ::testing::Values(Uplo::Upper, Uplo::Lower),
                       ::testing::Values(Trans::No, Trans::Yes),
                       ::testing::Values(Diag::NonUnit, Diag::Unit)));

// ---- trmm triangle discipline ---------------------------------------------
//
// trmm must read only the referenced triangle of A, and under Diag::Unit
// not even the diagonal. Every entry it must not read holds NaN (so does
// A's padding below row k), so any stray read poisons the result; the
// expected value is gemm_ref on the dense effective operand (zeros off the
// triangle, ones on a unit diagonal). Every side/uplo/trans/diag
// combination, f64 and f32, on every compiled ISA, at depths straddling
// the four-column and vector-width fringes, with odd other dimensions,
// padded leading dimensions and a general alpha. Tolerance is the
// standard depth-k bound on the absolute-value product.

template <class T>
void trmm_nan_case(Side side, Uplo uplo, Trans trans, Diag diag, int k,
                   int other, int pad, T alpha, std::uint64_t seed) {
  SCOPED_TRACE(::testing::Message()
               << "side=" << (side == Side::Left ? "L" : "R")
               << " uplo=" << (uplo == Uplo::Upper ? "U" : "L")
               << " trans=" << (trans == Trans::No ? "N" : "T")
               << " diag=" << (diag == Diag::Unit ? "U" : "N") << " k=" << k
               << " other=" << other << " pad=" << pad);
  const T nan = std::numeric_limits<T>::quiet_NaN();
  Rng rng(seed);
  // A (k-by-k in a (k+pad)-row buffer) and its dense effective operand.
  MatrixT<T> a(k + pad, k);
  MatrixT<T> aeff(k, k);
  for (int j = 0; j < k; ++j) {
    for (int i = 0; i < k + pad; ++i) {
      const T v = static_cast<T>(rng.next_symmetric());
      const bool in_tri = i < k && (uplo == Uplo::Upper ? i <= j : i >= j);
      const bool read = in_tri && !(i == j && diag == Diag::Unit);
      a(i, j) = read ? v : nan;
      if (i < k) aeff(i, j) = read ? v : (i == j ? T(1) : T(0));
    }
  }
  const int rows = side == Side::Left ? k : other;
  const int cols = side == Side::Left ? other : k;
  MatrixT<T> b(rows + pad, cols);
  for (int j = 0; j < cols; ++j) {
    for (int i = 0; i < rows + pad; ++i) {
      b(i, j) = static_cast<T>(rng.next_symmetric());
    }
  }
  const MatrixT<T> b0 = b;
  MatrixT<T> expect(rows, cols);
  MatrixT<T> bound(rows, cols);
  MatrixT<T> aabs(k, k);
  MatrixT<T> babs(rows, cols);
  for (int j = 0; j < k; ++j) {
    for (int i = 0; i < k; ++i) aabs(i, j) = std::fabs(aeff(i, j));
  }
  for (int j = 0; j < cols; ++j) {
    for (int i = 0; i < rows; ++i) babs(i, j) = std::fabs(b0(i, j));
  }
  ConstMatrixViewT<T> bv(b0.data(), rows, cols, rows + pad);
  if (side == Side::Left) {
    blas::gemm_ref(trans, Trans::No, alpha, aeff.view(), bv, T(0),
                   expect.view());
    blas::gemm_ref(trans, Trans::No, std::fabs(alpha), aabs.view(),
                   babs.view(), T(0), bound.view());
  } else {
    blas::gemm_ref(Trans::No, trans, alpha, bv, aeff.view(), T(0),
                   expect.view());
    blas::gemm_ref(Trans::No, trans, std::fabs(alpha), babs.view(),
                   aabs.view(), T(0), bound.view());
  }
  blas::trmm(side, uplo, trans, diag, alpha,
             ConstMatrixViewT<T>(a.data(), k, k, k + pad),
             MatrixViewT<T>(b.data(), rows, cols, rows + pad));
  const T eps = std::numeric_limits<T>::epsilon();
  for (int j = 0; j < cols; ++j) {
    for (int i = 0; i < rows; ++i) {
      const T tol = T(4) * T(k + 2) * eps * bound(i, j) +
                    std::numeric_limits<T>::min();
      ASSERT_NEAR(b(i, j), expect(i, j), tol)
          << "mismatch at (" << i << ", " << j << ")";
    }
    for (int i = rows; i < rows + pad; ++i) {
      ASSERT_EQ(b(i, j), b0(i, j)) << "padding clobbered";
    }
  }
}

template <class T>
void trmm_nan_sweep() {
  IsaGuard guard;
  // 97, 128 and 200 exceed the 64-row pack buffer of the left trmm, so
  // they run its split path (200 twice over). The column counts cover
  // every kernel's NR-wide tiles and their tails.
  const int ks[] = {1,  2,  3,  4,  5,  7,  8,  15, 16,
                    17, 31, 32, 33, 64, 97, 128, 200};
  const int others[] = {1, 3, 4, 7, 13, 64, 130};
  for (blas::simd::Isa isa : supported_isas()) {
    SCOPED_TRACE(blas::simd::isa_name(isa));
    ASSERT_TRUE(blas::simd::set_isa(isa));
    int idx = 0;
    for (Side side : {Side::Left, Side::Right}) {
      for (Uplo uplo : {Uplo::Upper, Uplo::Lower}) {
        for (Trans trans : {Trans::No, Trans::Yes}) {
          for (Diag diag : {Diag::NonUnit, Diag::Unit}) {
            for (int k : ks) {
              const T alpha = idx % 2 == 0 ? T(-0.75) : T(1.5);
              trmm_nan_case<T>(side, uplo, trans, diag, k, others[idx % 7],
                               1 + idx % 3, alpha, 900 + idx);
              ++idx;
            }
          }
        }
      }
    }
  }
}

TEST(TrmmFuzz, ReadsOnlyReferencedTriangleF64) { trmm_nan_sweep<double>(); }

TEST(TrmmFuzz, ReadsOnlyReferencedTriangleF32) { trmm_nan_sweep<float>(); }

// An Inf in row r of B must reach exactly the rows of the left product
// that op(A) couples to r — rows i <= r when op(A) is upper, i >= r when
// it is lower — and no others. A kernel that let an entry outside the
// triangle into a sum, even as an explicit zero, would turn 0 * Inf into
// a NaN in an uncoupled row. Every entry of op(A)'s triangle is nonzero,
// so every coupled row goes non-finite.
template <class T>
void trmm_inf_sweep() {
  IsaGuard guard;
  const T inf = std::numeric_limits<T>::infinity();
  const int ks[] = {1, 5, 16, 17, 33, 70};
  const int n = 13;
  for (blas::simd::Isa isa : supported_isas()) {
    SCOPED_TRACE(blas::simd::isa_name(isa));
    ASSERT_TRUE(blas::simd::set_isa(isa));
    for (Uplo uplo : {Uplo::Upper, Uplo::Lower}) {
      for (Trans trans : {Trans::No, Trans::Yes}) {
        for (Diag diag : {Diag::NonUnit, Diag::Unit}) {
          const bool lower = (uplo == Uplo::Lower) == (trans == Trans::No);
          for (int k : ks) {
            Rng rng(1000 + k);
            MatrixT<T> a(k, k);
            for (int j = 0; j < k; ++j) {
              for (int i = 0; i < k; ++i) {
                a(i, j) = static_cast<T>(0.5 + std::fabs(rng.next_symmetric()));
              }
            }
            for (int r = 0; r < k; r += k > 33 ? 7 : 1) {
              SCOPED_TRACE(::testing::Message()
                           << "uplo=" << (uplo == Uplo::Upper ? "U" : "L")
                           << " trans=" << (trans == Trans::No ? "N" : "T")
                           << " diag=" << (diag == Diag::Unit ? "U" : "N")
                           << " k=" << k << " r=" << r);
              MatrixT<T> b(k, n);
              for (int j = 0; j < n; ++j) {
                for (int i = 0; i < k; ++i) {
                  b(i, j) = static_cast<T>(rng.next_symmetric());
                }
                b(r, j) = j % 2 == 0 ? inf : -inf;
              }
              blas::trmm(Side::Left, uplo, trans, diag, T(-1.25), a.view(),
                         b.view());
              for (int j = 0; j < n; ++j) {
                for (int i = 0; i < k; ++i) {
                  const bool coupled = lower ? i >= r : i <= r;
                  ASSERT_EQ(!std::isfinite(b(i, j)), coupled)
                      << "row " << i << " col " << j << " = " << b(i, j);
                }
              }
            }
          }
        }
      }
    }
  }
}

TEST(TrmmFuzz, InfReachesExactlyTheCoupledRowsF64) { trmm_inf_sweep<double>(); }

TEST(TrmmFuzz, InfReachesExactlyTheCoupledRowsF32) { trmm_inf_sweep<float>(); }

// ---- trmv: every uplo/trans/diag against the dense product --------------
//
// x := op(A) x reads only A's referenced triangle, and under Diag::Unit
// not its diagonal: every other entry of the padded buffer holds NaN. The
// expected value is gemm_ref on the dense effective operand (zeros off the
// triangle, ones on a unit diagonal), within the depth-n bound on the
// absolute-value product. Every order from 1 to 33, which straddles the
// four-column blocks of the NoTrans sweeps and their remainders, and 64;
// padded leading dimensions; f64 and f32. Entries of x past n are
// sentinels trmv must not touch.

template <class T>
void trmv_case(Uplo uplo, Trans trans, Diag diag, int n, int pad,
               std::uint64_t seed) {
  SCOPED_TRACE(::testing::Message()
               << "uplo=" << (uplo == Uplo::Upper ? "U" : "L")
               << " trans=" << (trans == Trans::No ? "N" : "T")
               << " diag=" << (diag == Diag::Unit ? "U" : "N") << " n=" << n
               << " pad=" << pad);
  const T nan = std::numeric_limits<T>::quiet_NaN();
  Rng rng(seed);
  MatrixT<T> a(n + pad, n);
  MatrixT<T> aeff(n, n);
  MatrixT<T> aabs(n, n);
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < n + pad; ++i) {
      const T v = static_cast<T>(rng.next_symmetric());
      const bool in_tri = i < n && (uplo == Uplo::Upper ? i <= j : i >= j);
      const bool read = in_tri && !(i == j && diag == Diag::Unit);
      a(i, j) = read ? v : nan;
      if (i < n) {
        aeff(i, j) = read ? v : (i == j ? T(1) : T(0));
        aabs(i, j) = std::fabs(aeff(i, j));
      }
    }
  }
  MatrixT<T> x0(n, 1);
  MatrixT<T> xabs(n, 1);
  std::vector<T> x(n + pad, T(7));
  for (int i = 0; i < n; ++i) {
    x0(i, 0) = static_cast<T>(rng.next_symmetric());
    xabs(i, 0) = std::fabs(x0(i, 0));
    x[i] = x0(i, 0);
  }
  MatrixT<T> expect(n, 1);
  MatrixT<T> bound(n, 1);
  blas::gemm_ref(trans, Trans::No, T(1), aeff.view(), x0.view(), T(0),
                 expect.view());
  blas::gemm_ref(trans, Trans::No, T(1), aabs.view(), xabs.view(), T(0),
                 bound.view());
  blas::trmv(uplo, trans, diag, ConstMatrixViewT<T>(a.data(), n, n, n + pad),
             x.data());
  const T eps = std::numeric_limits<T>::epsilon();
  for (int i = 0; i < n; ++i) {
    const T tol =
        T(4) * T(n + 2) * eps * bound(i, 0) + std::numeric_limits<T>::min();
    ASSERT_NEAR(x[i], expect(i, 0), tol) << "mismatch at " << i;
  }
  for (int i = n; i < n + pad; ++i) ASSERT_EQ(x[i], T(7)) << "x overrun";
}

template <class T>
void trmv_sweep() {
  std::vector<int> ns;
  for (int n = 1; n <= 33; ++n) ns.push_back(n);
  ns.push_back(64);
  int idx = 0;
  for (Uplo uplo : {Uplo::Upper, Uplo::Lower}) {
    for (Trans trans : {Trans::No, Trans::Yes}) {
      for (Diag diag : {Diag::NonUnit, Diag::Unit}) {
        for (int n : ns) {
          trmv_case<T>(uplo, trans, diag, n, 1 + idx % 3, 1300 + idx);
          ++idx;
        }
      }
    }
  }
}

TEST(TrmvFuzz, MatchesDenseProductF64) { trmv_sweep<double>(); }

TEST(TrmvFuzz, MatchesDenseProductF32) { trmv_sweep<float>(); }

// ---- right-side trsm: the recursion against the column loop --------------
//
// A right-side trsm wider than 16 columns splits them in half around one
// gemm. It must stay as backward stable as the column recurrence it
// replaced: the residual X op(A) - alpha B, taken componentwise against
// |X| |op(A)| + |alpha B|, stays within c*n*eps for both. Every
// uplo/trans/diag combination on every compiled
// ISA, column counts straddling the 16-column leaf and its halvings, row
// counts down to none, padded leading dimensions, alpha != 1, and NaN in
// every entry of A the solve must not read.

// The column recurrence trsm ran for every right-side solve before the
// recursion (today's leaf).
void trsm_right_loop(Uplo uplo, Trans trans, Diag diag, double alpha,
                     ConstMatrixView a, MatrixView b) {
  const int n = b.cols;
  for (int j = 0; j < n; ++j) blas::scal(b.rows, alpha, b.col(j));
  auto op = [&](int i, int j) { return trans == Trans::No ? a(i, j) : a(j, i); };
  const bool upper = (uplo == Uplo::Upper) == (trans == Trans::No);
  for (int jj = 0; jj < n; ++jj) {
    const int j = upper ? jj : n - 1 - jj;
    const int k0 = upper ? 0 : j + 1;
    const int k1 = upper ? j : n;
    for (int k = k0; k < k1; ++k) {
      const double t = op(k, j);
      if (t != 0.0) blas::axpy(b.rows, -t, b.col(k), b.col(j));
    }
    if (diag == Diag::NonUnit) blas::scal(b.rows, 1.0 / a(j, j), b.col(j));
  }
}

// max over entries of |X op(A) - alpha B| / (|X| |op(A)| + |alpha B|),
// accumulated in long double so the measurement adds no error of its own.
double trsm_backward_error(Trans trans, double alpha, const Matrix& aeff,
                           const Matrix& b, const Matrix& x, int m, int n) {
  double worst = 0.0;
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < m; ++i) {
      long double r = -static_cast<long double>(alpha) * b(i, j);
      long double bound = std::fabs(alpha * b(i, j));
      for (int k = 0; k < n; ++k) {
        const double opa = trans == Trans::No ? aeff(k, j) : aeff(j, k);
        r += static_cast<long double>(x(i, k)) * opa;
        bound += std::fabs(static_cast<long double>(x(i, k)) * opa);
      }
      if (bound > 0) {
        worst = std::fmax(worst, static_cast<double>(std::fabs(r) / bound));
      }
    }
  }
  return worst;
}

TEST(TrsmFuzz, RightRecursionMatchesColumnLoop) {
  IsaGuard guard;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double eps = std::numeric_limits<double>::epsilon();
  const int ns[] = {1, 15, 16, 17, 33, 128, 130};
  const int ms[] = {0, 1, 7, 128};
  for (blas::simd::Isa isa : supported_isas()) {
    SCOPED_TRACE(blas::simd::isa_name(isa));
    ASSERT_TRUE(blas::simd::set_isa(isa));
    int idx = 0;
    for (Uplo uplo : {Uplo::Upper, Uplo::Lower}) {
      for (Trans trans : {Trans::No, Trans::Yes}) {
        for (Diag diag : {Diag::NonUnit, Diag::Unit}) {
          for (int n : ns) {
            for (int m : ms) {
              ++idx;
              SCOPED_TRACE(::testing::Message()
                           << "uplo=" << (uplo == Uplo::Upper ? "U" : "L")
                           << " trans=" << (trans == Trans::No ? "N" : "T")
                           << " diag=" << (diag == Diag::Unit ? "U" : "N")
                           << " n=" << n << " m=" << m);
              const int pad = 1 + idx % 3;
              const double alpha = idx % 2 == 0 ? -0.75 : 1.5;
              Rng rng(5000 + idx);
              Matrix a(n + pad, n);
              Matrix aeff(n, n);
              for (int j = 0; j < n; ++j) {
                for (int i = 0; i < n + pad; ++i) {
                  const double v = rng.next_symmetric();
                  const bool in_tri =
                      i < n && (uplo == Uplo::Upper ? i <= j : i >= j);
                  const bool read = in_tri && !(i == j && diag == Diag::Unit);
                  const double val = i == j ? std::copysign(1.0 + std::fabs(v), v) : v;
                  a(i, j) = read ? val : nan;
                  if (i < n) aeff(i, j) = read ? val : (i == j ? 1.0 : 0.0);
                }
              }
              Matrix b(m + pad, n);
              fill_random(b.view(), 6000 + idx);
              Matrix x_rec = b;
              Matrix x_loop = b;
              const ConstMatrixView av(a.data(), n, n, n + pad);
              blas::trsm(Side::Right, uplo, trans, diag, alpha, av,
                         MatrixView(x_rec.data(), m, n, m + pad));
              trsm_right_loop(uplo, trans, diag, alpha, av,
                              MatrixView(x_loop.data(), m, n, m + pad));
              const double tol = 4.0 * n * eps;
              const double eta_rec =
                  trsm_backward_error(trans, alpha, aeff, b, x_rec, m, n);
              const double eta_loop =
                  trsm_backward_error(trans, alpha, aeff, b, x_loop, m, n);
              ASSERT_LE(eta_loop, tol);
              ASSERT_LE(eta_rec, tol);
              for (int j = 0; j < n; ++j) {
                for (int i = m; i < m + pad; ++i) {
                  ASSERT_EQ(x_rec(i, j), b(i, j)) << "padding clobbered";
                }
              }
            }
          }
        }
      }
    }
  }
}

TEST(Level2, TrsvSolves) {
  Matrix a = make_triangular(8, Uplo::Upper, 41);
  std::vector<double> x = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<double> b = x;
  blas::trmv(Uplo::Upper, Trans::No, Diag::NonUnit, a.view(), b.data());
  blas::trsv(Uplo::Upper, Trans::No, Diag::NonUnit, a.view(), b.data());
  for (int i = 0; i < 8; ++i) EXPECT_NEAR(b[i], x[i], 1e-12);
}

TEST(Aux, LasetAndNorms) {
  Matrix a(3, 4);
  blas::laset_all(2.0, 5.0, a.view());
  EXPECT_DOUBLE_EQ(a(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(a(1, 0), 2.0);
  EXPECT_DOUBLE_EQ(a(2, 2), 5.0);
  EXPECT_DOUBLE_EQ(blas::norm_max(a.view()), 5.0);
  Matrix b(2, 2);
  b(0, 0) = 3.0;
  b(1, 1) = 4.0;
  EXPECT_DOUBLE_EQ(blas::norm_fro(b.view()), 5.0);
  b(0, 1) = -10.0;
  EXPECT_DOUBLE_EQ(blas::norm_one(b.view()), 14.0);
}

TEST(Aux, LacpyTriangles) {
  Matrix a = random_matrix(4, 4, 51);
  Matrix u(4, 4);
  Matrix l(4, 4);
  blas::lacpy(Uplo::Upper, a.view(), u.view());
  blas::lacpy(Uplo::Lower, a.view(), l.view());
  for (int j = 0; j < 4; ++j) {
    for (int i = 0; i < 4; ++i) {
      EXPECT_DOUBLE_EQ(u(i, j), i <= j ? a(i, j) : 0.0);
      EXPECT_DOUBLE_EQ(l(i, j), i >= j ? a(i, j) : 0.0);
    }
  }
}

}  // namespace
}  // namespace pulsarqr
