// Microbenchmarks of the six tile kernels (Section V-B) and the dense QR
// building blocks. These numbers calibrate the simulator's kernel
// efficiency model for *this* host; the Kraken model in sim/machine.hpp
// uses the paper's platform instead.
//
// The run's context names the dispatched ISA and each kernel table's
// register tile (kernel_isa, tile_f64, tile_f32), so a saved JSON report
// says which micro-kernel produced its numbers.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <new>
#include <string>
#include <vector>

#include "blas/blas.hpp"
#include "blas/simd.hpp"
#include "chol/reference_chol.hpp"
#include "common/rng.hpp"
#include "kernels/tile_kernels.hpp"
#include "lapack/cholesky.hpp"
#include "lapack/lu.hpp"
#include "lapack/qr.hpp"
#include "lu/reference_lu.hpp"
#include "plan/flops.hpp"

namespace {

using namespace pulsarqr;

Matrix random_matrix(int m, int n, std::uint64_t seed) {
  Matrix a(m, n);
  fill_random(a.view(), seed);
  return a;
}

// Square gemm C += op(A) op(B) at size nb; range(1)/range(2) select the
// Trans of A/B (0 = NoTrans), range(3) the implementation (0 = reference
// triple loop family, 1 = packed micro-kernel).
void BM_gemm(benchmark::State& state) {
  const int nb = static_cast<int>(state.range(0));
  const blas::Trans ta = state.range(1) ? blas::Trans::Yes : blas::Trans::No;
  const blas::Trans tb = state.range(2) ? blas::Trans::Yes : blas::Trans::No;
  const bool packed = state.range(3) != 0;
  Matrix a = random_matrix(nb, nb, 30);
  Matrix b = random_matrix(nb, nb, 31);
  Matrix c = random_matrix(nb, nb, 32);
  for (auto _ : state) {
    if (packed) {
      blas::gemm_packed(ta, tb, 1.0, a.view(), b.view(), 1.0, c.view());
    } else {
      blas::gemm_ref(ta, tb, 1.0, a.view(), b.view(), 1.0, c.view());
    }
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["Gflop/s"] = benchmark::Counter(
      2.0 * nb * nb * nb * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}

// The gemm products the tile kernels actually issue, C(m x n) += op(A)
// op(B) with inner dimension k: range(0)/range(1) the Trans of A/B, then
// m, n, k. TN 32x128x128 and NN 128x128x32 are tsmqr's W = V2b^T C2 and
// C2 -= V2b W at nb/ib 128/32 (16x64x64, 64x64x16 at 64/16); NT
// 128x128x128 is the Cholesky tile update. Through blas::gemm, so the
// small-shape crossover applies as it does in the kernels.
void BM_gemm_shape(benchmark::State& state) {
  const blas::Trans ta = state.range(0) ? blas::Trans::Yes : blas::Trans::No;
  const blas::Trans tb = state.range(1) ? blas::Trans::Yes : blas::Trans::No;
  const int m = static_cast<int>(state.range(2));
  const int n = static_cast<int>(state.range(3));
  const int k = static_cast<int>(state.range(4));
  Matrix a = ta == blas::Trans::No ? random_matrix(m, k, 33)
                                   : random_matrix(k, m, 33);
  Matrix b = tb == blas::Trans::No ? random_matrix(k, n, 34)
                                   : random_matrix(n, k, 34);
  Matrix c = random_matrix(m, n, 35);
  for (auto _ : state) {
    blas::gemm(ta, tb, 1.0, a.view(), b.view(), 1.0, c.view());
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["Gflop/s"] = benchmark::Counter(
      2.0 * m * n * k * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}

// One register tile of the active f64 table over an L1-resident panel
// pair: a packed mr x kc A panel and an in-place kc x nr NoTrans B. The
// ceiling the other gemm rows are read against. range(0) = kc.
void BM_gemm_micro(benchmark::State& state) {
  const int kc = static_cast<int>(state.range(0));
  const blas::simd::KernelTable<double>& kt = blas::simd::kernels<double>();
  const std::size_t ap_len = static_cast<std::size_t>(kt.mr) * kc;
  auto* ap = static_cast<double*>(
      ::operator new(ap_len * sizeof(double), std::align_val_t(64)));
  Rng rng(36);
  for (std::size_t i = 0; i < ap_len; ++i) ap[i] = rng.next_symmetric();
  const Matrix b = random_matrix(kc, kt.nr, 37);
  Matrix c = random_matrix(kt.mr, kt.nr, 38);
  for (auto _ : state) {
    kt.gemm_micro(kc, 1.0, ap, b.data(), 1, b.rows(), c.data(), c.rows(),
                  kt.mr, kt.nr);
    benchmark::DoNotOptimize(c.data());
  }
  ::operator delete(ap, std::align_val_t(64));
  state.counters["Gflop/s"] = benchmark::Counter(
      2.0 * kt.mr * kt.nr * kc * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}

Matrix upper(const Matrix& a) {
  Matrix r(a.rows(), a.cols());
  for (int j = 0; j < a.cols(); ++j) {
    for (int i = 0; i <= j && i < a.rows(); ++i) r(i, j) = a(i, j);
    if (j < a.rows()) r(j, j) += 2.0;
  }
  return r;
}

void BM_geqrt(benchmark::State& state) {
  const int nb = static_cast<int>(state.range(0));
  const int ib = static_cast<int>(state.range(1));
  Matrix a0 = random_matrix(nb, nb, 1);
  Matrix t(ib, nb);
  for (auto _ : state) {
    state.PauseTiming();
    Matrix a = a0;
    state.ResumeTiming();
    kernels::geqrt(a.view(), ib, t.view());
    benchmark::DoNotOptimize(a.data());
  }
  state.counters["Gflop/s"] = benchmark::Counter(
      plan::flops_geqrt(nb, nb) * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}

void BM_tsqrt(benchmark::State& state) {
  const int nb = static_cast<int>(state.range(0));
  const int ib = static_cast<int>(state.range(1));
  Matrix r0 = upper(random_matrix(nb, nb, 2));
  Matrix a0 = random_matrix(nb, nb, 3);
  Matrix t(ib, nb);
  for (auto _ : state) {
    state.PauseTiming();
    Matrix r = r0;
    Matrix a = a0;
    state.ResumeTiming();
    kernels::tsqrt(r.view(), a.view(), ib, t.view());
    benchmark::DoNotOptimize(a.data());
  }
  state.counters["Gflop/s"] = benchmark::Counter(
      plan::flops_tsqrt(nb, nb) * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}

void BM_ttqrt(benchmark::State& state) {
  const int nb = static_cast<int>(state.range(0));
  const int ib = static_cast<int>(state.range(1));
  Matrix r0 = upper(random_matrix(nb, nb, 4));
  Matrix a0 = upper(random_matrix(nb, nb, 5));
  Matrix t(ib, nb);
  for (auto _ : state) {
    state.PauseTiming();
    Matrix r = r0;
    Matrix a = a0;
    state.ResumeTiming();
    kernels::ttqrt(r.view(), a.view(), ib, t.view());
    benchmark::DoNotOptimize(a.data());
  }
  state.counters["Gflop/s"] = benchmark::Counter(
      plan::flops_ttqrt(nb) * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}

void BM_ormqr(benchmark::State& state) {
  const int nb = static_cast<int>(state.range(0));
  const int ib = static_cast<int>(state.range(1));
  Matrix v = random_matrix(nb, nb, 6);
  Matrix t(ib, nb);
  kernels::geqrt(v.view(), ib, t.view());
  Matrix c = random_matrix(nb, nb, 7);
  for (auto _ : state) {
    kernels::ormqr(blas::Trans::Yes, v.view(), t.view(), ib, c.view());
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["Gflop/s"] = benchmark::Counter(
      plan::flops_ormqr(nb, nb, nb) * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}

void BM_tsmqr(benchmark::State& state) {
  const int nb = static_cast<int>(state.range(0));
  const int ib = static_cast<int>(state.range(1));
  Matrix r = upper(random_matrix(nb, nb, 8));
  Matrix v = random_matrix(nb, nb, 9);
  Matrix t(ib, nb);
  kernels::tsqrt(r.view(), v.view(), ib, t.view());
  Matrix c1 = random_matrix(nb, nb, 10);
  Matrix c2 = random_matrix(nb, nb, 11);
  for (auto _ : state) {
    kernels::tsmqr(blas::Trans::Yes, v.view(), t.view(), ib, c1.view(),
                   c2.view());
    benchmark::DoNotOptimize(c2.data());
  }
  state.counters["Gflop/s"] = benchmark::Counter(
      plan::flops_tsmqr(nb, nb, nb) * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}

void BM_ttmqr(benchmark::State& state) {
  const int nb = static_cast<int>(state.range(0));
  const int ib = static_cast<int>(state.range(1));
  Matrix r = upper(random_matrix(nb, nb, 12));
  Matrix v = upper(random_matrix(nb, nb, 13));
  Matrix t(ib, nb);
  kernels::ttqrt(r.view(), v.view(), ib, t.view());
  Matrix c1 = random_matrix(nb, nb, 14);
  Matrix c2 = random_matrix(nb, nb, 15);
  for (auto _ : state) {
    kernels::ttmqr(blas::Trans::Yes, v.view(), t.view(), ib, c1.view(),
                   c2.view());
    benchmark::DoNotOptimize(c2.data());
  }
  state.counters["Gflop/s"] = benchmark::Counter(
      plan::flops_ttmqr(nb, nb) * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}

// The Euclidean norm every larfg takes of its reflector's tail: lengths
// 15, 63 and 127 are the tails of 16-, 64- and 128-row columns. range(1)
// picks the precision (0 = f64, 1 = f32). Entries are O(1), so the sum of
// squares takes the one-pass SIMD path; rated in elements per second.
template <class T>
void nrm2_loop(benchmark::State& state, int n) {
  std::vector<T> x(n);
  Rng rng(15);
  for (T& v : x) v = static_cast<T>(rng.next_symmetric());
  for (auto _ : state) {
    benchmark::DoNotOptimize(x.data());
    benchmark::DoNotOptimize(blas::nrm2(n, x.data()));
  }
}

void BM_nrm2(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  if (state.range(1) == 0) {
    nrm2_loop<double>(state, n);
  } else {
    nrm2_loop<float>(state, n);
  }
  state.counters["elem/s"] = benchmark::Counter(
      static_cast<double>(n) * state.iterations(),
      benchmark::Counter::kIsRate);
}

// Left trmm W := op(A) W on an ib-by-nb W, every T- and V1-multiply of
// the tile kernels. range(2) picks the shape: 0 = Upper/Trans/NonUnit (the
// T^T W of Q^T applies), 1 = Lower/Trans/Unit (the V1^T C1 of larfb_left,
// hence geqrt/ormqr), 2 = Upper/NoTrans/NonUnit (the T W of Q applies),
// 3 = Lower/NoTrans/Unit (larfb_left's V1 W). Each iteration first
// restores W from a pristine copy (the lacpy the tile kernels also run
// before their trmm), so repeated products neither overflow nor decay into
// subnormals. Rated at the nominal ib*ib*nb flops of a left trmm.
void BM_trmm(benchmark::State& state) {
  const int nb = static_cast<int>(state.range(0));
  const int ib = static_cast<int>(state.range(1));
  const bool larfb = state.range(2) % 2 != 0;
  const blas::Trans trans =
      state.range(2) < 2 ? blas::Trans::Yes : blas::Trans::No;
  const blas::Uplo uplo = larfb ? blas::Uplo::Lower : blas::Uplo::Upper;
  const blas::Diag diag = larfb ? blas::Diag::Unit : blas::Diag::NonUnit;
  const Matrix t = random_matrix(ib, ib, 16);
  const Matrix w0 = random_matrix(ib, nb, 17);
  Matrix w(ib, nb);
  for (auto _ : state) {
    blas::lacpy_all(w0.view(), w.view());
    blas::trmm(blas::Side::Left, uplo, trans, diag, 1.0, t.view(), w.view());
    benchmark::DoNotOptimize(w.data());
  }
  state.counters["Gflop/s"] = benchmark::Counter(
      static_cast<double>(ib) * ib * nb * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}

// The per-tile panel solve of the factorization arrays: X * op(A) = B on
// one nb x nb tile. range(1) 0 is Cholesky's (Right, Lower, Trans,
// NonUnit) against a potf2 factor, 1 is LU's (Right, Upper, NoTrans,
// NonUnit) against a getf2 factor. Each iteration restores B from a
// pristine copy (an nb*nb lacpy inside the timing). Rated at the nominal
// nb^3 flops of a right trsm.
void BM_trsm(benchmark::State& state) {
  const int nb = static_cast<int>(state.range(0));
  const bool lu = state.range(1) != 0;
  Matrix a = lu ? pulsarqr::lu::random_diag_dominant(nb, nb, 18)
                : pulsarqr::chol::random_spd(nb, 18);
  if (lu) {
    lapack::getf2_nopiv(a.view());
  } else {
    lapack::potf2(a.view());
  }
  const Matrix b0 = random_matrix(nb, nb, 19);
  Matrix b(nb, nb);
  for (auto _ : state) {
    blas::lacpy_all(b0.view(), b.view());
    blas::trsm(blas::Side::Right, lu ? blas::Uplo::Upper : blas::Uplo::Lower,
               lu ? blas::Trans::No : blas::Trans::Yes, blas::Diag::NonUnit,
               1.0, a.view(), b.view());
    benchmark::DoNotOptimize(b.data());
  }
  state.counters["Gflop/s"] = benchmark::Counter(
      static_cast<double>(nb) * nb * nb * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}

// ---- Single-precision rows (templated kernel path) ------------------------

MatrixF random_matrix_f(int m, int n, std::uint64_t seed) {
  MatrixF a(m, n);
  Rng rng(seed);
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < m; ++i) {
      a(i, j) = static_cast<float>(rng.next_symmetric());
    }
  }
  return a;
}

MatrixF upper_f(const MatrixF& a) {
  MatrixF r(a.rows(), a.cols());
  for (int j = 0; j < a.cols(); ++j) {
    for (int i = 0; i <= j && i < a.rows(); ++i) r(i, j) = a(i, j);
    if (j < a.rows()) r(j, j) += 2.0f;
  }
  return r;
}

void BM_gemm_f32(benchmark::State& state) {
  const int nb = static_cast<int>(state.range(0));
  MatrixF a = random_matrix_f(nb, nb, 40);
  MatrixF b = random_matrix_f(nb, nb, 41);
  MatrixF c = random_matrix_f(nb, nb, 42);
  for (auto _ : state) {
    blas::gemm_packed(blas::Trans::No, blas::Trans::No, 1.0f, a.view(),
                      b.view(), 1.0f, c.view());
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["Gflop/s"] = benchmark::Counter(
      2.0 * nb * nb * nb * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}

void BM_tsmqr_f32(benchmark::State& state) {
  const int nb = static_cast<int>(state.range(0));
  const int ib = static_cast<int>(state.range(1));
  kernels::Workspace ws;
  MatrixF r = upper_f(random_matrix_f(nb, nb, 43));
  MatrixF v = random_matrix_f(nb, nb, 44);
  MatrixF t(ib, nb);
  kernels::tsqrt(r.view(), v.view(), ib, t.view(), ws);
  MatrixF c1 = random_matrix_f(nb, nb, 45);
  MatrixF c2 = random_matrix_f(nb, nb, 46);
  for (auto _ : state) {
    kernels::tsmqr(blas::Trans::Yes, v.view(), t.view(), ib, c1.view(),
                   c2.view(), ws);
    benchmark::DoNotOptimize(c2.data());
  }
  state.counters["Gflop/s"] = benchmark::Counter(
      plan::flops_tsmqr(nb, nb, nb) * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}

void BM_ttmqr_f32(benchmark::State& state) {
  const int nb = static_cast<int>(state.range(0));
  const int ib = static_cast<int>(state.range(1));
  kernels::Workspace ws;
  MatrixF r = upper_f(random_matrix_f(nb, nb, 47));
  MatrixF v = upper_f(random_matrix_f(nb, nb, 48));
  MatrixF t(ib, nb);
  kernels::ttqrt(r.view(), v.view(), ib, t.view(), ws);
  MatrixF c1 = random_matrix_f(nb, nb, 49);
  MatrixF c2 = random_matrix_f(nb, nb, 50);
  for (auto _ : state) {
    kernels::ttmqr(blas::Trans::Yes, v.view(), t.view(), ib, c1.view(),
                   c2.view(), ws);
    benchmark::DoNotOptimize(c2.data());
  }
  state.counters["Gflop/s"] = benchmark::Counter(
      plan::flops_ttmqr(nb, nb) * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}

void BM_potrf_tile(benchmark::State& state) {
  const int nb = static_cast<int>(state.range(0));
  Matrix spd = pulsarqr::chol::random_spd(nb, 20);
  for (auto _ : state) {
    state.PauseTiming();
    Matrix a = spd;
    state.ResumeTiming();
    lapack::potf2(a.view());
    benchmark::DoNotOptimize(a.data());
  }
  state.counters["Gflop/s"] = benchmark::Counter(
      static_cast<double>(nb) * nb * nb / 3.0 * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}

void BM_getrf_tile(benchmark::State& state) {
  const int nb = static_cast<int>(state.range(0));
  Matrix dd = pulsarqr::lu::random_diag_dominant(nb, nb, 21);
  for (auto _ : state) {
    state.PauseTiming();
    Matrix a = dd;
    state.ResumeTiming();
    lapack::getf2_nopiv(a.view());
    benchmark::DoNotOptimize(a.data());
  }
  state.counters["Gflop/s"] = benchmark::Counter(
      2.0 * nb * nb * nb / 3.0 * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}

void BM_dense_geqrf(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const int n = static_cast<int>(state.range(1));
  Matrix a0 = random_matrix(m, n, 16);
  std::vector<double> tau(n);
  for (auto _ : state) {
    state.PauseTiming();
    Matrix a = a0;
    state.ResumeTiming();
    lapack::geqrf(a.view(), tau.data());
    benchmark::DoNotOptimize(a.data());
  }
  state.counters["Gflop/s"] = benchmark::Counter(
      plan::qr_useful_flops(m, n) * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}

}  // namespace

// gemm at the tile sizes, all four Trans combinations, reference vs packed.
static void GemmArgs(benchmark::internal::Benchmark* b) {
  for (int nb : {64, 128, 192}) {
    for (int ta : {0, 1}) {
      for (int tb : {0, 1}) {
        for (int impl : {0, 1}) b->Args({nb, ta, tb, impl});
      }
    }
  }
}
BENCHMARK(BM_gemm)->Apply(GemmArgs)->Unit(benchmark::kMillisecond);

// {ta, tb, m, n, k}: tsmqr's two products at 128/32 and 64/16, then the
// Cholesky NT update.
BENCHMARK(BM_gemm_shape)->Args({1, 0, 32, 128, 128})
    ->Args({0, 0, 128, 128, 32})->Args({1, 0, 16, 64, 64})
    ->Args({0, 0, 64, 64, 16})->Args({0, 1, 128, 128, 128})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_gemm_micro)->Arg(128)->Unit(benchmark::kNanosecond);

// Paper tile sizes: nb in {192, 240}, ib = 48; smaller sizes for context.
BENCHMARK(BM_geqrt)->Args({64, 16})->Args({128, 32})->Args({192, 48})
    ->Args({240, 48})->Unit(benchmark::kMillisecond);
BENCHMARK(BM_tsqrt)->Args({64, 16})->Args({128, 32})->Args({192, 48})
    ->Args({240, 48})->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ttqrt)->Args({64, 16})->Args({128, 32})->Args({192, 48})
    ->Args({240, 48})->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ormqr)->Args({64, 16})->Args({128, 32})->Args({192, 48})
    ->Args({240, 48})->Unit(benchmark::kMillisecond);
BENCHMARK(BM_tsmqr)->Args({64, 16})->Args({128, 32})->Args({192, 48})
    ->Args({240, 48})->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ttmqr)->Args({64, 16})->Args({128, 32})->Args({192, 48})
    ->Args({240, 48})->Unit(benchmark::kMillisecond);
// larfg's tail norms at the 16-, 64- and 128-row columns, f64 then f32.
BENCHMARK(BM_nrm2)->ArgsProduct({{15, 63, 127}, {0, 1}})
    ->Unit(benchmark::kNanosecond);
// The T- and V1-multiplies at the stacked_apply and larfb_left shapes.
BENCHMARK(BM_trmm)->Args({64, 16, 0})->Args({128, 32, 0})
    ->Args({64, 16, 1})->Args({128, 32, 1})->Args({64, 16, 2})
    ->Args({128, 32, 2})->Args({64, 16, 3})->Args({128, 32, 3})
    ->Unit(benchmark::kMillisecond);
// Single-precision path: packed float gemm and the float stacked kernels
// (double-width SIMD lanes; compare against the f64 rows above).
BENCHMARK(BM_gemm_f32)->Arg(128)->Arg(192)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_tsmqr_f32)->Args({128, 32})->Args({192, 48})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ttmqr_f32)->Args({128, 32})->Args({192, 48})
    ->Unit(benchmark::kMillisecond);
// The Cholesky (0) and LU (1) panel solves at the tile sizes they run.
BENCHMARK(BM_trsm)->Args({64, 0})->Args({128, 0})->Args({64, 1})
    ->Args({128, 1})->Unit(benchmark::kMillisecond);
BENCHMARK(BM_potrf_tile)->Arg(64)->Arg(192)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_getrf_tile)->Arg(64)->Arg(192)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_dense_geqrf)->Args({768, 192})->Args({1024, 64})
    ->Unit(benchmark::kMillisecond);

// google-benchmark's stock main plus the kernel context: the ISA the
// dispatch picked and each table's register tile.
int main(int argc, char** argv) {
  namespace simd = pulsarqr::blas::simd;
  const auto& kt64 = simd::kernels<double>();
  const auto& kt32 = simd::kernels<float>();
  benchmark::AddCustomContext("kernel_isa",
                              simd::isa_name(simd::active_isa()));
  benchmark::AddCustomContext(
      "tile_f64", std::to_string(kt64.mr) + "x" + std::to_string(kt64.nr));
  benchmark::AddCustomContext(
      "tile_f32", std::to_string(kt32.mr) + "x" + std::to_string(kt32.nr));
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
