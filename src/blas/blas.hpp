// From-scratch BLAS subset used by the QR kernels.
//
// Only the operations the library needs are provided, all on column-major
// views. Operand aliasing is not supported unless a routine documents it.
//
// The primary interface is double precision; the routines the tile-kernel
// layer is templated over (level 1, trmv/trmm, gemm and the copy/set
// helpers) also have float overloads so the single-precision kernel path
// is end-to-end. The level-1 sweeps and gemm micro-kernels route through
// the runtime-dispatched SIMD kernel tables (blas/simd.hpp).
#pragma once

#include "common/view.hpp"

namespace pulsarqr::blas {

enum class Trans { No, Yes };
enum class Side { Left, Right };
enum class Uplo { Upper, Lower };
enum class Diag { NonUnit, Unit };

// ---- Level 1 -------------------------------------------------------------

/// y := a*x + y (length n).
void axpy(int n, double a, const double* x, double* y);

/// x := a*x (length n).
void scal(int n, double a, double* x);

/// Dot product of two length-n vectors.
double dot(int n, const double* x, const double* y);

/// Euclidean norm of a length-n vector: one SIMD sum of squares when it
/// is finite and at least min/eps, else LAPACK dlassq's scaled loop (NaN,
/// Inf, zero, overflowing and near-underflow inputs).
double nrm2(int n, const double* x);

/// y := x (length n).
void copy(int n, const double* x, double* y);

// ---- Level 2 -------------------------------------------------------------

/// y := alpha * op(A) * x + beta * y.
void gemv(Trans trans, double alpha, ConstMatrixView a, const double* x,
          double beta, double* y);

/// A := A + alpha * x * y^T.
void ger(double alpha, const double* x, const double* y, MatrixView a);

/// x := op(A) * x for triangular A (n-by-n).
void trmv(Uplo uplo, Trans trans, Diag diag, ConstMatrixView a, double* x);

/// Solve op(A) * x = b in place for triangular A (x overwrites b).
void trsv(Uplo uplo, Trans trans, Diag diag, ConstMatrixView a, double* x);

// ---- Level 3 -------------------------------------------------------------

/// C := alpha * op(A) * op(B) + beta * C. Products large enough to
/// amortize packing run the cache-blocked MC/KC loop nest over packed op(A)
/// panels and an in-place op(B) (gemm_packed); smaller ones the direct
/// small tier. C must not share elements with op(A) or op(B).
void gemm(Trans ta, Trans tb, double alpha, ConstMatrixView a,
          ConstMatrixView b, double beta, MatrixView c);

/// gemm_ref is the unblocked column-sweep reference (the test oracle and
/// the bench baseline); gemm_packed the packed path. Same contract as
/// gemm() but never re-dispatch.
void gemm_ref(Trans ta, Trans tb, double alpha, ConstMatrixView a,
              ConstMatrixView b, double beta, MatrixView c);
void gemm_packed(Trans ta, Trans tb, double alpha, ConstMatrixView a,
                 ConstMatrixView b, double beta, MatrixView c);

/// Direct small-shape implementation: no packing, no pack-buffer touch —
/// the operands are streamed straight through the active kernel table's
/// fused column sweeps (axpy_cols / dot_cols). This is where gemm() sends
/// products below gemm_small_max_work(); directly callable for A/B tests
/// and benches. Same contract as gemm().
void gemm_small(Trans ta, Trans tb, double alpha, ConstMatrixView a,
                ConstMatrixView b, double beta, MatrixView c);
void gemm_small(Trans ta, Trans tb, float alpha, ConstMatrixViewF a,
                ConstMatrixViewF b, float beta, MatrixViewF c);

/// Largest m*n*k the Packed dispatch routes to gemm_small instead of the
/// packed loop nest. Derived from the active kernel table's register tile
/// (64 micro-tile volumes, i.e. 64*mr*nr), not a hard-coded constant: the
/// packing sweep amortizes later on tables with bigger tiles.
long long gemm_small_max_work_f64();
long long gemm_small_max_work_f32();

/// B := alpha * op(A) * B (Side::Left) or alpha * B * op(A) (Side::Right),
/// A triangular. Only the referenced triangle of A is read; with
/// Diag::Unit the diagonal is not read either, and no product with an
/// unread entry enters any sum (an Inf in B reaches exactly the rows op(A)
/// couples it to). Side::Left packs op(A) and runs the active SIMD table's
/// register-tiled trmm kernel; triangles over 64 rows split in halves
/// around one gemm.
void trmm(Side side, Uplo uplo, Trans trans, Diag diag, double alpha,
          ConstMatrixView a, MatrixView b);

/// Solve op(A) * X = alpha * B (Side::Left) or X * op(A) = alpha * B
/// (Side::Right) in place, A triangular; X overwrites B. Side::Left runs
/// one trsv per column. Side::Right is a column recurrence up to 16
/// columns; wider solves split their columns in halves around one gemm.
void trsm(Side side, Uplo uplo, Trans trans, Diag diag, double alpha,
          ConstMatrixView a, MatrixView b);

// ---- Auxiliary (LAPACK-style helpers) -------------------------------------

/// Set off-diagonal entries to `off` and diagonal entries to `diag`.
void laset(Uplo uplo, double off, double diag, MatrixView a);
/// Variant that sets the full rectangle.
void laset_all(double off, double diag, MatrixView a);

/// Copy (part of) a matrix: B := A.
void lacpy_all(ConstMatrixView a, MatrixView b);
void lacpy(Uplo uplo, ConstMatrixView a, MatrixView b);

/// Frobenius norm.
double norm_fro(ConstMatrixView a);
/// Max-abs entry.
double norm_max(ConstMatrixView a);
/// One-norm (max column sum).
double norm_one(ConstMatrixView a);

// ---- Single-precision overloads ------------------------------------------
//
// The subset the templated kernel layer (gemm packing + micro-kernels,
// stacked tsqrt/tsmqr/ttqrt/ttmqr cores, larfg) instantiates for float.
// Semantics match the double versions exactly.

void axpy(int n, float a, const float* x, float* y);
void scal(int n, float a, float* x);
float dot(int n, const float* x, const float* y);
float nrm2(int n, const float* x);
void copy(int n, const float* x, float* y);

void gemv(Trans trans, float alpha, ConstMatrixViewF a, const float* x,
          float beta, float* y);
void ger(float alpha, const float* x, const float* y, MatrixViewF a);
void trmv(Uplo uplo, Trans trans, Diag diag, ConstMatrixViewF a, float* x);

void gemm(Trans ta, Trans tb, float alpha, ConstMatrixViewF a,
          ConstMatrixViewF b, float beta, MatrixViewF c);
void gemm_ref(Trans ta, Trans tb, float alpha, ConstMatrixViewF a,
              ConstMatrixViewF b, float beta, MatrixViewF c);
void gemm_packed(Trans ta, Trans tb, float alpha, ConstMatrixViewF a,
                 ConstMatrixViewF b, float beta, MatrixViewF c);
void trmm(Side side, Uplo uplo, Trans trans, Diag diag, float alpha,
          ConstMatrixViewF a, MatrixViewF b);

void laset_all(float off, float diag, MatrixViewF a);
void lacpy_all(ConstMatrixViewF a, MatrixViewF b);

}  // namespace pulsarqr::blas
