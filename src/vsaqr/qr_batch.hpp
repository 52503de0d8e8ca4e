// Batched small-matrix QR: one fused VSA plan for a whole batch.
//
// The paper's workload is one enormous factorization per run; the dominant
// production shape is the opposite — millions of tiny QRs (per-request
// least squares, MIMO channel inversion), where latency is all runtime
// overhead and no flops. qr_batch factors every matrix of a batch in place
// through ONE graph: each VDP owns a contiguous *slice of the batch*
// (rather than a tile of one matrix), fed by a prefilled source channel of
// [begin, end) range packets. Graph construction, GraphCheck and worker
// spawn are paid once per batch instead of once per matrix, and each VDP
// factors its matrices back-to-back with the geqrt panel kernel on its
// thread's reusable Workspace — after the first matrix warms the arena,
// the steady state performs no heap allocation.
//
// Both precisions ride the same templated builder: the f32 overload uses
// the float geqrt path (templated lapack panel kernels + f32 SIMD tables).
#pragma once

#include <span>
#include <vector>

#include "common/view.hpp"
#include "prt/vsa.hpp"

namespace pulsarqr::vsaqr {

/// Batch options: the runtime's prt::Vsa::Config plus the batch knobs.
/// Only the in-process transport is supported: results are written into
/// caller memory, which a forked node process cannot reach.
struct BatchOptions : prt::Vsa::Config {
  /// Inner block size of each matrix's geqrt (T factors are ib-by-n).
  int ib = 32;
  /// Matrices per VDP firing (one range packet each). 0 picks a chunk that
  /// gives every VDP several firings (watchdog heartbeats, readable
  /// traces) while keeping the packet count negligible.
  int chunk = 0;
  /// Record per-matrix factorization seconds into BatchRun::matrix_seconds
  /// (two clock reads per matrix; off for peak-throughput runs).
  bool record_latency = false;
};

struct BatchRun {
  prt::Vsa::RunStats stats;
  int vdp_count = 0;
  long long chunks = 0;  ///< range packets fed (total firings)
  /// Per-matrix kernel seconds, indexed like the input span (only when
  /// BatchOptions::record_latency; each VDP writes its own slice).
  std::vector<double> matrix_seconds;
};

/// Factor every a[i] in place (geqrt layout: R in the upper triangle,
/// Householder vectors below, T factors in t[i]). t[i] must be at least
/// min(ib, k_i)-by-k_i for k_i = min(a[i].rows, a[i].cols). The spans hold
/// const views (the view structs are not mutated; the matrix data is).
/// Results are bitwise identical to calling kernels::geqrt on each matrix
/// sequentially — both paths run the same kernel on the same bytes.
BatchRun qr_batch(std::span<const MatrixView> a, std::span<const MatrixView> t,
                  const BatchOptions& opt = {});
BatchRun qr_batch(std::span<const MatrixViewF> a,
                  std::span<const MatrixViewF> t, const BatchOptions& opt = {});

}  // namespace pulsarqr::vsaqr
