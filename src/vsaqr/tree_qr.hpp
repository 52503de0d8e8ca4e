// Public driver for the tree-based QR decomposition on a 3D Virtual
// Systolic Array (Section V of the paper).
//
// tree_qr() builds the VSA for the requested reduction tree (flat, binary,
// or binary-on-flat with domain size h and fixed/shifted boundaries), runs
// it on the PULSAR runtime across virtual nodes and worker threads, and
// returns the same TreeQrFactors the sequential reference executor
// produces — bit-for-bit, since both issue identical kernel sequences.
#pragma once

#include <vector>

#include "plan/reduction_plan.hpp"
#include "prt/graph_check.hpp"
#include "prt/vsa.hpp"
#include "ref/reference_qr.hpp"
#include "tile/tile_matrix.hpp"

namespace pulsarqr::vsaqr {

/// Tree QR options: the runtime's own prt::Vsa::Config (nodes, workers,
/// scheduling, transport, reliability, crash recovery, ...)
/// plus the factorization's shape knobs. Socket node processes deposit
/// result tiles straight into the parent's ResultStore slots; a run with
/// max_respawns > 0 also switches the store to idempotent re-deposits.
struct TreeQrOptions : prt::Vsa::Config {
  plan::PlanConfig tree;  ///< reduction tree (kind, h, boundary mode)
  int ib = 32;            ///< inner block size
  /// Eliminate only this many tile columns (> 0); the remaining columns
  /// are swept by the updates only and come out as Q^T applied to them.
  /// Used by tree_qr_solve to factorize [A | B] in one pass.
  int panel_columns = -1;
};

struct TreeQrRun {
  ref::TreeQrFactors factors;
  prt::Vsa::RunStats stats;
  std::vector<prt::trace::Event> events;  ///< populated when trace is on
  int vdp_count = 0;
  int channel_count = 0;
};

/// Factorize a tile matrix on the virtual systolic array. The input matrix
/// is read-only; its tiles are fed into the array as packets.
TreeQrRun tree_qr(const TileMatrix& a, const TreeQrOptions& opt);

/// Build the factorization array for `a` and statically verify it with
/// prt::GraphCheck, without executing a single firing. A well-formed plan
/// yields a report with no diagnostics; used by the vsa_lint tool.
prt::GraphReport lint_tree_qr(const TileMatrix& a, const TreeQrOptions& opt);

/// The 2013 "domino QR" (the paper's predecessor [4]): the flat-tree
/// special case of the same array.
TreeQrRun domino_qr(const TileMatrix& a, TreeQrOptions opt);

/// Communication-avoiding TSQR: the QR of a single tile-column panel
/// (n <= nb) by pure binary reduction — the classic tall-skinny kernel.
/// Returns the factors (R in tile (0,0); the per-level V/T packets in the
/// usual layout) after running the array with TreeKind::Binary.
TreeQrRun tsqr(const TileMatrix& a, TreeQrOptions opt);

/// Apply Q^T to a block of vectors on the systolic array, streaming B's
/// tiles through the factorization's own array built without its factor
/// VDPs, its (V,T) chains fed from the stored factors. Lets one factorization
/// serve many right-hand-side batches without re-running the reduction.
/// B must have the same row count and tile size as the factored matrix;
/// returns Q^T B.
TileMatrix apply_qt(const ref::TreeQrFactors& factors, const TileMatrix& b,
                    const TreeQrOptions& opt);

/// Solve min_X ||A X - B|| entirely on the systolic array: the augmented
/// matrix [A | B] streams through the array with the elimination stopped
/// at A's columns, so B's columns come out as Q^T B and only the final
/// triangular solve runs on the host. A is m-by-n with m >= n, B is
/// m-by-nrhs; returns the n-by-nrhs solution.
Matrix tree_qr_solve(const TileMatrix& a, ConstMatrixView b,
                     TreeQrOptions opt);

/// VDP colors used for tracing, matching Figure 7's palette: red = flat
/// panel factorization, orange = flat trailing updates, blue = binary.
enum TraceColor { kColorFactor = 0, kColorUpdate = 1, kColorBinary = 2 };

}  // namespace pulsarqr::vsaqr
