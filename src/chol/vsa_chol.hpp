// Tile Cholesky mapped onto the PULSAR runtime — the paper's stated
// follow-up work ("to map other algorithms onto PULSAR"), built with the
// same streaming idioms as the QR array:
//
//   * one Panel VDP P(k) per step: first tile -> potrf (L_kk held),
//     further tiles -> trsm against the held L_kk; every produced L tile
//     is broadcast to the step's update VDPs through a by-passing chain
//     (node by node, see plan::ColumnPlacement);
//   * one Update VDP S(k,j) per trailing column: consumes the L chain in
//     row order, keeps L_jk when it passes, pairs every L_ik (i >= j)
//     with the streamed tile A(i,j) (syrk at i == j, gemm after) and
//     forwards the updated tile to step k+1;
//   * tile-stream channels start disabled on VDPs that first need to
//     drain the chain (j > k+1) and are enabled on the fly, mirroring the
//     QR array's dynamic channel control.
//
// Finalized L tiles exit into a shared result store; the output is
// bitwise identical to chol::tile_cholesky.
#pragma once

#include "chol/reference_chol.hpp"
#include "prt/graph_check.hpp"
#include "prt/vsa.hpp"

namespace pulsarqr::chol {

/// The Cholesky array has no shape knobs of its own: its options are the
/// runtime's prt::Vsa::Config. Socket node processes deposit the final L
/// tiles straight into the parent's vsaqr::TileStore slots.
using VsaCholOptions = prt::Vsa::Config;

struct VsaCholRun {
  TileMatrix l;  ///< lower triangle holds the factor
  prt::Vsa::RunStats stats;
  std::vector<prt::trace::Event> events;
  int vdp_count = 0;
  int channel_count = 0;
};

/// Factorize an SPD tile matrix on the systolic array. Only the lower
/// triangle of `a` is read.
VsaCholRun vsa_cholesky(const TileMatrix& a, const VsaCholOptions& opt);

/// Build the Cholesky array for `a` and statically verify it with
/// prt::GraphCheck, without executing it (see the vsa_lint tool).
prt::GraphReport lint_vsa_cholesky(const TileMatrix& a,
                                   const VsaCholOptions& opt);

enum CholTraceColor { kCholPanel = 0, kCholUpdate = 1 };

}  // namespace pulsarqr::chol
