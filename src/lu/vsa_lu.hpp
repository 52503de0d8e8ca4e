// Tile LU (no pivoting) mapped onto the PULSAR runtime — the third
// algorithm on the runtime, and the original systolic-array showcase
// (Kung & Leiserson, reference [8] of the paper).
//
// Streaming structure per step k, mirroring the Cholesky array:
//   * Panel VDP P(k): first tile -> getrf (the packed LU of the diagonal
//     tile, held), further tiles -> trsm against the held U; the held
//     LU(k,k) followed by every L(i,k) is broadcast to the step's update
//     VDPs through a by-passing chain (node by node, see
//     plan::ColumnPlacement);
//   * Update VDP S(k,j): first chain packet is LU(k,k) -> trsm_L turns
//     its held top tile into the final U(k,j); every later chain packet
//     L(i,k) pairs with the streamed tile A(i,j) (gemm) which then flows
//     to step k+1.
// Unlike QR/Cholesky, every channel is consumed from the first firing,
// so no dynamic channel enabling is needed — LU is the simplest of the
// three arrays.
#pragma once

#include "lu/reference_lu.hpp"
#include "prt/graph_check.hpp"
#include "prt/vsa.hpp"

namespace pulsarqr::lu {

/// The LU array has no shape knobs of its own: its options are the
/// runtime's prt::Vsa::Config. Socket node processes deposit the final
/// packed factors straight into the parent's vsaqr::TileStore slots.
using VsaLuOptions = prt::Vsa::Config;

struct VsaLuRun {
  TileMatrix f;  ///< packed factors: U upper, unit-L below
  prt::Vsa::RunStats stats;
  std::vector<prt::trace::Event> events;
  int vdp_count = 0;
  int channel_count = 0;
};

/// Factorize a tile matrix (no pivoting — the input must be safe for it,
/// e.g. diagonally dominant) on the systolic array.
VsaLuRun vsa_lu(const TileMatrix& a, const VsaLuOptions& opt);

/// Build the LU array for `a` and statically verify it with
/// prt::GraphCheck, without executing it (see the vsa_lint tool).
prt::GraphReport lint_vsa_lu(const TileMatrix& a, const VsaLuOptions& opt);

enum LuTraceColor { kLuPanel = 0, kLuUpdate = 1 };

}  // namespace pulsarqr::lu
