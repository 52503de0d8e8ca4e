// Placement of the column arrays — tile Cholesky (src/chol) and tile LU
// (src/lu) — onto nodes and workers. Both arrays have one panel VDP P(k)
// per step and one update VDP S(k,j) per trailing column; the solid stream
// S(k,j) -> S(k+1,j) (or P(k+1) at j = k+1) stays in column j, and step
// k's L chain visits every update column of the step.
//
//   * Column ownership: P(j) and every S(k,j) live on node(j). Columns are
//     dealt to the nodes in serpentine order 0, 1, ..., N-1, N-1, ..., 1,
//     0, 0, 1, ..., which evens out the firings (later columns carry more
//     work); inside a node the worker is that node's own creation-order
//     counter mod workers_per_node. Solid streams never cross nodes.
//   * Node-ordered chain: step k's chain visits the update columns node by
//     node, in increasing column inside a node, starting with the node
//     that owns column k+1 (so S(k,k+1), which feeds P(k+1), stays first)
//     and then taking the nodes in the order their first column appears.
//     The chain crosses nodes at most `nodes` times per step.
//
// On one node this is the creation-order cyclic mapping over the workers
// and the chain runs in column order. Only the joins cross nodes, the
// layout TSQR/CAQR rely on (data stays on the node that reduces it).
// With fewer update columns than nodes some nodes idle.
#pragma once

#include <vector>

namespace pulsarqr::plan {

class ColumnPlacement {
 public:
  ColumnPlacement(int nodes, int workers_per_node);

  /// Node that owns column `j`.
  int node(int j) const;

  /// Global worker thread (node * workers_per_node + worker) of the next
  /// VDP created in column `j`; call once per VDP, in creation order.
  int next(int j);

  /// Chain order of the update columns [first, end) of one step.
  std::vector<int> chain(int first, int end) const;

 private:
  int nodes_;
  int wpn_;
  std::vector<int> created_;  ///< VDPs placed so far, per node
};

}  // namespace pulsarqr::plan
