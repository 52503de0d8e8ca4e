// Task graph generation for the performance simulator.
//
// The graph mirrors what the PULSAR runtime actually executes: one task
// per plan op, serialized per VDP (a VDP fires one packet at a time),
// with RAW dependencies through tiles and transformation packets. WAR
// hazards do not exist in the systolic implementation — transformations
// travel as copied (V,T) packets — so they produce no edges, unlike a
// conservative superscalar analysis.
//
// Each task is statically assigned to a worker thread by the paper's
// mapping (Section V-D): flat VDPs cyclically in creation order, binary
// VDPs on the thread of their winner-side child. On one node this is the
// VSA builder's mapping too. On several nodes the builder instead keeps
// each domain's pipeline on one node (node-blocked placement,
// vsaqr/tree3d_builder.cpp); the simulator keeps the cyclic spread, which
// its cheap links reward (EXPERIMENTS.md, §V-D "node-blocked placement").
#pragma once

#include <cstdint>
#include <vector>

#include "plan/reduction_plan.hpp"
#include "sim/cost_model.hpp"

namespace pulsarqr::sim {

enum class EdgeKind : std::uint8_t {
  Serial,  ///< same-VDP ordering (no message)
  Tile,    ///< tile packet
  Vt,      ///< (V,T) transformation packet
};

struct TaskGraph {
  int num_tasks = 0;
  int num_threads = 0;
  int workers_per_node = 0;
  std::vector<float> duration;  ///< seconds per task
  std::vector<std::int32_t> thread;

  // Predecessor lists in CSR form.
  std::vector<std::int64_t> pred_offset;  ///< size num_tasks + 1
  std::vector<std::int32_t> pred_task;
  std::vector<EdgeKind> pred_kind;

  int node_of(int task) const { return thread[task] / workers_per_node; }
};

/// The paper's cyclic flat-VDP thread assignment: the VDP handling
/// (panel k, domain d, column l) is worker
/// (base_k + d*(nt-k) + (l-k)) mod P with base_k the creation-order prefix.
class VdpThreadMap {
 public:
  VdpThreadMap(int mt, int nt, const plan::PlanConfig& cfg, int num_threads);

  int flat_thread(int k, int domain, int l) const;
  /// Domain index of head row i at panel k (closed form per tree kind).
  int domain_index(int k, int i) const;

 private:
  int mt_, nt_, threads_;
  plan::PlanConfig cfg_;
  std::vector<std::int64_t> base_;  ///< creation-order prefix per panel
};

/// Build the full task graph for a plan on `nodes` nodes of the machine.
TaskGraph build_task_graph(const plan::ReductionPlan& plan,
                           const CostModel& cost, int nodes);

}  // namespace pulsarqr::sim
