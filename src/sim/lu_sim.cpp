#include "sim/lu_sim.hpp"

#include <algorithm>

namespace pulsarqr::sim {

namespace {

double lu_task_seconds(const lu::Op& op, int m, int n, int nb,
                       const MachineModel& mm) {
  double eff;
  switch (op.kind) {
    case lu::OpKind::Getrf: eff = mm.eff_geqrt; break;
    case lu::OpKind::TrsmU:
    case lu::OpKind::TrsmL: eff = mm.eff_tsqrt; break;
    default: eff = mm.eff_tsmqr; break;
  }
  return lu::op_flops(op, m, n, nb) / (mm.core_peak_gflops * 1e9 * eff) +
         mm.task_overhead_s;
}

}  // namespace

SimResult simulate_lu(int m, int n, int nb, const MachineModel& mm,
                      int nodes) {
  const int mt = (m + nb - 1) / nb;
  const int nt = (n + nb - 1) / nb;
  lu::LuPlan plan(mt, nt);
  const auto& ops = plan.ops();
  // Per step k the VDPs are P(k), S(k,k+1), ..., S(k,nt-1).
  const TaskGraph g = build_column_task_graph(
      static_cast<int>(ops.size()), std::min(mt, nt), nt, mm, nodes,
      [&](int x) {
        const lu::Op& op = ops[x];
        ColumnTask t{op.k, op.k, lu_task_seconds(op, m, n, nb, mm)};
        switch (op.kind) {
          case lu::OpKind::Getrf:
            t.touch(op.k, op.k, true);
            break;
          case lu::OpKind::TrsmU:
            t.touch(op.k, op.k, false);
            t.touch(op.i, op.k, true);
            break;
          case lu::OpKind::TrsmL:
            t.j = op.j;
            t.touch(op.k, op.k, false);
            t.touch(op.k, op.j, true);
            break;
          case lu::OpKind::Gemm:
            t.j = op.j;
            t.touch(op.i, op.k, false);
            t.touch(op.k, op.j, false);
            t.touch(op.i, op.j, true);
            break;
        }
        return t;
      });
  CostModel cost(mm, m, n, nb, nb);
  return simulate_graph(g, cost, lu::lu_useful_flops(std::min(m, n)),
                        lu::plan_flops(plan, m, n, nb));
}

}  // namespace pulsarqr::sim
