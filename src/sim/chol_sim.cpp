#include "sim/chol_sim.hpp"

namespace pulsarqr::sim {

namespace {

// Kernel efficiencies: potrf is panel-like, trsm is triangular-solve
// rich, the gemm/syrk updates are the throughput kernels — reuse the
// corresponding QR calibration points.
double chol_task_seconds(const chol::Op& op, int n, int nb,
                         const MachineModel& mm) {
  double eff;
  switch (op.kind) {
    case chol::OpKind::Potrf: eff = mm.eff_geqrt; break;
    case chol::OpKind::Trsm: eff = mm.eff_tsqrt; break;
    default: eff = mm.eff_tsmqr; break;
  }
  return chol::op_flops(op, n, nb) / (mm.core_peak_gflops * 1e9 * eff) +
         mm.task_overhead_s;
}

}  // namespace

SimResult simulate_cholesky(int n, int nb, const MachineModel& mm,
                            int nodes) {
  const int mt = (n + nb - 1) / nb;
  chol::CholPlan plan(mt);
  const auto& ops = plan.ops();
  // Per step k the VDPs are P(k), S(k,k+1), ..., S(k,mt-1).
  const TaskGraph g = build_column_task_graph(
      static_cast<int>(ops.size()), mt, mt, mm, nodes, [&](int x) {
        const chol::Op& op = ops[x];
        ColumnTask t{op.k, op.k, chol_task_seconds(op, n, nb, mm)};
        switch (op.kind) {
          case chol::OpKind::Potrf:
            t.touch(op.k, op.k, true);
            break;
          case chol::OpKind::Trsm:
            t.touch(op.k, op.k, false);
            t.touch(op.i, op.k, true);
            break;
          case chol::OpKind::Syrk:
            t.j = op.j;
            t.touch(op.j, op.k, false);
            t.touch(op.j, op.j, true);
            break;
          case chol::OpKind::Gemm:
            t.j = op.j;
            t.touch(op.i, op.k, false);
            t.touch(op.j, op.k, false);
            t.touch(op.i, op.j, true);
            break;
        }
        return t;
      });
  CostModel cost(mm, n, n, nb, nb);
  return simulate_graph(g, cost, chol::chol_useful_flops(n),
                        chol::plan_flops(plan, n, nb));
}

}  // namespace pulsarqr::sim
