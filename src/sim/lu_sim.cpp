#include "sim/lu_sim.hpp"

#include <algorithm>
#include <unordered_map>

#include "common/error.hpp"

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
  const int nops = static_cast<int>(ops.size());
  const int threads = nodes * mm.workers_per_node();
  require(threads >= 1, "simulate_lu: no worker threads");

  TaskGraph g;
  g.num_tasks = nops;
  g.num_threads = threads;
  g.workers_per_node = mm.workers_per_node();
  g.duration.resize(nops);
  g.thread.resize(nops);

  // Creation-order cyclic mapping over all threads: per step k the VDPs
  // are P(k), S(k,k+1), ..., S(k,nt-1). This is the builder's mapping on
  // one node only; on several nodes the builder owns whole columns per
  // node (plan::ColumnPlacement), which would leave nodes idle here when
  // the matrix has fewer tile columns than the machine has nodes.
  const int panels = std::min(mt, nt);
  std::vector<std::int64_t> base(panels + 1, 0);
  for (int k = 0; k < panels; ++k) base[k + 1] = base[k] + (nt - k);
  auto thread_of = [&](int k, int j) {
    return static_cast<int>((base[k] + (j - k)) % threads);
  };

  auto tile_key = [&](int i, int j) {
    return static_cast<std::int64_t>(i) * nt + j;
  };
  std::unordered_map<std::int64_t, int> last_writer;
  std::unordered_map<std::int64_t, int> vdp_last;

  std::vector<std::int64_t> offsets(nops + 1, 0);
  std::vector<std::int32_t> preds;
  std::vector<EdgeKind> kinds;

  for (int x = 0; x < nops; ++x) {
    const lu::Op& op = ops[x];
    struct Access {
      int i, j;
      bool write;
    };
    Access acc[3];
    int na = 0;
    int vdp_j = op.k;
    switch (op.kind) {
      case lu::OpKind::Getrf:
        acc[na++] = {op.k, op.k, true};
        break;
      case lu::OpKind::TrsmU:
        acc[na++] = {op.k, op.k, false};
        acc[na++] = {op.i, op.k, true};
        break;
      case lu::OpKind::TrsmL:
        acc[na++] = {op.k, op.k, false};
        acc[na++] = {op.k, op.j, true};
        vdp_j = op.j;
        break;
      case lu::OpKind::Gemm:
        acc[na++] = {op.i, op.k, false};
        acc[na++] = {op.k, op.j, false};
        acc[na++] = {op.i, op.j, true};
        vdp_j = op.j;
        break;
    }
    g.duration[x] = static_cast<float>(lu_task_seconds(op, m, n, nb, mm));
    g.thread[x] = thread_of(op.k, vdp_j);

    const std::int64_t vk = static_cast<std::int64_t>(op.k) * (nt + 1) + vdp_j;
    int local[4];
    EdgeKind local_kind[4];
    int nl = 0;
    if (auto it = vdp_last.find(vk); it != vdp_last.end()) {
      local[nl] = it->second;
      local_kind[nl++] = EdgeKind::Serial;
    }
    vdp_last[vk] = x;
    for (int a = 0; a < na; ++a) {
      if (auto it = last_writer.find(tile_key(acc[a].i, acc[a].j));
          it != last_writer.end()) {
        const int p = it->second;
        bool dup = p == x;
        for (int q = 0; q < nl; ++q) dup = dup || local[q] == p;
        if (!dup) {
          local[nl] = p;
          local_kind[nl++] = EdgeKind::Tile;
        }
      }
      if (acc[a].write) last_writer[tile_key(acc[a].i, acc[a].j)] = x;
    }
    offsets[x + 1] = offsets[x] + nl;
    for (int q = 0; q < nl; ++q) {
      preds.push_back(local[q]);
      kinds.push_back(local_kind[q]);
    }
  }
  g.pred_offset = std::move(offsets);
  g.pred_task = std::move(preds);
  g.pred_kind = std::move(kinds);

  CostModel cost(mm, m, n, nb, nb);
  return simulate_graph(g, cost, lu::lu_useful_flops(std::min(m, n)),
                        lu::plan_flops(plan, m, n, nb));
}

}  // namespace pulsarqr::sim
