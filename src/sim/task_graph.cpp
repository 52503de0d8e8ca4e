#include "sim/task_graph.hpp"

#include <algorithm>
#include <unordered_map>

#include "common/error.hpp"
#include "plan/domains.hpp"

namespace pulsarqr::sim {

VdpThreadMap::VdpThreadMap(int mt, int nt, const plan::PlanConfig& cfg,
                           int num_threads)
    : mt_(mt), nt_(nt), threads_(num_threads), cfg_(cfg) {
  const int panels = std::min(mt, nt);
  base_.resize(panels + 1, 0);
  for (int k = 0; k < panels; ++k) {
    const auto doms = plan::domains_for_panel(mt_, k, cfg_);
    base_[k + 1] =
        base_[k] + static_cast<std::int64_t>(doms.size()) * (nt_ - k);
  }
}

int VdpThreadMap::flat_thread(int k, int domain, int l) const {
  const std::int64_t idx =
      base_[k] + static_cast<std::int64_t>(domain) * (nt_ - k) + (l - k);
  return static_cast<int>(idx % threads_);
}

int VdpThreadMap::domain_index(int k, int i) const {
  switch (cfg_.tree) {
    case plan::TreeKind::Flat:
      return 0;
    case plan::TreeKind::Binary:
      return i - k;
    case plan::TreeKind::BinaryOnFlat: {
      const int h = cfg_.domain_size;
      if (cfg_.boundary == plan::BoundaryMode::Shifted) {
        return (i - k) / h;
      }
      // Fixed boundaries: domain 0 starts at k; later heads sit at the
      // absolute multiples of h above k.
      if (i == k) return 0;
      const int first = (k / h + 1) * h;  // first boundary above k
      PQR_ASSERT(i >= first && (i - first) % h == 0,
                 "domain_index: row is not a head");
      return 1 + (i - first) / h;
    }
  }
  return 0;
}

TaskGraph build_task_graph(const plan::ReductionPlan& plan,
                           const CostModel& cost, int nodes) {
  using plan::Op;
  using plan::OpKind;
  const int nt = plan.nt();
  const auto& ops = plan.ops();
  const int nops = static_cast<int>(ops.size());
  const int wpn = cost.machine().workers_per_node();
  const int threads = nodes * wpn;
  require(threads >= 1, "build_task_graph: no worker threads");

  TaskGraph g;
  g.num_tasks = nops;
  g.num_threads = threads;
  g.workers_per_node = wpn;
  g.duration.resize(nops);
  g.thread.resize(nops);

  VdpThreadMap tmap(plan.mt(), plan.nt(), plan.config(), threads);

  // ---- thread assignment and durations -------------------------------------
  for (int x = 0; x < nops; ++x) {
    const Op& op = ops[x];
    g.duration[x] = static_cast<float>(cost.task_seconds(op));
    int d;      // domain whose pipeline executes this op
    int l;      // column of the pipeline
    switch (op.kind) {
      case OpKind::Geqrt:
      case OpKind::Tsqrt:
        d = op.level;  // plan stores the domain index for flat ops
        l = op.j;
        break;
      case OpKind::Ormqr:
      case OpKind::Tsmqr:
        d = op.level;
        l = op.l;
        break;
      case OpKind::Ttqrt:
        d = tmap.domain_index(op.j, op.i);  // winner-side child
        l = op.j;
        break;
      case OpKind::Ttmqr:
      default:
        d = tmap.domain_index(op.j, op.i);
        l = op.l;
        break;
    }
    g.thread[x] = tmap.flat_thread(op.j, d, l);
  }

  // ---- dependencies ---------------------------------------------------------
  // Last writer of every tile, and last op of every VDP (serialization).
  auto tile_key = [&](int i, int j) {
    return static_cast<std::int64_t>(i) * nt + j;
  };
  // VDP key: flat VDPs by (type 0, k, d, l); binary by (type 1, k, i, l).
  auto vdp_key = [&](const Op& op) {
    int type, a, b;
    switch (op.kind) {
      case OpKind::Geqrt:
      case OpKind::Tsqrt:
      case OpKind::Ormqr:
      case OpKind::Tsmqr:
        type = 0;
        a = op.level;
        b = plan::is_factor_op(op.kind) ? op.j : op.l;
        break;
      default:
        // Each Tt pair fires once per column; key by (survivor, column) —
        // a survivor appears in several pairs, and those fire in sequence
        // on the same thread, so collapsing them into one "VDP chain" is
        // exactly the serialization the array imposes (the survivor tile
        // flows through them in order).
        type = 1;
        a = op.i;
        b = plan::is_factor_op(op.kind) ? op.j : op.l;
        break;
    }
    return (static_cast<std::int64_t>(type) << 62) |
           (static_cast<std::int64_t>(op.j) << 44) |
           (static_cast<std::int64_t>(a) << 22) | static_cast<std::int64_t>(b);
  };

  std::unordered_map<std::int64_t, int> last_writer;
  std::unordered_map<std::int64_t, int> vdp_last;
  last_writer.reserve(static_cast<std::size_t>(plan.mt()) * nt * 2);
  vdp_last.reserve(nops / 4 + 16);

  std::vector<std::int64_t> offsets(nops + 1, 0);
  std::vector<std::int32_t> preds;
  std::vector<EdgeKind> kinds;
  preds.reserve(static_cast<std::size_t>(nops) * 3);
  kinds.reserve(static_cast<std::size_t>(nops) * 3);

  // Scratch: the tiles each op touches.
  struct Access {
    int i, j;
    bool write;
    bool vt;  ///< read of a transformation (V,T) packet
  };
  Access acc[3];

  for (int x = 0; x < nops; ++x) {
    const Op& op = ops[x];
    int na = 0;
    switch (op.kind) {
      case OpKind::Geqrt:
        acc[na++] = {op.i, op.j, true, false};
        break;
      case OpKind::Ormqr:
        acc[na++] = {op.i, op.j, false, true};
        acc[na++] = {op.i, op.l, true, false};
        break;
      case OpKind::Tsqrt:
      case OpKind::Ttqrt:
        acc[na++] = {op.i, op.j, true, false};
        acc[na++] = {op.k, op.j, true, false};
        break;
      case OpKind::Tsmqr:
      case OpKind::Ttmqr:
        acc[na++] = {op.k, op.j, false, true};
        acc[na++] = {op.i, op.l, true, false};
        acc[na++] = {op.k, op.l, true, false};
        break;
    }

    const std::int64_t vk = vdp_key(op);
    int local[4];
    EdgeKind local_kind[4];
    int nl = 0;
    if (auto it = vdp_last.find(vk); it != vdp_last.end()) {
      local[nl] = it->second;
      local_kind[nl++] = EdgeKind::Serial;
    }
    vdp_last[vk] = x;

    for (int a = 0; a < na; ++a) {
      const std::int64_t tk = tile_key(acc[a].i, acc[a].j);
      if (auto it = last_writer.find(tk); it != last_writer.end()) {
        const int p = it->second;
        bool dup = false;
        for (int q = 0; q < nl; ++q) dup = dup || local[q] == p;
        if (!dup && p != x) {
          local[nl] = p;
          local_kind[nl++] = acc[a].vt ? EdgeKind::Vt : EdgeKind::Tile;
        }
      }
      if (acc[a].write) last_writer[tk] = x;
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
  return g;
}

TaskGraph build_column_task_graph(
    int num_tasks, int panels, int cols, const MachineModel& mm, int nodes,
    const std::function<ColumnTask(int)>& task) {
  const int threads = nodes * mm.workers_per_node();
  require(threads >= 1, "build_column_task_graph: no worker threads");
  TaskGraph g;
  g.num_tasks = num_tasks;
  g.num_threads = threads;
  g.workers_per_node = mm.workers_per_node();
  g.duration.resize(num_tasks);
  g.thread.resize(num_tasks);

  std::vector<std::int64_t> base(panels + 1, 0);
  for (int k = 0; k < panels; ++k) base[k + 1] = base[k] + (cols - k);

  auto tile_key = [&](int i, int j) {
    return static_cast<std::int64_t>(i) * cols + j;
  };
  std::unordered_map<std::int64_t, int> last_writer;
  std::unordered_map<std::int64_t, int> vdp_last;

  g.pred_offset.assign(num_tasks + 1, 0);
  g.pred_task.reserve(static_cast<std::size_t>(num_tasks) * 3);
  g.pred_kind.reserve(static_cast<std::size_t>(num_tasks) * 3);
  for (int x = 0; x < num_tasks; ++x) {
    const ColumnTask t = task(x);
    g.duration[x] = static_cast<float>(t.seconds);
    g.thread[x] = static_cast<int>((base[t.k] + (t.j - t.k)) % threads);

    const std::int64_t vk = static_cast<std::int64_t>(t.k) * (cols + 1) + t.j;
    int local[4];
    EdgeKind local_kind[4];
    int nl = 0;
    if (auto it = vdp_last.find(vk); it != vdp_last.end()) {
      local[nl] = it->second;
      local_kind[nl++] = EdgeKind::Serial;
    }
    vdp_last[vk] = x;
    for (int a = 0; a < t.accesses; ++a) {
      const std::int64_t key = tile_key(t.access[a].i, t.access[a].j);
      if (auto it = last_writer.find(key); it != last_writer.end()) {
        const int p = it->second;
        bool dup = p == x;
        for (int q = 0; q < nl; ++q) dup = dup || local[q] == p;
        if (!dup) {
          local[nl] = p;
          local_kind[nl++] = EdgeKind::Tile;
        }
      }
      if (t.access[a].write) last_writer[key] = x;
    }
    g.pred_offset[x + 1] = g.pred_offset[x] + nl;
    g.pred_task.insert(g.pred_task.end(), local, local + nl);
    g.pred_kind.insert(g.pred_kind.end(), local_kind, local_kind + nl);
  }
  return g;
}

}  // namespace pulsarqr::sim
