// pqr — command-line driver for the pulsarqr library.
//
//   pqr factor   --m 4096 --n 512 [--nb 128 --ib 32 --tree hier --h 6
//                 --boundary shifted --trace trace.csv --check --seed 1
//                 <runtime flags>]
//   pqr solve    --m 4096 --n 512 [--nrhs 1 <factor flags>]
//   pqr chol     --n 1024 [--nb 128 --seed 1 <runtime flags>]
//   pqr lu       --n 1024 [--nb 128 --seed 1 <runtime flags>]
//   pqr batch    --batch 1024 --m 64 --n 16 [--ib 32 --chunk 0 --f32
//                 --seed 1 --check <runtime flags>]
//   pqr simulate --m 368640 --n 4608 [--nb 192 --ib 48 --tree hier --h 6
//                 --boundary shifted --nodes 768 --algo qr|chol|lu]
//
// Runtime flags (prt::Vsa::Config, shared by factor, solve, chol, lu and
// batch):
//   --nodes 1 --workers 2 --sched lazy|aggressive --graph-check 1
//   --spin-us -1|0|50 --transport inproc|socket
//   --chaos-seed 42 --drop 0.05 --dup 0.05 --reorder 0.1 --delay 0.1
//   --delay-us 200 --reliable --rto-us 2000 --max-retransmits 10
//   --max-respawns 0 --replay-log-mb 64 --hb-timeout 10
//   --kill-node -1 --kill-after 0
// Process-wide flags (every command):
//   --kernel-isa auto|avx512|avx2|scalar
//
// A flag the command does not read is an error (exit 2), so a mistyped or
// retired flag never silently runs the default.
//
// The chaos flags install a deterministic FaultPlan on the inter-node
// transport (same seed => same fault schedule); --reliable layers the
// ack/retransmit protocol on top so the run still completes correctly.
// Under --transport socket, --kill-node R --kill-after F SIGKILLs rank R's
// node process after F firings and --max-respawns N lets the run absorb up
// to N such deaths by respawning (requires --reliable).
//
// `batch` factors N independent small matrices through ONE fused VSA plan
// (see src/vsaqr/qr_batch.hpp) and reports jobs/sec plus per-matrix latency
// percentiles; --check verifies each result is bitwise identical to a
// sequential geqrt loop. It runs in-process only.
//
// `factor`, `solve`, `chol`, `lu` and `batch` run the real PULSAR runtime
// on this host; `simulate` replays a task graph on the Kraken machine
// model.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "blas/blas.hpp"
#include "blas/simd.hpp"
#include "chol/vsa_chol.hpp"
#include "cli_args.hpp"
#include "kernels/tile_kernels.hpp"
#include "vsaqr/qr_batch.hpp"
#include "common/rng.hpp"
#include "lu/vsa_lu.hpp"
#include "lapack/solve.hpp"
#include "ref/apply_q.hpp"
#include "sim/chol_sim.hpp"
#include "sim/lu_sim.hpp"
#include "sim/scalapack_model.hpp"
#include "sim/simulator.hpp"
#include "vsaqr/tree_qr.hpp"

using namespace pulsarqr;

namespace {

using cli::Args;

plan::PlanConfig tree_config(const Args& a) {
  plan::PlanConfig cfg;
  const std::string tree = a.gets("tree", "hier");
  if (tree == "flat") {
    cfg.tree = plan::TreeKind::Flat;
  } else if (tree == "binary") {
    cfg.tree = plan::TreeKind::Binary;
  } else if (tree == "hier" || tree == "binary-on-flat") {
    cfg.tree = plan::TreeKind::BinaryOnFlat;
  } else {
    std::fprintf(stderr, "unknown --tree %s (flat|binary|hier)\n",
                 tree.c_str());
    std::exit(2);
  }
  cfg.domain_size = a.geti("h", 6);
  const std::string bm = a.gets("boundary", "shifted");
  cfg.boundary = bm == "fixed" ? plan::BoundaryMode::Fixed
                               : plan::BoundaryMode::Shifted;
  return cfg;
}

/// The runtime flags (see the header), shared by every command that runs
/// the PULSAR runtime.
void runtime_options(prt::Vsa::Config& opt, const Args& a) {
  opt.nodes = a.geti("nodes", opt.nodes);
  opt.workers_per_node = a.geti("workers", opt.workers_per_node);
  const std::string sched = a.gets("sched", "lazy");
  if (sched == "aggressive") {
    opt.scheduling = prt::Scheduling::Aggressive;
  } else if (sched != "lazy") {
    std::fprintf(stderr, "unknown --sched %s (lazy|aggressive)\n",
                 sched.c_str());
    std::exit(2);
  }
  opt.graph_check = a.geti("graph-check", 1) != 0;
  opt.spin_us = a.geti("spin-us", opt.spin_us);
  // Transport backend: in-process mailbox threads (default) or one forked
  // OS process per node over Unix-domain sockets.
  const std::string transport = a.gets("transport", "inproc");
  if (transport == "socket") {
    opt.transport = prt::Transport::Socket;
  } else if (transport != "inproc") {
    std::fprintf(stderr, "unknown --transport %s (inproc|socket)\n",
                 transport.c_str());
    std::exit(2);
  }
  // Chaos engineering: a seeded deterministic fault schedule plus the
  // reliable-delivery protocol that tolerates it.
  opt.fault_plan.seed = static_cast<std::uint64_t>(a.geti("chaos-seed", 0));
  opt.fault_plan.drop = a.getd("drop", 0.0);
  opt.fault_plan.dup = a.getd("dup", 0.0);
  opt.fault_plan.delay = a.getd("delay", 0.0);
  opt.fault_plan.reorder = a.getd("reorder", 0.0);
  opt.fault_plan.delay_us = a.geti("delay-us", opt.fault_plan.delay_us);
  // Process-level fault + the recovery budget that absorbs it.
  opt.fault_plan.kill_rank = a.geti("kill-node", opt.fault_plan.kill_rank);
  opt.fault_plan.kill_after = a.geti("kill-after", 0);
  opt.reliable_transport = a.geti("reliable", 0) != 0;
  opt.retransmit_timeout_us = a.geti("rto-us", opt.retransmit_timeout_us);
  opt.max_retransmits = a.geti("max-retransmits", opt.max_retransmits);
  opt.max_respawns = a.geti("max-respawns", opt.max_respawns);
  opt.replay_log_bytes = static_cast<std::size_t>(a.geti(
                             "replay-log-mb",
                             static_cast<int>(opt.replay_log_bytes >> 20)))
                         << 20;
  opt.heartbeat_timeout_seconds =
      a.getd("hb-timeout", opt.heartbeat_timeout_seconds);
  if (opt.fault_plan.any() && !opt.reliable_transport) {
    std::fprintf(stderr,
                 "warning: fault injection without --reliable; expect a "
                 "watchdog RunError on lossy schedules\n");
  }
}

/// One line of crash-recovery accounting, printed when recovery was armed
/// or actually exercised.
void print_recovery(const prt::Vsa::RunStats& stats, int max_respawns) {
  if (max_respawns <= 0 && stats.respawns == 0) return;
  std::printf("recovery: respawns=%lld replayed_frames=%lld "
              "refired_fires=%lld\n",
              stats.respawns, stats.replayed_frames, stats.refired_fires);
}

/// One line of each node process's minor page faults and system CPU time,
/// printed for socket runs (in-process runs fork no node process).
void print_node_usage(const prt::Vsa::RunStats& stats, prt::Transport t) {
  if (t != prt::Transport::Socket) return;
  std::printf("node usage:");
  for (std::size_t r = 0; r < stats.minor_faults_per_node.size(); ++r) {
    std::printf("%s rank %zu minflt=%lld sys=%.3fs", r > 0 ? " |" : "", r,
                stats.minor_faults_per_node[r], stats.sys_seconds_per_node[r]);
  }
  std::printf("\n");
}

vsaqr::TreeQrOptions qr_options(const Args& a) {
  vsaqr::TreeQrOptions opt;
  runtime_options(opt, a);
  opt.tree = tree_config(a);
  opt.ib = a.geti("ib", 32);
  opt.trace = a.has("trace");
  return opt;
}

int cmd_factor(const Args& a) {
  const int m = a.geti("m", 4096);
  const int n = a.geti("n", 512);
  const int nb = a.geti("nb", 128);
  const int seed = a.geti("seed", 1);
  const std::string tree = a.gets("tree", "hier");
  const std::string trace = a.gets("trace", "trace.csv");
  const bool check = a.has("check");
  const auto opt = qr_options(a);
  a.reject_unread();
  Matrix a0(m, n);
  fill_random(a0.view(), seed);
  TileMatrix tiled = TileMatrix::from_dense(a0.view(), nb);
  auto run = vsaqr::tree_qr(tiled, opt);
  std::printf("factor %dx%d nb=%d ib=%d tree=%s kernels=%s/f64: %.3fs wall, "
              "%lld firings, %d VDPs, %d channels, %lld inter-node msgs "
              "(%.1f MB)\n",
              m, n, nb, opt.ib, tree.c_str(),
              blas::simd::isa_name(blas::simd::active_isa()),
              run.stats.seconds, run.stats.fires, run.vdp_count,
              run.channel_count, run.stats.remote_messages,
              run.stats.remote_bytes / 1e6);
  if (run.stats.remote_messages > 0) {
    std::printf("datapath: wire_msgs=%lld (%.1f MB) | pool hits=%lld "
                "misses=%lld\n",
                run.stats.wire_messages, run.stats.wire_bytes / 1e6,
                run.stats.pool_hits, run.stats.pool_misses);
  }
  if (opt.fault_plan.any() || opt.reliable_transport) {
    std::printf("transport: dropped=%lld duplicated=%lld delayed=%lld "
                "reordered=%lld streams=%lld | retransmits=%lld "
                "dups_suppressed=%lld acks=%lld\n",
                run.stats.faults.dropped, run.stats.faults.duplicated,
                run.stats.faults.delayed, run.stats.faults.reordered,
                run.stats.fault_streams, run.stats.retransmits,
                run.stats.duplicates_suppressed, run.stats.acks_sent);
  }
  print_recovery(run.stats, opt.max_respawns);
  print_node_usage(run.stats, opt.transport);
  if (opt.trace) {
    std::ofstream os(trace);
    prt::trace::write_csv(os, run.events);
    std::printf("trace written to %s (%zu events)\n", trace.c_str(),
                run.events.size());
  }
  if (check) {
    TileMatrix b = TileMatrix::from_dense(a0.view(), nb);
    ref::apply_q(blas::Trans::Yes, run.factors, b);
    double below = 0.0;
    Matrix qta = b.to_dense();
    for (int j = 0; j < n; ++j) {
      for (int i = j + 1; i < m; ++i) {
        below = std::max(below, std::abs(qta(i, j)));
      }
    }
    std::printf("check: max |(Q^T A)_below-diagonal| = %.3e\n", below);
    if (below > 1e-9 * m) return 1;
  }
  return 0;
}

/// Nearest-rank percentile of an already-sorted latency vector, in
/// microseconds.
double pct_us(const std::vector<double>& sorted, int p) {
  const std::size_t n = sorted.size();
  const std::size_t rank =
      std::max<std::size_t>(1, (n * p + 99) / 100);  // ceil(p/100 * n)
  return sorted[std::min(rank, n) - 1] * 1e6;
}

template <class T>
int run_batch(const Args& a, const char* prec) {
  const int batch = a.geti("batch", 1024);
  const int m = a.geti("m", 64);
  const int n = a.geti("n", 16);
  const int k = std::min(m, n);
  const int seed = a.geti("seed", 1);
  const bool check = a.has("check");
  vsaqr::BatchOptions opt;
  runtime_options(opt, a);
  opt.ib = a.geti("ib", 32);
  opt.chunk = a.geti("chunk", 0);
  opt.record_latency = true;
  a.reject_unread();
  if (batch < 1 || k < 1) {
    std::fprintf(stderr, "batch: need --batch >= 1 and --m, --n >= 1\n");
    return 2;
  }

  std::vector<MatrixT<T>> mats, tfac;
  std::vector<MatrixViewT<T>> av, tv;
  mats.reserve(batch);
  tfac.reserve(batch);
  Rng rng(static_cast<std::uint64_t>(seed));
  for (int i = 0; i < batch; ++i) {
    mats.emplace_back(m, n);
    tfac.emplace_back(std::min(opt.ib, k), k);
    MatrixT<T>& mat = mats.back();
    for (int j = 0; j < n; ++j) {
      for (int r = 0; r < m; ++r) mat(r, j) = static_cast<T>(rng.next_symmetric());
    }
  }
  std::vector<MatrixT<T>> ref_a, ref_t;
  if (check) {
    ref_a = mats;
    ref_t = tfac;
  }
  for (int i = 0; i < batch; ++i) {
    av.push_back(mats[i].view());
    tv.push_back(tfac[i].view());
  }

  const auto run = vsaqr::qr_batch(std::span<const MatrixViewT<T>>(av),
                                   std::span<const MatrixViewT<T>>(tv), opt);
  std::vector<double> lat = run.matrix_seconds;
  std::sort(lat.begin(), lat.end());
  std::printf("batch %d of %dx%d ib=%d kernels=%s/%s: %.3fs wall, "
              "%.0f jobs/s, p50=%.2fus p99=%.2fus, %lld firings, %d VDPs, "
              "%lld chunks\n",
              batch, m, n, opt.ib,
              blas::simd::isa_name(blas::simd::active_isa()), prec,
              run.stats.seconds, batch / run.stats.seconds, pct_us(lat, 50),
              pct_us(lat, 99), run.stats.fires, run.vdp_count, run.chunks);
  if (check) {
    kernels::Workspace ws;
    long long mismatches = 0;
    for (int i = 0; i < batch; ++i) {
      kernels::geqrt(ref_a[i].view(), opt.ib, ref_t[i].view(), ws);
      const bool ok =
          std::memcmp(mats[i].data(), ref_a[i].data(),
                      sizeof(T) * static_cast<std::size_t>(m) * n) == 0 &&
          std::memcmp(tfac[i].data(), ref_t[i].data(),
                      sizeof(T) * static_cast<std::size_t>(ref_t[i].rows()) *
                          ref_t[i].cols()) == 0;
      if (!ok) ++mismatches;
    }
    std::printf("check: %lld of %d matrices differ from sequential geqrt "
                "(bitwise)\n",
                mismatches, batch);
    if (mismatches > 0) return 1;
  }
  return 0;
}

int cmd_batch(const Args& a) {
  return a.geti("f32", 0) != 0 ? run_batch<float>(a, "f32")
                               : run_batch<double>(a, "f64");
}

int cmd_solve(const Args& a) {
  const int m = a.geti("m", 4096);
  const int n = a.geti("n", 512);
  const int nb = a.geti("nb", 128);
  const int nrhs = a.geti("nrhs", 1);
  const int seed = a.geti("seed", 1);
  const auto opt = qr_options(a);
  a.reject_unread();
  Matrix a0(m, n);
  fill_random_well_conditioned(a0.view(), seed);
  Matrix b(m, nrhs);
  fill_random(b.view(), seed + 1);
  TileMatrix tiled = TileMatrix::from_dense(a0.view(), nb);
  Matrix x = vsaqr::tree_qr_solve(tiled, b.view(), opt);
  // Report residual orthogonality per rhs.
  double worst = 0.0;
  for (int r = 0; r < nrhs; ++r) {
    std::vector<double> rhs(m), xr(n);
    for (int i = 0; i < m; ++i) rhs[i] = b(i, r);
    for (int i = 0; i < n; ++i) xr[i] = x(i, r);
    std::vector<double> res = rhs;
    blas::gemv(blas::Trans::No, -1.0, a0.view(), xr.data(), 1.0, res.data());
    std::vector<double> atr(n, 0.0);
    blas::gemv(blas::Trans::Yes, 1.0, a0.view(), res.data(), 0.0, atr.data());
    worst = std::max(worst, blas::nrm2(n, atr.data()));
  }
  std::printf("solve %dx%d, %d rhs: done; max ||A^T (b - A x)|| = %.3e\n", m,
              n, nrhs, worst);
  return worst < 1e-7 * m ? 0 : 1;
}

int cmd_chol(const Args& a) {
  const int n = a.geti("n", 1024);
  const int nb = a.geti("nb", 128);
  const int seed = a.geti("seed", 1);
  chol::VsaCholOptions opt;
  runtime_options(opt, a);
  a.reject_unread();
  Matrix spd = chol::random_spd(n, seed);
  auto run = chol::vsa_cholesky(TileMatrix::from_dense(spd.view(), nb), opt);
  print_recovery(run.stats, opt.max_respawns);
  print_node_usage(run.stats, opt.transport);
  Matrix l = chol::extract_l(run.l);
  Matrix llt(n, n);
  blas::gemm(blas::Trans::No, blas::Trans::Yes, 1.0, l.view(), l.view(), 0.0,
             llt.view());
  double err = 0.0;
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < n; ++i) {
      err = std::max(err, std::abs(llt(i, j) - spd(i, j)));
    }
  }
  std::printf("cholesky %dx%d nb=%d: %.3fs wall, %lld firings, "
              "||LL^T - A||_max / ||A||_max = %.3e\n",
              n, n, nb, run.stats.seconds, run.stats.fires,
              err / blas::norm_max(spd.view()));
  return err / blas::norm_max(spd.view()) < 1e-10 * n ? 0 : 1;
}

int cmd_lu(const Args& a) {
  const int n = a.geti("n", 1024);
  const int nb = a.geti("nb", 128);
  const int seed = a.geti("seed", 1);
  lu::VsaLuOptions opt;
  runtime_options(opt, a);
  a.reject_unread();
  Matrix m = lu::random_diag_dominant(n, n, seed);
  auto run = lu::vsa_lu(TileMatrix::from_dense(m.view(), nb), opt);
  print_recovery(run.stats, opt.max_respawns);
  print_node_usage(run.stats, opt.transport);
  // Verify by solving a planted system through the factors.
  Rng rng(seed + 7);
  std::vector<double> xtrue(n);
  for (auto& v : xtrue) v = rng.next_symmetric();
  std::vector<double> b(n, 0.0);
  blas::gemv(blas::Trans::No, 1.0, m.view(), xtrue.data(), 0.0, b.data());
  const auto x = lu::lu_solve(run.f, b);
  double err = 0.0;
  for (int i = 0; i < n; ++i) err = std::max(err, std::abs(x[i] - xtrue[i]));
  std::printf("lu %dx%d nb=%d: %.3fs wall, %lld firings, planted-solution "
              "max error %.3e\n",
              n, n, nb, run.stats.seconds, run.stats.fires, err);
  return err < 1e-9 * n ? 0 : 1;
}

int cmd_simulate(const Args& a) {
  const int m = a.geti("m", 368640);
  const int n = a.geti("n", 4608);
  const int nb = a.geti("nb", 192);
  const int nodes = a.geti("nodes", 768);
  const std::string algo = a.gets("algo", "qr");
  const int ib = a.geti("ib", 48);
  const plan::PlanConfig tree = tree_config(a);
  a.reject_unread();
  const sim::MachineModel mm = sim::MachineModel::kraken();
  sim::SimResult r;
  if (algo == "qr") {
    r = sim::simulate_tree_qr(m, n, nb, ib, tree, mm, nodes);
  } else if (algo == "chol") {
    r = sim::simulate_cholesky(n, nb, mm, nodes);
  } else if (algo == "lu") {
    r = sim::simulate_lu(m, n, nb, mm, nodes);
  } else {
    std::fprintf(stderr, "unknown --algo %s (qr|chol|lu)\n", algo.c_str());
    return 2;
  }
  std::printf("simulate %s %dx%d nb=%d on %d nodes (%d cores, kraken "
              "model):\n",
              algo.c_str(), algo == "chol" ? n : m, n, nb, nodes,
              nodes * mm.cores_per_node);
  std::printf("  makespan %.3f s | useful %.0f Gflop/s | actual %.0f "
              "Gflop/s | utilization %.1f%% | %lld tasks\n",
              r.seconds, r.useful_gflops, r.actual_gflops,
              r.busy_fraction * 100, r.tasks);
  if (algo == "qr") {
    const auto s = sim::scalapack_qr_model(m, n, 64, mm,
                                           nodes * mm.cores_per_node);
    std::printf("  ScaLAPACK model: %.3f s (%.2fx slower)\n", s.seconds,
                s.seconds / r.seconds);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: pqr <factor|batch|solve|chol|lu|simulate> "
                 "[--key ...]\n"
                 "see the header of tools/pqr.cpp for the full flag list\n");
    return 2;
  }
  // Plain C-string dispatch (a GCC 12 -Wrestrict false positive fires on
  // the equivalent std::string comparisons under -O3).
  const char* cmd = argv[1];
  const Args a = cli::parse(argc, argv, 2);
  // Kernel ISA selection. Unlike the PQR_KERNEL_ISA env override (which
  // warns and falls back), the CLI rejects bad or unsupported values.
  const std::string isa_arg = a.gets("kernel-isa", "");
  if (!isa_arg.empty()) {
    blas::simd::Isa isa;
    if (!blas::simd::parse_isa(isa_arg, &isa)) {
      std::fprintf(stderr,
                   "unknown --kernel-isa %s (auto|avx512|avx2|scalar)\n",
                   isa_arg.c_str());
      return 2;
    }
    if (!blas::simd::set_isa(isa)) {
      std::fprintf(stderr,
                   "--kernel-isa %s is not usable here (compiled in: %s; "
                   "detected best: %s)\n",
                   isa_arg.c_str(),
                   blas::simd::isa_compiled(isa) ? "yes" : "no",
                   blas::simd::isa_name(blas::simd::detect_isa()));
      return 2;
    }
  }
  try {
    if (std::strcmp(cmd, "factor") == 0) return cmd_factor(a);
    if (std::strcmp(cmd, "batch") == 0) return cmd_batch(a);
    if (std::strcmp(cmd, "solve") == 0) return cmd_solve(a);
    if (std::strcmp(cmd, "chol") == 0) return cmd_chol(a);
    if (std::strcmp(cmd, "lu") == 0) return cmd_lu(a);
    if (std::strcmp(cmd, "simulate") == 0) return cmd_simulate(a);
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "unknown command: %s\n", cmd);
  return 2;
}
