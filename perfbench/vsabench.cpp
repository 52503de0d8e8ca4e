// One workload of the repository benchmark, run in a process of its own.
//
//   vsabench selftest
//   vsabench setup --workload W --seed S
//   vsabench run   --workload W --seed S --seconds T --trace 0|1
//
// Workloads (README.md in this directory says why each was chosen):
//   qr_tall      vsaqr::tree_qr, 8192x1024, nb 128, ib 32, h=6 shifted,
//                in-process, 1 node x 2 workers
//   qr_socket    vsaqr::tree_qr, 4096x512, nb 64, ib 16, same tree,
//                Transport::Socket, 2 nodes x 1 worker
//   batch_small  vsaqr::qr_batch, 1024 matrices of 64x16, ib 32, 1 x 2
//   chol_2node   chol::vsa_cholesky, n 3072, nb 128, in-process, 2 x 1
//
// `setup` times the one-time cost a fresh process pays: the input
// conversion plus the cold first call. It prints a hash of that call's
// output, which run.py compares with the reference hash of `run`.
// `run` computes the reference once, makes one untimed warm-up call, then
// issues back-to-back public calls (a closed loop, one caller) for T
// seconds and compares every output bitwise with the reference. With
// --trace 0 it reports the end-to-end metrics, which time calls in CPU
// seconds of the whole process (README.md says why). With --trace 1 it
// alternates traced and untraced calls, times the floors and ceilings, and
// reports the per-layer metrics. Every mode prints one JSON object as its
// last line.
#include <sys/resource.h>
#include <sys/time.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <iostream>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bench_math.hpp"
#include "chol/vsa_chol.hpp"
#include "common/rng.hpp"
#include "kernels/tile_kernels.hpp"
#include "vsaqr/qr_batch.hpp"
#include "vsaqr/tree_qr.hpp"

namespace {

using namespace pulsarqr;
using perfbench::gflops;
using perfbench::median;
using perfbench::percentile;
using perfbench::share;
using Clock = std::chrono::steady_clock;
using Blocks = std::vector<std::span<const double>>;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double seconds_of(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
}

double seconds_of(const timespec& ts) {
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// CPU seconds this process has used, in all its threads (ended ones
/// included) and in its reaped children (the socket transport's node
/// processes). With paravirtual steal accounting the time a hypervisor
/// takes from a vCPU is charged to no task, so unlike wall time these do
/// not grow when neighbouring guests take the host.
struct CpuTime {
  double total = 0.0;  ///< user + kernel time, exact
  double sys = 0.0;    ///< kernel time, split from the total by tick samples
};

CpuTime cpu_now() {
  rusage self{}, kids{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &kids);
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return {seconds_of(ts) + seconds_of(kids.ru_utime) + seconds_of(kids.ru_stime),
          seconds_of(self.ru_stime) + seconds_of(kids.ru_stime)};
}

/// Wall and CPU time since construction.
struct Stopwatch {
  Clock::time_point wall0 = Clock::now();
  CpuTime cpu0 = cpu_now();
  double wall() const { return since(wall0); }
  CpuTime cpu() const {
    const CpuTime now = cpu_now();
    return {now.total - cpu0.total, now.sys - cpu0.sys};
  }
};

// ---- output ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string s = "{";
  for (const auto& m : ms) {
    if (s.size() > 1) s += ", ";
    s += "\"" + m.name + "\": {\"value\": " + num(m.value) + ", \"unit\": \"" +
         m.unit + "\"}";
  }
  return s + "}";
}

/// FNV-style hash over the 64-bit words of an output, with a shift so a
/// high-bit difference reaches the low bits too.
std::string hash_hex(const Blocks& blocks) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const auto& b : blocks) {
    for (double d : b) {
      std::uint64_t w;
      std::memcpy(&w, &d, sizeof w);
      h = (h ^ w) * 1099511628211ULL;
      h ^= h >> 29;
    }
  }
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

bool same_bits(const Blocks& a, const Blocks& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size() ||
        std::memcmp(a[i].data(), b[i].data(), a[i].size_bytes()) != 0) {
      return false;
    }
  }
  return true;
}

/// A fixed dependent multiply-add chain owned by the benchmark: its time
/// moves only with the host, never with the program.
void host_chain() {
  volatile double factor = 0.9999999;  // opaque, so the chain is not folded
  const double f = factor;
  double x = 1.0;
  for (int i = 0; i < 1'000'000; ++i) x = x * f + 1e-7;
  volatile double sink = x;
  (void)sink;
}

/// The benchmark's host gauge: the chain timed on one thread, in wall and
/// in thread-CPU time, a few times before and after a run. Its wall time
/// moves only with the host, never with the program, and wall over CPU
/// shows how much time the hypervisor took from the vCPU.
class HostLoop {
 public:
  void sample(int times) {
    for (int i = 0; i < times; ++i) {
      timespec c0{}, c1{};
      clock_gettime(CLOCK_THREAD_CPUTIME_ID, &c0);
      const auto t0 = Clock::now();
      host_chain();
      wall_.push_back(since(t0));
      clock_gettime(CLOCK_THREAD_CPUTIME_ID, &c1);
      cpu_.push_back(seconds_of(c1) - seconds_of(c0));
    }
  }
  double wall_s() const { return median(wall_); }
  double wall_over_cpu() const { return share(median(wall_), median(cpu_)); }

 private:
  std::vector<double> wall_, cpu_;
};

double peak_rss_mb() {
  rusage self{}, kids{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &kids);  // socket node processes, if any
  return static_cast<double>(self.ru_maxrss + kids.ru_maxrss) / 1024.0;
}

// ---- workloads ------------------------------------------------------------

/// One timed public call and what it returned besides its output.
struct Call {
  double seconds = 0.0;
  CpuTime cpu;
  bool ok = false;
  prt::Vsa::RunStats stats;
  std::vector<prt::trace::Event> events;
  std::vector<double> matrix_seconds;
  int vdps = 0;
  int channels = 0;
  long long chunks = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Turn the generated input into what the public call reads; seconds.
  virtual double prepare() = 0;
  /// Compute the reference output on one thread without the runtime;
  /// seconds.
  virtual double reference() = 0;
  /// One timed public call. `traced` turns on the runtime's own tracing
  /// (qr_batch has none; it records per-matrix latency instead). `twin`
  /// runs the in-process twin of a socket workload.
  virtual Call call(bool traced, bool twin = false) = 0;
  /// The last call's output and the reference, as comparable blocks.
  virtual Blocks output() const = 0;
  virtual Blocks expected() const = 0;
  virtual double useful_flops() const = 0;
  /// Flops the plan executes, extra kernels included.
  virtual double plan_flops() const { return useful_flops(); }
  /// Seconds of the lint_* entry point (graph build + GraphCheck, no
  /// firing), or 0 when the workload's API has none.
  virtual double lint_seconds() { return 0.0; }
  virtual bool has_twin() const { return false; }
};

/// Zero the strict lower triangle of every ib-wide block of the written T
/// tiles. No kernel reads it, and the runtime's packets leave it
/// unspecified, so the comparison covers only the triangles that matter.
void clear_unused_t(ref::TreeQrFactors& f) {
  auto clear = [ib = f.ib](MatrixView t) {
    for (int c = 0; c < t.cols; ++c) {
      for (int r = c % ib + 1; r < t.rows; ++r) t(r, c) = 0.0;
    }
  };
  for (const auto& op : f.plan.ops()) {
    if (op.kind == plan::OpKind::Geqrt) clear(f.tg.t(op.i, op.j));
    if (op.kind == plan::OpKind::Tsqrt || op.kind == plan::OpKind::Ttqrt) {
      clear(f.tt.t(op.k, op.j));
    }
  }
}

Blocks qr_blocks(const ref::TreeQrFactors& f) {
  Blocks out;
  const TileMatrix& a = f.a;
  for (int j = 0; j < a.nt(); ++j) {
    for (int i = 0; i < a.mt(); ++i) {
      out.emplace_back(a.tile_data(i, j), static_cast<std::size_t>(
                                              a.tile_rows(i)) * a.tile_cols(j));
    }
  }
  auto add = [&out](ConstMatrixView t) {
    out.emplace_back(t.data, static_cast<std::size_t>(t.rows) * t.cols);
  };
  for (const auto& op : f.plan.ops()) {
    if (op.kind == plan::OpKind::Geqrt) add(f.tg.t(op.i, op.j));
    if (op.kind == plan::OpKind::Tsqrt || op.kind == plan::OpKind::Ttqrt) {
      add(f.tt.t(op.k, op.j));
    }
  }
  return out;
}

struct QrShape {
  int m, n, nb, ib, nodes, workers;
  prt::Transport transport;
};

class TreeQrWorkload : public Workload {
 public:
  TreeQrWorkload(const QrShape& s, std::uint64_t seed)
      : s_(s), dense_(s.m, s.n) {
    fill_random(dense_.view(), seed);
    opt_.tree = {plan::TreeKind::BinaryOnFlat, 6, plan::BoundaryMode::Shifted};
    opt_.ib = s.ib;
    opt_.nodes = s.nodes;
    opt_.workers_per_node = s.workers;
    opt_.transport = s.transport;
  }

  double prepare() override {
    const auto t0 = Clock::now();
    a_ = TileMatrix::from_dense(dense_.view(), s_.nb);
    return since(t0);
  }

  double reference() override {
    TileMatrix copy = a_;
    const auto t0 = Clock::now();
    ref_.emplace(ref::tree_qr(std::move(copy), s_.ib, opt_.tree));
    const double s = since(t0);
    clear_unused_t(*ref_);
    return s;
  }

  Call call(bool traced, bool twin) override {
    last_.reset();  // recycle the previous output's memory before timing
    vsaqr::TreeQrOptions o = opt_;
    o.trace = traced;
    if (twin) o.transport = prt::Transport::InProcess;
    const Stopwatch sw;
    vsaqr::TreeQrRun r = vsaqr::tree_qr(a_, o);
    Call c;
    c.seconds = sw.wall();
    c.cpu = sw.cpu();
    c.stats = std::move(r.stats);
    c.events = std::move(r.events);
    c.vdps = r.vdp_count;
    c.channels = r.channel_count;
    last_.emplace(std::move(r.factors));
    clear_unused_t(*last_);
    return c;
  }

  Blocks output() const override { return qr_blocks(*last_); }
  Blocks expected() const override { return qr_blocks(*ref_); }
  double useful_flops() const override {
    return plan::qr_useful_flops(s_.m, s_.n);
  }
  double plan_flops() const override {
    return plan::plan_flops(plan(), s_.m, s_.n, s_.nb);
  }
  double lint_seconds() override {
    const auto t0 = Clock::now();
    const prt::GraphReport rep = vsaqr::lint_tree_qr(a_, opt_);
    require(rep.ok(), "lint_tree_qr: " + rep.to_string());
    return since(t0);
  }
  bool has_twin() const override {
    return s_.transport == prt::Transport::Socket;
  }

  const QrShape& shape() const { return s_; }
  plan::ReductionPlan plan() const {
    return plan::ReductionPlan(a_.mt(), a_.nt(), opt_.tree);
  }

 private:
  QrShape s_;
  Matrix dense_;
  TileMatrix a_;
  vsaqr::TreeQrOptions opt_;
  std::optional<ref::TreeQrFactors> ref_;
  std::optional<ref::TreeQrFactors> last_;
};

class BatchWorkload : public Workload {
 public:
  static constexpr int kCount = 1024, kM = 64, kN = 16, kIb = 32;

  explicit BatchWorkload(std::uint64_t seed) {
    Rng rng(seed);
    for (int i = 0; i < kCount; ++i) {
      pristine_.emplace_back(kM, kN);
      for (int j = 0; j < kN; ++j) {
        for (int r = 0; r < kM; ++r) pristine_.back()(r, j) = rng.next_symmetric();
      }
      a_.emplace_back(kM, kN);
      t_.emplace_back(std::min(kIb, kN), kN);
      ref_a_.emplace_back(kM, kN);
      ref_t_.emplace_back(std::min(kIb, kN), kN);
    }
    for (int i = 0; i < kCount; ++i) {
      av_.push_back(a_[i].view());
      tv_.push_back(t_[i].view());
    }
    opt_.ib = kIb;
    opt_.workers_per_node = 2;
  }

  /// The batch fill: matrices are factored in place, so every call starts
  /// from the pristine copies.
  double prepare() override {
    const auto t0 = Clock::now();
    for (int i = 0; i < kCount; ++i) {
      std::memcpy(a_[i].data(), pristine_[i].data(),
                  sizeof(double) * kM * kN);
    }
    return since(t0);
  }

  /// The sequential geqrt loop on one thread: the zero-runtime floor.
  double reference() override {
    for (int i = 0; i < kCount; ++i) {
      std::memcpy(ref_a_[i].data(), pristine_[i].data(),
                  sizeof(double) * kM * kN);
    }
    kernels::Workspace ws;
    const auto t0 = Clock::now();
    for (int i = 0; i < kCount; ++i) {
      kernels::geqrt(ref_a_[i].view(), kIb, ref_t_[i].view(), ws);
    }
    return since(t0);
  }

  Call call(bool traced, bool) override {
    prepare();
    vsaqr::BatchOptions o = opt_;
    o.record_latency = traced;
    const Stopwatch sw;
    vsaqr::BatchRun r = vsaqr::qr_batch(std::span<const MatrixView>(av_),
                                        std::span<const MatrixView>(tv_), o);
    Call c;
    c.seconds = sw.wall();
    c.cpu = sw.cpu();
    c.stats = std::move(r.stats);
    c.matrix_seconds = std::move(r.matrix_seconds);
    c.vdps = r.vdp_count;
    c.chunks = r.chunks;
    return c;
  }

  Blocks output() const override { return blocks(a_, t_); }
  Blocks expected() const override { return blocks(ref_a_, ref_t_); }
  double useful_flops() const override {
    return kCount * plan::flops_geqrt(kM, kN);
  }

 private:
  static Blocks blocks(const std::vector<Matrix>& a,
                       const std::vector<Matrix>& t) {
    Blocks out;
    for (std::size_t i = 0; i < a.size(); ++i) {
      out.emplace_back(a[i].data(),
                       static_cast<std::size_t>(a[i].rows()) * a[i].cols());
      out.emplace_back(t[i].data(),
                       static_cast<std::size_t>(t[i].rows()) * t[i].cols());
    }
    return out;
  }

  std::vector<Matrix> pristine_, a_, t_, ref_a_, ref_t_;
  std::vector<MatrixView> av_, tv_;
  vsaqr::BatchOptions opt_;
};

class CholWorkload : public Workload {
 public:
  static constexpr int kN = 3072, kNb = 128;

  /// Symmetric uniform noise plus n on the diagonal: strictly diagonally
  /// dominant, hence SPD, and made in O(n^2).
  explicit CholWorkload(std::uint64_t seed) : dense_(kN, kN) {
    Rng rng(seed);
    for (int j = 0; j < kN; ++j) {
      for (int i = j; i < kN; ++i) {
        const double v = rng.next_symmetric();
        dense_(i, j) = v;
        dense_(j, i) = v;
      }
      dense_(j, j) += kN;
    }
    opt_.nodes = 2;
    opt_.workers_per_node = 1;
  }

  double prepare() override {
    const auto t0 = Clock::now();
    a_ = TileMatrix::from_dense(dense_.view(), kNb);
    return since(t0);
  }

  double reference() override {
    TileMatrix copy = a_;
    const auto t0 = Clock::now();
    ref_ = chol::tile_cholesky(std::move(copy));
    return since(t0);
  }

  Call call(bool traced, bool) override {
    last_ = TileMatrix();
    chol::VsaCholOptions o = opt_;
    o.trace = traced;
    const Stopwatch sw;
    chol::VsaCholRun r = chol::vsa_cholesky(a_, o);
    Call c;
    c.seconds = sw.wall();
    c.cpu = sw.cpu();
    c.stats = std::move(r.stats);
    c.events = std::move(r.events);
    c.vdps = r.vdp_count;
    c.channels = r.channel_count;
    last_ = std::move(r.l);
    return c;
  }

  Blocks output() const override { return lower_tiles(last_); }
  Blocks expected() const override { return lower_tiles(ref_); }
  double useful_flops() const override { return chol::chol_useful_flops(kN); }
  double plan_flops() const override {
    return chol::plan_flops(plan(), kN, kNb);
  }
  double lint_seconds() override {
    const auto t0 = Clock::now();
    const prt::GraphReport rep = chol::lint_vsa_cholesky(a_, opt_);
    require(rep.ok(), "lint_vsa_cholesky: " + rep.to_string());
    return since(t0);
  }

  chol::CholPlan plan() const { return chol::CholPlan(a_.mt()); }

 private:
  static Blocks lower_tiles(const TileMatrix& l) {
    Blocks out;
    for (int j = 0; j < l.nt(); ++j) {
      for (int i = j; i < l.mt(); ++i) {
        out.emplace_back(l.tile_data(i, j), static_cast<std::size_t>(
                                                l.tile_rows(i)) * l.tile_cols(j));
      }
    }
    return out;
  }

  Matrix dense_;
  TileMatrix a_, ref_, last_;
  chol::VsaCholOptions opt_;
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "qr_tall") {
    return std::make_unique<TreeQrWorkload>(
        QrShape{8192, 1024, 128, 32, 1, 2, prt::Transport::InProcess}, seed);
  }
  if (name == "qr_socket") {
    return std::make_unique<TreeQrWorkload>(
        QrShape{4096, 512, 64, 16, 2, 1, prt::Transport::Socket}, seed);
  }
  if (name == "batch_small") return std::make_unique<BatchWorkload>(seed);
  if (name == "chol_2node") return std::make_unique<CholWorkload>(seed);
  throw std::runtime_error("unknown workload '" + name + "'");
}

// ---- measurement ----------------------------------------------------------

/// Issues calls and checks each output; a throw or a mismatch is a failure.
struct Caller {
  Workload& w;
  long long attempted = 0;
  long long failed = 0;

  Call operator()(bool traced, bool twin = false) {
    ++attempted;
    Call c;
    try {
      c = w.call(traced, twin);
      c.ok = same_bits(w.output(), w.expected());
      if (!c.ok) std::cerr << "vsabench: output differs from the reference\n";
    } catch (const std::exception& e) {
      std::cerr << "vsabench: call failed: " << e.what() << "\n";
    }
    if (!c.ok) ++failed;
    return c;
  }
};

/// A per-call quantity over the successful calls.
template <class F>
std::vector<double> per_call(const std::vector<Call>& calls, F f) {
  std::vector<double> v;
  for (const auto& c : calls) {
    if (c.ok) v.push_back(f(c));
  }
  return v;
}

/// CPU seconds per call (all threads and node processes, user + kernel):
/// the gated call time.
std::vector<double> cpu_times(const std::vector<Call>& calls) {
  return per_call(calls, [](const Call& c) { return c.cpu.total; });
}

std::vector<double> wall_times(const std::vector<Call>& calls) {
  return per_call(calls, [](const Call& c) { return c.seconds; });
}

/// Median over the successful calls of a per-call quantity.
template <class F>
double median_of(const std::vector<Call>& calls, F f) {
  return median(per_call(calls, f));
}

void print_result(const Caller& caller, const std::string& ref_hash,
                  const std::vector<Metric>& metrics,
                  const std::vector<Metric>& detail) {
  std::cout << "{\"attempted\": " << caller.attempted
            << ", \"failed\": " << caller.failed << ", \"ref_hash\": \""
            << ref_hash << "\", \"metrics\": " << metrics_json(metrics)
            << ", \"detail\": " << metrics_json(detail) << "}" << std::endl;
}

/// The call-time distribution of one run and the host it ran on, so
/// steadiness can be judged.
std::vector<Metric> call_detail(const std::vector<Call>& calls,
                                const HostLoop& host) {
  const std::vector<double> cpu = cpu_times(calls), wall = wall_times(calls);
  return {{"calls", static_cast<double>(cpu.size()), "count"},
          {"cpu_q1_s", percentile(cpu, 25), "s"},
          {"cpu_q3_s", percentile(cpu, 75), "s"},
          {"wall_p50_s", median(wall), "s"},
          {"wall_q1_s", percentile(wall, 25), "s"},
          {"wall_q3_s", percentile(wall, 75), "s"},
          {"host_loop_s", host.wall_s(), "s"},
          {"host_wall_over_cpu", host.wall_over_cpu(), "ratio"}};
}

int run_untraced(Workload& w, double seconds) {
  w.prepare();
  w.reference();
  Caller caller{w};
  caller(false);  // warm-up: fills the packet pool, workspaces and pages
  HostLoop host;
  host.sample(5);
  std::vector<Call> calls;
  const auto start = Clock::now();
  while (since(start) < seconds) calls.push_back(caller(false));
  host.sample(5);

  const double p50 = median(cpu_times(calls));
  print_result(caller, hash_hex(w.expected()),
               {{"call_cpu_s", p50, "s"},
                {"gflops_per_cpu", gflops(w.useful_flops(), p50), "Gflop/cpu-s"},
                {"peak_rss_mb", peak_rss_mb(), "MB"}},
               call_detail(calls, host));
  return caller.failed == 0 ? 0 : 1;
}

/// Single-thread Gflop/s of tsmqr (or ttmqr) at one nb/ib, called directly.
double kernel_ceiling(int nb, int ib, bool tt, std::uint64_t seed) {
  Matrix r1(nb, nb), v2(nb, nb), t(ib, nb), c1(nb, nb), c2(nb, nb);
  fill_random(r1.view(), seed);
  fill_random(v2.view(), seed + 1);
  fill_random(c1.view(), seed + 2);
  fill_random(c2.view(), seed + 3);
  kernels::Workspace ws;
  if (tt) {
    kernels::ttqrt(r1.view(), v2.view(), ib, t.view(), ws);
  } else {
    kernels::tsqrt(r1.view(), v2.view(), ib, t.view(), ws);
  }
  const double flops =
      tt ? plan::flops_ttmqr(nb, nb) : plan::flops_tsmqr(nb, nb, nb);
  auto apply = [&] {
    if (tt) {
      kernels::ttmqr(blas::Trans::Yes, v2.view(), t.view(), ib, c1.view(),
                     c2.view(), ws);
    } else {
      kernels::tsmqr(blas::Trans::Yes, v2.view(), t.view(), ib, c1.view(),
                     c2.view(), ws);
    }
  };
  auto t0 = Clock::now();
  apply();
  const int reps = std::max(1, static_cast<int>(0.05 / since(t0)));
  std::vector<double> rates;
  for (int r = 0; r < 5; ++r) {
    t0 = Clock::now();
    for (int i = 0; i < reps; ++i) apply();
    rates.push_back(gflops(reps * flops, since(t0)));
  }
  return median(rates);
}

int run_traced(Workload& w, double seconds, std::uint64_t seed) {
  std::vector<double> prep, floor;
  for (int i = 0; i < 5; ++i) prep.push_back(w.prepare());
  // The reference doubles as the sequential floor; repeat short ones.
  const auto floor_start = Clock::now();
  do {
    floor.push_back(w.reference());
  } while (floor.size() < 5 && since(floor_start) < 0.5);
  Caller caller{w};
  caller(false);  // warm-up
  HostLoop host;
  host.sample(5);
  std::vector<double> lint;
  for (int i = 0; i < 3; ++i) lint.push_back(w.lint_seconds());

  std::vector<Call> plain, traced, twin;
  const auto start = Clock::now();
  while (since(start) < seconds) {
    plain.push_back(caller(false));
    traced.push_back(caller(true));
    if (w.has_twin()) twin.push_back(caller(false, true));
  }
  host.sample(5);

  const std::vector<double> t_plain = wall_times(plain);
  const double p50 = median(t_plain);
  auto run_s = [](const Call& c) { return c.stats.seconds; };
  auto busy = [](const Call& c) { return c.stats.busy_per_thread; };
  const Call& last = traced.back();
  std::vector<Metric> m = {
      {"tile.from_dense_s", median(prep), "s"},
      {"prt.build_check_s", median(lint), "s"},
      {"prt.run_s", median_of(traced, run_s), "s"},
      {"prt.outside_run_s",
       median_of(traced, [&](const Call& c) { return c.seconds - run_s(c); }),
       "s"},
      {"prt.fires", static_cast<double>(last.stats.fires), "count"},
      {"prt.vdps", static_cast<double>(last.vdps), "count"},
      {"prt.channels", static_cast<double>(last.channels), "count"},
      {"prt.worker_busy_ratio", median_of(traced,
                                          [&](const Call& c) {
                                            return perfbench::busy_ratio(
                                                run_s(c), busy(c));
                                          }),
       "ratio"},
      {"prt.idle_per_fire_us", median_of(traced,
                                         [&](const Call& c) {
                                           return perfbench::idle_per_fire_us(
                                               run_s(c), busy(c),
                                               c.stats.fires);
                                         }),
       "us"},
  };

  // Per trace color: class flops over class busy time.
  double factor = 0, update = 0, binary = 0, update_share = 0, ts = 0, tt = 0,
         seq_floor = 0;
  if (auto* q = dynamic_cast<TreeQrWorkload*>(&w)) {
    const QrShape& s = q->shape();
    const plan::ReductionPlan pl = q->plan();
    const auto cf = perfbench::qr_color_flops(pl, s.m, s.n, s.nb);
    auto color_rate = [&](int color) {
      return median_of(traced, [&](const Call& c) {
        return gflops(cf[color], perfbench::busy_by_color(c.events, 3)[color]);
      });
    };
    factor = color_rate(0);
    update = color_rate(1);
    binary = color_rate(2);
    update_share = median_of(traced, [](const Call& c) {
      const auto b = perfbench::busy_by_color(c.events, 3);
      return share(b[1], perfbench::sum(b));
    });
    ts = kernel_ceiling(s.nb, s.ib, false, seed);
    tt = kernel_ceiling(s.nb, s.ib, true, seed);
    seq_floor = median(floor);
  }
  m.push_back(
      {"plan.flop_ratio", share(w.plan_flops(), w.useful_flops()), "ratio"});
  m.push_back({"kernels.factor_gflops", factor, "Gflop/s"});
  m.push_back({"kernels.update_gflops", update, "Gflop/s"});
  m.push_back({"kernels.binary_gflops", binary, "Gflop/s"});
  m.push_back({"kernels.update_share", update_share, "ratio"});
  m.push_back({"kernels.tsmqr_ceiling_gflops", ts, "Gflop/s"});
  m.push_back({"kernels.ttmqr_ceiling_gflops", tt, "Gflop/s"});
  m.push_back({"kernels.seq_floor_s", seq_floor, "s"});

  const bool batch = dynamic_cast<BatchWorkload*>(&w) != nullptr;
  double geqrt_us = 0, batch_floor = 0, runtime_share = 0, jobs = 0;
  if (batch) {
    geqrt_us = 1e6 * median_of(traced, [](const Call& c) {
                 return median(c.matrix_seconds);
               });
    batch_floor = median(floor);
    runtime_share = median_of(traced, [](const Call& c) {
      const double workers = static_cast<double>(c.stats.busy_per_thread.size());
      return std::max(0.0, 1.0 - share(perfbench::sum(c.matrix_seconds),
                                       workers * c.seconds));
    });
    jobs = share(BatchWorkload::kCount, p50);
  }
  m.push_back({"kernels.geqrt_small_p50_us", geqrt_us, "us"});
  m.push_back({"kernels.batch_seq_floor_s", batch_floor, "s"});
  m.push_back({"vsaqr.batch_runtime_share", runtime_share, "ratio"});
  m.push_back({"vsaqr.batch_chunks",
               batch ? static_cast<double>(last.chunks) : 0.0, "count"});
  m.push_back({"vsaqr.jobs_per_s", jobs, "1/s"});

  double chol_update = 0, chol_share = 0;
  if (auto* ch = dynamic_cast<CholWorkload*>(&w)) {
    const auto cf = perfbench::chol_color_flops(ch->plan(), CholWorkload::kN,
                                                CholWorkload::kNb);
    chol_update = median_of(traced, [&](const Call& c) {
      return gflops(cf[1], perfbench::busy_by_color(c.events, 2)[1]);
    });
    chol_share = median_of(traced, [](const Call& c) {
      const auto b = perfbench::busy_by_color(c.events, 2);
      return share(b[1], perfbench::sum(b));
    });
  }
  m.push_back({"chol.update_gflops", chol_update, "Gflop/s"});
  m.push_back({"chol.update_share", chol_share, "ratio"});

  auto stat = [&](auto f) {
    return median_of(traced, [&](const Call& c) {
      return static_cast<double>(f(c.stats));
    });
  };
  using Stats = prt::Vsa::RunStats;
  m.push_back({"prt.net.remote_messages",
               stat([](const Stats& s) { return s.remote_messages; }),
               "count"});
  m.push_back({"prt.net.remote_mb",
               stat([](const Stats& s) { return s.remote_bytes / 1e6; }),
               "MB"});
  m.push_back({"prt.net.wire_messages",
               stat([](const Stats& s) { return s.wire_messages; }), "count"});
  m.push_back({"prt.net.aggregates",
               stat([](const Stats& s) { return s.aggregates_sent; }),
               "count"});
  m.push_back({"prt.net.coalesce_ratio", stat([](const Stats& s) {
                 return share(s.coalesced_frames, s.remote_messages);
               }),
               "ratio"});
  m.push_back({"prt.pool_miss_ratio", stat([](const Stats& s) {
                 return share(s.pool_misses, s.pool_hits + s.pool_misses);
               }),
               "ratio"});
  m.push_back({"prt.net.proxy_busy_s", stat([](const Stats& s) {
                 return perfbench::sum(s.proxy_busy_per_node);
               }),
               "s"});
  m.push_back({"prt.net.socket_over_inproc_s",
               w.has_twin() ? p50 - median(wall_times(twin)) : 0.0, "s"});

  m.push_back({"wall.call_p50_s", p50, "s"});
  m.push_back({"tail.call_p90_s", percentile(t_plain, 90), "s"});
  m.push_back({"tail.calls", static_cast<double>(t_plain.size()), "count"});
  m.push_back({"host.ref_loop_s", host.wall_s(), "s"});
  m.push_back({"host.wall_over_cpu", host.wall_over_cpu(), "ratio"});
  const double plain_cpu = median(cpu_times(plain));
  m.push_back({"cpu.call_cpu_s", plain_cpu, "s"});
  m.push_back({"cpu.cores_busy", share(plain_cpu, p50), "count"});
  m.push_back({"cpu.sys_share",
               share(perfbench::sum(per_call(
                         plain, [](const Call& c) { return c.cpu.sys; })),
                     perfbench::sum(cpu_times(plain))),
               "ratio"});
  m.push_back({"trace.overhead_ratio",
               share(median(cpu_times(traced)), plain_cpu), "ratio"});

  print_result(caller, hash_hex(w.expected()), m, call_detail(plain, host));
  return caller.failed == 0 ? 0 : 1;
}

int run_setup(Workload& w) {
  const Stopwatch sw;
  w.prepare();
  w.call(false);
  const double cpu = sw.cpu().total, wall = sw.wall();
  std::cout << "{\"setup_s\": " << num(cpu) << ", \"setup_wall_s\": "
            << num(wall) << ", \"hash\": \"" << hash_hex(w.output()) << "\"}"
            << std::endl;
  return 0;
}

// ---- self-test ------------------------------------------------------------

int selftest() {
  int checks = 0, bad = 0;
  auto near = [&](const char* what, double got, double want) {
    ++checks;
    if (std::abs(got - want) > 1e-9 * std::max(1.0, std::abs(want))) {
      ++bad;
      std::cerr << "selftest: " << what << " = " << got << ", want " << want
                << "\n";
    }
  };
  // Nearest-rank percentiles are always measured samples.
  near("median odd", median({5, 1, 4, 2, 3}), 3);
  near("median even (lower)", median({4, 1, 3, 2}), 2);
  near("median single", median({7}), 7);
  near("median empty", median({}), 0);
  std::vector<double> ten = {10, 9, 8, 7, 6, 5, 4, 3, 2, 1};
  near("p90 of 1..10", percentile(ten, 90), 9);
  near("p25 of 1..10", percentile(ten, 25), 3);
  near("p75 of 1..10", percentile(ten, 75), 8);
  near("p100 of 1..10", percentile(ten, 100), 10);
  near("p0 of 1..10", percentile(ten, 0), 1);
  near("p90 of 20", percentile(std::vector<double>(20, 1.5), 90), 1.5);
  // Ratios.
  near("share", share(1, 4), 0.25);
  near("share of nothing", share(1, 0), 0);
  near("gflops", gflops(3e9, 2), 1.5);
  near("busy ratio", perfbench::busy_ratio(2.0, {1.0, 0.5}), 0.375);
  near("idle per fire", perfbench::idle_per_fire_us(2.0, {1.0, 0.5}, 5),
       500000);
  near("idle never negative", perfbench::idle_per_fire_us(1.0, {1.5}, 5), 0);

  // Flops per QR trace color, by hand: binary tree over a 2x2 grid of 4x4
  // tiles runs geqrt x3, ormqr x2, ttqrt and ttmqr once.
  const plan::ReductionPlan bin(2, 2, {plan::TreeKind::Binary, 1,
                                       plan::BoundaryMode::Shifted});
  const auto qf = perfbench::qr_color_flops(bin, 8, 8, 4);
  near("qr factor flops", qf[0], 3 * 2.0 * 16 * (4 - 4 / 3.0));
  near("qr update flops", qf[1], 2 * (4.0 * 64 + 64));
  near("qr binary flops", qf[2], (2.0 / 3 * 64 + 16) + (2.0 * 64 + 64));
  near("qr colors sum to plan", qf[0] + qf[1] + qf[2],
       plan::plan_flops(bin, 8, 8, 4));
  // Cholesky on a 2x2 grid of 4x4 tiles: potrf x2 and trsm are the panel,
  // syrk the update.
  const auto cf = perfbench::chol_color_flops(chol::CholPlan(2), 8, 4);
  near("chol panel flops", cf[0], 2 * 64 / 3.0 + 64);
  near("chol update flops", cf[1], 64);

  // Busy time per color leaves transport marks out.
  std::vector<prt::trace::Event> ev(3);
  ev[0].color = 0, ev[0].t0 = 0.0, ev[0].t1 = 1.0;
  ev[1].color = 1, ev[1].t0 = 1.0, ev[1].t1 = 3.0;
  ev[2].color = prt::trace::kColorTransport, ev[2].t0 = 2, ev[2].t1 = 2.5;
  const auto b = perfbench::busy_by_color(ev, 2);
  near("busy color 0", b[0], 1);
  near("busy color 1", b[1], 2);
  near("update share", share(b[1], perfbench::sum(b)), 2 / 3.0);

  std::cout << "{\"selftest_checks\": " << checks << ", \"failed\": " << bad
            << "}" << std::endl;
  return bad == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::string mode = argc > 1 ? argv[1] : "";
    if (mode == "selftest") return selftest();
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    for (int i = 2; i + 1 < argc; i += 2) {
      const std::string k = argv[i], v = argv[i + 1];
      if (k == "--workload") workload = v;
      else if (k == "--seed") seed = std::stoull(v);
      else if (k == "--seconds") seconds = std::stod(v);
      else if (k == "--trace") trace = v == "1";
      else throw std::runtime_error("unknown flag " + k);
    }
    auto w = make_workload(workload, seed);
    if (mode == "setup") return run_setup(*w);
    if (mode == "run") {
      return trace ? run_traced(*w, seconds, seed) : run_untraced(*w, seconds);
    }
    throw std::runtime_error("usage: vsabench selftest | setup ... | run ...");
  } catch (const std::exception& e) {
    std::cerr << "vsabench: " << e.what() << "\n";
    return 2;
  }
}
