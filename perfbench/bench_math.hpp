// Arithmetic behind the benchmark's metrics, kept apart from the workloads
// so `vsabench selftest` can check it against hand-computed values.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <vector>

#include "chol/chol_plan.hpp"
#include "plan/flops.hpp"
#include "plan/reduction_plan.hpp"
#include "prt/trace.hpp"

namespace perfbench {

/// Nearest-rank percentile: the smallest sample that has at least p percent
/// of the samples at or below it. Always one of the measured values.
inline double percentile(std::vector<double> v, int p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  const std::size_t rank = (static_cast<std::size_t>(p) * n + 99) / 100;
  return v[std::clamp<std::size_t>(rank, 1, n) - 1];
}

inline double median(std::vector<double> v) {
  return percentile(std::move(v), 50);
}

/// part / whole, or 0 when there is no whole.
inline double share(double part, double whole) {
  return whole > 0.0 ? part / whole : 0.0;
}

inline double gflops(double flops, double seconds) {
  return share(flops, seconds) * 1e-9;
}

inline double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

/// Share of the run's worker time spent inside firings.
inline double busy_ratio(double run_s, const std::vector<double>& busy) {
  return share(sum(busy), run_s * static_cast<double>(busy.size()));
}

/// Worker time outside firings, spread over the firings, in microseconds.
inline double idle_per_fire_us(double run_s, const std::vector<double>& busy,
                               long long fires) {
  const double idle =
      std::max(0.0, run_s * static_cast<double>(busy.size()) - sum(busy));
  return share(idle, static_cast<double>(fires)) * 1e6;
}

/// QR trace colors (vsaqr::TraceColor): flat factor VDPs run geqrt/tsqrt,
/// flat update VDPs ormqr/tsmqr, binary VDPs ttqrt/ttmqr.
inline int qr_color(pulsarqr::plan::OpKind k) {
  using pulsarqr::plan::OpKind;
  switch (k) {
    case OpKind::Geqrt:
    case OpKind::Tsqrt:
      return 0;
    case OpKind::Ormqr:
    case OpKind::Tsmqr:
      return 1;
    case OpKind::Ttqrt:
    case OpKind::Ttmqr:
      return 2;
  }
  return 0;
}

/// Plan flops per QR trace color (factor, update, binary).
inline std::array<double, 3> qr_color_flops(
    const pulsarqr::plan::ReductionPlan& plan, int m, int n, int nb) {
  std::array<double, 3> out{};
  for (const auto& op : plan.ops()) {
    out[qr_color(op.kind)] += pulsarqr::plan::op_flops(op, m, n, nb);
  }
  return out;
}

/// Plan flops per Cholesky trace color (panel: potrf/trsm, update:
/// syrk/gemm).
inline std::array<double, 2> chol_color_flops(
    const pulsarqr::chol::CholPlan& plan, int n, int nb) {
  using pulsarqr::chol::OpKind;
  std::array<double, 2> out{};
  for (const auto& op : plan.ops()) {
    const bool update = op.kind == OpKind::Syrk || op.kind == OpKind::Gemm;
    out[update ? 1 : 0] += pulsarqr::chol::op_flops(op, n, nb);
  }
  return out;
}

/// Busy seconds per trace color over firing events; colors at or above
/// `colors` (transport marks) are left out.
inline std::vector<double> busy_by_color(
    const std::vector<pulsarqr::prt::trace::Event>& events, int colors) {
  std::vector<double> out(static_cast<std::size_t>(colors), 0.0);
  for (const auto& e : events) {
    if (e.color >= 0 && e.color < colors) out[e.color] += e.t1 - e.t0;
  }
  return out;
}

}  // namespace perfbench
