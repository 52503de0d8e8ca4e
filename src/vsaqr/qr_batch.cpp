// Fused batch plan: P = min(threads, batch) VDPs, VDP v = tuple (10, v)
// mapped to global thread v, each fed one prefilled channel of [begin, end)
// range packets covering its contiguous slice of the batch. No inter-VDP
// channels: the batch elements are independent, so the graph is P disjoint
// source->sink pipelines and GraphCheck verifies the feed/counter balance
// per VDP. The views live in a shared read-only global (the paper's
// "read-only global parameters"); a range packet is two doubles.
#include "vsaqr/qr_batch.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <utility>

#include "kernels/tile_kernels.hpp"
#include "kernels/workspace.hpp"

namespace pulsarqr::vsaqr {

namespace {

using prt::Packet;
using prt::Tuple;
using prt::VdpContext;

/// Tuple kind of the batch VDPs (the QR/Cholesky/LU builders use 0..5 in
/// their own graphs; batch graphs are never mixed with them, the distinct
/// kind just keeps traces and stuck-VDP diagnostics unambiguous).
constexpr int kBatchVdpKind = 10;

template <class T>
struct BatchState {
  std::vector<MatrixViewT<T>> a;
  std::vector<MatrixViewT<T>> t;
  int ib = 32;
  /// Latency sink; null when recording is off. Each VDP writes only the
  /// indices of its own slice, so the concurrent writes are disjoint.
  std::vector<double>* lat = nullptr;
};

template <class T>
void batch_fire(VdpContext& ctx) {
  BatchState<T>& st = ctx.global<BatchState<T>>();
  Packet p = ctx.pop(0);
  const double* range = p.doubles();
  const auto begin = static_cast<std::size_t>(range[0]);
  const auto end = static_cast<std::size_t>(range[1]);
  kernels::Workspace& ws = kernels::tls_workspace();
  if (st.lat == nullptr) {
    for (std::size_t i = begin; i < end; ++i) {
      kernels::geqrt(st.a[i], st.ib, st.t[i], ws);
    }
  } else {
    using clock = std::chrono::steady_clock;
    for (std::size_t i = begin; i < end; ++i) {
      const auto t0 = clock::now();
      kernels::geqrt(st.a[i], st.ib, st.t[i], ws);
      (*st.lat)[i] =
          std::chrono::duration<double>(clock::now() - t0).count();
    }
  }
}

template <class T>
BatchRun qr_batch_t(std::span<const MatrixViewT<T>> a,
                    std::span<const MatrixViewT<T>> t,
                    const BatchOptions& opt) {
  require(a.size() == t.size(), "qr_batch: matrix/T-factor count mismatch");
  require(opt.ib >= 1, "qr_batch: ib must be positive");
  require(opt.nodes >= 1 && opt.workers_per_node >= 1,
          "qr_batch: need at least one node and worker");
  require(opt.transport == prt::Transport::InProcess,
          "qr_batch: only the in-process transport is supported (results "
          "are written into caller memory)");
  const long long batch = static_cast<long long>(a.size());
  for (long long i = 0; i < batch; ++i) {
    const int k = std::min(a[i].rows, a[i].cols);
    require(t[i].rows >= std::min(opt.ib, k) && t[i].cols >= k,
            "qr_batch: T factor too small for its matrix");
  }

  BatchRun out;
  if (opt.record_latency) out.matrix_seconds.assign(a.size(), 0.0);
  if (batch == 0) return out;

  prt::Vsa vsa(opt);

  auto st = std::make_shared<BatchState<T>>();
  st->a.assign(a.begin(), a.end());
  st->t.assign(t.begin(), t.end());
  st->ib = opt.ib;
  st->lat = opt.record_latency ? &out.matrix_seconds : nullptr;
  vsa.set_global(st);

  const int threads = vsa.total_threads();
  const int nvdp =
      static_cast<int>(std::min<long long>(threads, batch));
  long long chunk = opt.chunk;
  if (chunk <= 0) {
    // Auto: ~8 firings per VDP, capped so huge batches still make packets
    // negligible and tiny ones fire once per matrix.
    chunk = std::clamp<long long>(batch / (8LL * nvdp), 1, 64);
  }

  long long next = 0;
  for (int v = 0; v < nvdp; ++v) {
    const long long slice = batch / nvdp + (v < batch % nvdp ? 1 : 0);
    const long long end = next + slice;
    std::vector<Packet> ranges;
    ranges.reserve(static_cast<std::size_t>((slice + chunk - 1) / chunk));
    for (long long s = next; s < end; s += chunk) {
      Packet p = Packet::make(2 * sizeof(double), v);
      p.doubles()[0] = static_cast<double>(s);
      p.doubles()[1] = static_cast<double>(std::min(end, s + chunk));
      ranges.push_back(std::move(p));
    }
    const int fires = static_cast<int>(ranges.size());
    const Tuple id{kBatchVdpKind, v};
    vsa.add_vdp(id, fires, &batch_fire<T>, /*num_inputs=*/1,
                /*num_outputs=*/0, /*color=*/0, /*outputs_per_fire=*/0);
    vsa.feed(id, 0, 2 * sizeof(double), std::move(ranges));
    vsa.map_vdp(id, v);
    out.chunks += fires;
    next = end;
  }
  out.vdp_count = nvdp;
  out.stats = vsa.run();
  return out;
}

}  // namespace

BatchRun qr_batch(std::span<const MatrixView> a, std::span<const MatrixView> t,
                  const BatchOptions& opt) {
  return qr_batch_t<double>(a, t, opt);
}

BatchRun qr_batch(std::span<const MatrixViewF> a,
                  std::span<const MatrixViewF> t, const BatchOptions& opt) {
  return qr_batch_t<float>(a, t, opt);
}

}  // namespace pulsarqr::vsaqr
