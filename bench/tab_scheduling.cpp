// Section V-D reproduction: lazy vs aggressive VDP scheduling.
//
// Paper: "For our tree-based QR, the lazy scheduling scheme often obtained
// better core utilization than the aggressive scheme did", because lazy
// sweeping lets the panel factorization interleave with the trailing
// updates (lookahead). We run the real runtime in both modes, alternating
// them over repeated runs, and report each schedule's median wall time,
// utilization and overlap with their spread (min-max over the runs): one
// run of a few milliseconds measures thread start-up and host noise as
// much as the schedule. Exits nonzero unless every run of both schedules
// produces bitwise-identical factors.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "prt/trace.hpp"
#include "vsaqr/tree_qr.hpp"

using namespace pulsarqr;

namespace {

constexpr int kRuns = 7;  // per schedule

/// One sample per run, per measure.
struct Samples {
  std::vector<double> wall, utilization, overlap;
};

ref::TreeQrFactors run_mode(prt::Scheduling sched, const TileMatrix& a,
                            Samples& out) {
  vsaqr::TreeQrOptions opt;
  opt.tree = {plan::TreeKind::BinaryOnFlat, 4, plan::BoundaryMode::Shifted};
  opt.ib = 16;
  opt.workers_per_node = 4;
  opt.scheduling = sched;
  opt.trace = true;
  auto run = vsaqr::tree_qr(a, opt);
  const auto stats = prt::trace::compute_stats(run.events, 4, 2);
  out.wall.push_back(stats.span);
  out.utilization.push_back(stats.utilization * 100);
  out.overlap.push_back(stats.overlap_fraction * 100);
  return std::move(run.factors);
}

/// "median [min-max]" of `v`, printed with `fmt` for each number.
void print_spread(std::vector<double> v, const char* fmt) {
  std::sort(v.begin(), v.end());
  std::printf(fmt, v[v.size() / 2]);
  std::printf(" [");
  std::printf(fmt, v.front());
  std::printf("-");
  std::printf(fmt, v.back());
  std::printf("]");
}

void print_row(const char* name, const Samples& s) {
  std::printf("%-10s | wall ", name);
  print_spread(s.wall, "%.4f");
  std::printf(" s | utilization ");
  print_spread(s.utilization, "%.1f");
  std::printf(" %% | overlap ");
  print_spread(s.overlap, "%.1f");
  std::printf(" %%\n");
}

/// Scheduling only reorders firings; every kernel sees the same operands,
/// so the factors must agree bit for bit.
bool bitwise_equal(const TileMatrix& x, const TileMatrix& y) {
  if (x.rows() != y.rows() || x.cols() != y.cols()) return false;
  for (int j = 0; j < x.cols(); ++j) {
    for (int i = 0; i < x.rows(); ++i) {
      if (std::bit_cast<std::uint64_t>(x.at(i, j)) !=
          std::bit_cast<std::uint64_t>(y.at(i, j))) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

int main() {
  std::printf("== Lazy vs aggressive VDP scheduling (Section V-D) ==\n");
  std::printf("matrix 4096 x 512, nb = 64, ib = 16, h = 4, 4 workers; "
              "%d alternating runs per schedule, median [min-max]\n\n",
              kRuns);
  Matrix a0(4096, 512);
  fill_random(a0.view(), 4242);
  const TileMatrix a = TileMatrix::from_dense(a0.view(), 64);
  Samples lazy, aggressive;
  std::optional<ref::TreeQrFactors> first;
  bool same = true;
  for (int r = 0; r < kRuns; ++r) {
    // Alternate which schedule goes first, so a drift of the host over
    // the runs loads both alike.
    for (const bool is_lazy : {r % 2 == 0, r % 2 != 0}) {
      auto f = run_mode(is_lazy ? prt::Scheduling::Lazy
                                : prt::Scheduling::Aggressive,
                        a, is_lazy ? lazy : aggressive);
      if (!first) {
        first = std::move(f);
      } else {
        same &= bitwise_equal(first->a, f.a);
      }
    }
  }
  print_row("lazy", lazy);
  print_row("aggressive", aggressive);
  std::printf("\npaper: lazy often wins on utilization through lookahead "
              "(panel/update interleaving).\n");
  if (!same) {
    std::printf("FAIL: lazy and aggressive scheduling produced different "
                "factors\n");
    return 1;
  }
  std::printf("factors bitwise identical under both schedules, every run\n");
  return 0;
}
