// Randomized property sweep of the QR systolic array: seeded random
// problem shapes, tile/inner-block sizes, tree configurations, runtime
// topologies and schedules — every draw must reproduce the sequential
// reference bitwise and leave no packets behind.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "ref/reference_qr.hpp"
#include "vsaqr/tree_qr.hpp"

namespace pulsarqr {
namespace {

class QrFuzzParam : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QrFuzzParam, RandomConfigBitwiseMatchesReference) {
  Rng rng(GetParam());
  const int nb = 3 + static_cast<int>(rng.next_u64() % 6);       // 3..8
  const int mt = 2 + static_cast<int>(rng.next_u64() % 9);       // 2..10
  const int nt = 1 + static_cast<int>(rng.next_u64() % 5);       // 1..5
  const int m = mt * nb - static_cast<int>(rng.next_u64() % nb); // ragged
  const int n = nt * nb - static_cast<int>(rng.next_u64() % nb);
  const int ib = 1 + static_cast<int>(rng.next_u64() % nb);      // 1..nb

  plan::PlanConfig cfg;
  switch (rng.next_u64() % 3) {
    case 0: cfg.tree = plan::TreeKind::Flat; break;
    case 1: cfg.tree = plan::TreeKind::Binary; break;
    default: cfg.tree = plan::TreeKind::BinaryOnFlat; break;
  }
  cfg.domain_size = 1 + static_cast<int>(rng.next_u64() % 4);
  cfg.boundary = rng.next_u64() % 2 ? plan::BoundaryMode::Shifted
                                    : plan::BoundaryMode::Fixed;

  vsaqr::TreeQrOptions opt;
  opt.tree = cfg;
  opt.ib = ib;
  opt.nodes = 1 + static_cast<int>(rng.next_u64() % 3);
  opt.workers_per_node = 1 + static_cast<int>(rng.next_u64() % 3);
  opt.scheduling = rng.next_u64() % 2 ? prt::Scheduling::Lazy
                                      : prt::Scheduling::Aggressive;
  opt.watchdog_seconds = 20.0;

  SCOPED_TRACE(testing::Message()
               << "m=" << m << " n=" << n << " nb=" << nb << " ib=" << ib
               << " tree=" << static_cast<int>(cfg.tree)
               << " h=" << cfg.domain_size
               << " bm=" << static_cast<int>(cfg.boundary)
               << " nodes=" << opt.nodes << " workers="
               << opt.workers_per_node);

  Matrix a0(m, n);
  fill_random(a0.view(), GetParam() * 7919 + 13);
  auto reference =
      ref::tree_qr(TileMatrix::from_dense(a0.view(), nb), ib, cfg);
  auto run = vsaqr::tree_qr(TileMatrix::from_dense(a0.view(), nb), opt);

  EXPECT_EQ(run.stats.leftover_packets, 0);
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < m; ++i) {
      ASSERT_EQ(run.factors.a.at(i, j), reference.a.at(i, j))
          << "differs at (" << i << "," << j << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Fuzz, QrFuzzParam,
                         ::testing::Range<std::uint64_t>(1, 41));

}  // namespace
}  // namespace pulsarqr
