// Randomized property sweep of the Cholesky and LU systolic arrays:
// seeded random shapes, tile sizes and runtime topologies; every draw
// must reproduce its sequential reference bitwise with no leftovers.
#include <gtest/gtest.h>

#include "chol/vsa_chol.hpp"
#include "common/rng.hpp"
#include "lu/vsa_lu.hpp"

namespace pulsarqr {
namespace {

class CholFuzzParam : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CholFuzzParam, RandomConfigBitwiseMatchesReference) {
  Rng rng(GetParam() * 31 + 5);
  const int nb = 3 + static_cast<int>(rng.next_u64() % 6);
  const int mt = 1 + static_cast<int>(rng.next_u64() % 8);
  const int n = mt * nb - static_cast<int>(rng.next_u64() % nb);
  chol::VsaCholOptions opt;
  opt.nodes = 1 + static_cast<int>(rng.next_u64() % 3);
  opt.workers_per_node = 1 + static_cast<int>(rng.next_u64() % 3);
  opt.scheduling = rng.next_u64() % 2 ? prt::Scheduling::Lazy
                                      : prt::Scheduling::Aggressive;
  opt.watchdog_seconds = 20.0;
  SCOPED_TRACE(testing::Message()
               << "n=" << n << " nb=" << nb << " nodes=" << opt.nodes
               << " workers=" << opt.workers_per_node);

  Matrix a = chol::random_spd(n, GetParam() * 101 + 3);
  TileMatrix ref = chol::tile_cholesky(TileMatrix::from_dense(a.view(), nb));
  auto run = chol::vsa_cholesky(TileMatrix::from_dense(a.view(), nb), opt);
  EXPECT_EQ(run.stats.leftover_packets, 0);
  for (int j = 0; j < n; ++j) {
    for (int i = j; i < n; ++i) {
      ASSERT_EQ(run.l.at(i, j), ref.at(i, j));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Fuzz, CholFuzzParam,
                         ::testing::Range<std::uint64_t>(1, 21));

class LuFuzzParam : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LuFuzzParam, RandomConfigBitwiseMatchesReference) {
  Rng rng(GetParam() * 37 + 11);
  const int nb = 3 + static_cast<int>(rng.next_u64() % 6);
  const int mt = 1 + static_cast<int>(rng.next_u64() % 7);
  const int nt = 1 + static_cast<int>(rng.next_u64() % 7);
  const int m = mt * nb - static_cast<int>(rng.next_u64() % nb);
  const int n = nt * nb - static_cast<int>(rng.next_u64() % nb);
  lu::VsaLuOptions opt;
  opt.nodes = 1 + static_cast<int>(rng.next_u64() % 3);
  opt.workers_per_node = 1 + static_cast<int>(rng.next_u64() % 3);
  opt.scheduling = rng.next_u64() % 2 ? prt::Scheduling::Lazy
                                      : prt::Scheduling::Aggressive;
  opt.watchdog_seconds = 20.0;
  SCOPED_TRACE(testing::Message()
               << "m=" << m << " n=" << n << " nb=" << nb << " nodes="
               << opt.nodes << " workers=" << opt.workers_per_node);

  Matrix a = lu::random_diag_dominant(m, n, GetParam() * 211 + 7);
  TileMatrix ref = lu::tile_lu(TileMatrix::from_dense(a.view(), nb));
  auto run = lu::vsa_lu(TileMatrix::from_dense(a.view(), nb), opt);
  EXPECT_EQ(run.stats.leftover_packets, 0);
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < m; ++i) {
      ASSERT_EQ(run.f.at(i, j), ref.at(i, j));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Fuzz, LuFuzzParam,
                         ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace pulsarqr
