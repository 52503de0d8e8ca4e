// The deposit slots of both scenario stores (vsaqr/deposit_slots.hpp): the
// QR ResultStore (tile, geqrt T and tree T kinds) and the Cholesky/LU
// TileStore, with private slots (in-process) and with slots in a shared
// mapping (socket transport). No node process is forked: a shared slot is
// written in this process exactly as a node process would write it, and
// the flag rules are driven directly.
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "vsaqr/result_store.hpp"

namespace pulsarqr {
namespace {

using prt::Transport;
using vsaqr::ResultStore;
using vsaqr::TileStore;

// 22 x 12 in 5 x 5 tiles: 5 x 3 tiles, the last row and column ragged.
constexpr int kM = 22, kN = 12, kNb = 5, kIb = 2;

Matrix random_matrix(int rows, int cols, std::uint64_t seed) {
  Matrix m(rows, cols);
  fill_random(m.view(), seed);
  return m;
}

int tile_rows(int i) { return std::min(kNb, kM - i * kNb); }
int tile_cols(int j) { return std::min(kNb, kN - j * kNb); }

void expect_bitwise(ConstMatrixView got, ConstMatrixView want,
                    const std::string& what) {
  ASSERT_EQ(got.rows, want.rows) << what;
  ASSERT_EQ(got.cols, want.cols) << what;
  for (int c = 0; c < got.cols; ++c) {
    ASSERT_EQ(std::memcmp(got.col(c), want.col(c), sizeof(double) * got.rows),
              0)
        << what << " column " << c;
  }
}

std::string at(int i, int j) {
  return "(" + std::to_string(i) + "," + std::to_string(j) + ")";
}

plan::ReductionPlan flat_plan(const ResultStore& s) {
  return plan::ReductionPlan(
      s.mt(), s.nt(), {plan::TreeKind::Flat, 1, plan::BoundaryMode::Shifted});
}

/// Deposit a distinct random tile into every slot of `s` but `skip`.
std::vector<Matrix> fill_tiles(ResultStore& s, int skip_i = -1,
                               int skip_j = -1) {
  std::vector<Matrix> want;
  for (int j = 0; j < s.nt(); ++j) {
    for (int i = 0; i < s.mt(); ++i) {
      want.push_back(
          random_matrix(tile_rows(i), tile_cols(j), 100 + i + 10 * j));
      if (i != skip_i || j != skip_j) s.put_tile(i, j, want.back().view());
    }
  }
  return want;
}

std::string message_of(const std::function<void()>& f) {
  try {
    f();
  } catch (const Error& e) {
    return e.what();
  }
  return "(no error)";
}

class DepositSlotsTest : public ::testing::TestWithParam<Transport> {
 protected:
  bool shared() const { return GetParam() == Transport::Socket; }
};

TEST_P(DepositSlotsTest, TheSlotsAreSharedExactlyUnderTheSocketTransport) {
  ResultStore qr(kM, kN, kNb, kIb, GetParam());
  TileStore tiles(kM, kN, kNb, GetParam());
  EXPECT_EQ(qr.slots().shared(), shared());
  EXPECT_EQ(tiles.slots().shared(), shared());
}

TEST_P(DepositSlotsTest, EveryResultStoreKindLandsBitwise) {
  ResultStore s(kM, kN, kNb, kIb, GetParam());
  const std::vector<Matrix> tiles = fill_tiles(s);
  // T factors arrive as wider buffers (the kernel's ib x pw workspace);
  // only the slot's own block is kept.
  std::vector<Matrix> tg, tt;
  for (int j = 0; j < s.nt(); ++j) {
    tg.push_back(random_matrix(kIb, kNb, 200 + j));
    tt.push_back(random_matrix(kIb + 1, kNb, 300 + j));
    s.put_tg(j, j, tg.back().view());
    s.put_tt(j + 1, j, tt.back().view());
  }
  const ref::TreeQrFactors f = s.finish(flat_plan(s), kIb);
  for (int j = 0, k = 0; j < f.a.nt(); ++j) {
    for (int i = 0; i < f.a.mt(); ++i, ++k) {
      expect_bitwise(f.a.tile(i, j), tiles[k].view(), "tile " + at(i, j));
    }
    const ConstMatrixView want_tg = tg[j].view();
    const ConstMatrixView want_tt = tt[j].view();
    expect_bitwise(f.tg.t(j, j), want_tg.block(0, 0, kIb, tile_cols(j)),
                   "geqrt T " + at(j, j));
    expect_bitwise(f.tt.t(j + 1, j), want_tt.block(0, 0, kIb, tile_cols(j)),
                   "tree T " + at(j + 1, j));
  }
  // A T slot nobody deposited reads as unwritten.
  EXPECT_DEATH(f.tg.t(0, 1), "reading unwritten T tile");
}

TEST_P(DepositSlotsTest, EveryTileStoreDepositLandsBitwise) {
  TileStore s(kM, kN, kNb, GetParam());
  std::vector<Matrix> want;
  for (int j = 0; j < 3; ++j) {
    for (int i = 0; i < 5; ++i) {
      want.push_back(
          random_matrix(tile_rows(i), tile_cols(j), 400 + i + 10 * j));
      s.put(i, j, want.back().view());
    }
  }
  const TileMatrix got = s.finish();
  for (int j = 0, k = 0; j < got.nt(); ++j) {
    for (int i = 0; i < got.mt(); ++i, ++k) {
      expect_bitwise(got.tile(i, j), want[k].view(), "tile " + at(i, j));
    }
  }
}

TEST_P(DepositSlotsTest, TheCompletenessErrorNamesTheMissingTile) {
  ResultStore qr(kM, kN, kNb, kIb, GetParam());
  fill_tiles(qr, 3, 1);
  EXPECT_NE(message_of([&] { qr.finish(flat_plan(qr), kIb); })
                .find("ResultStore: tile (3,1) was never deposited"),
            std::string::npos);

  // A lower-triangle store owes no tile above the diagonal.
  TileStore lower(kM, kN, kNb, GetParam());
  for (int j = 0; j < 3; ++j) {
    for (int i = j; i < 5; ++i) {
      if (i == 4 && j == 2) continue;
      lower.put(i, j, random_matrix(tile_rows(i), tile_cols(j), 7).view());
    }
  }
  EXPECT_NE(message_of([&] { lower.finish(/*lower=*/true); })
                .find("TileStore: tile (4,2) was never deposited"),
            std::string::npos);
}

TEST_P(DepositSlotsTest, ALowerTriangleStoreFinishesWithoutTheUpperTiles) {
  TileStore s(kM, kN, kNb, GetParam());
  for (int j = 0; j < 3; ++j) {
    for (int i = j; i < 5; ++i) {
      s.put(i, j, random_matrix(tile_rows(i), tile_cols(j), 9).view());
    }
  }
  const TileMatrix l = s.finish(/*lower=*/true);
  EXPECT_EQ(l.tile(0, 1)(0, 0), 0.0);
}

TEST_P(DepositSlotsTest, WithoutDedupADoubleDepositStillAborts) {
  const Matrix tile = random_matrix(kNb, kNb, 33);
  const Matrix t = random_matrix(kIb, kNb, 34);
  ResultStore qr(kM, kN, kNb, kIb, GetParam());
  qr.put_tile(0, 0, tile.view());
  qr.put_tg(0, 0, t.view());
  qr.put_tt(1, 0, t.view());
  EXPECT_DEATH(qr.put_tile(0, 0, tile.view()),
               "tile \\(0,0\\) deposited twice");
  EXPECT_DEATH(qr.put_tg(0, 0, t.view()), "geqrt T \\(0,0\\) deposited twice");
  EXPECT_DEATH(qr.put_tt(1, 0, t.view()), "tree T \\(1,0\\) deposited twice");
  TileStore ts(kM, kN, kNb, GetParam());
  ts.put(2, 1, tile.view());
  EXPECT_DEATH(ts.put(2, 1, tile.view()),
               "TileStore: tile \\(2,1\\) deposited twice");
}

TEST_P(DepositSlotsTest, UnderDedupAnEqualPublishedSlotIsSkipped) {
  // A respawned rank re-fires what its dead incarnation published; the
  // replay reproduces it bit for bit.
  ResultStore s(kM, kN, kNb, kIb, GetParam());
  s.enable_dedup();
  const std::vector<Matrix> tiles = fill_tiles(s);
  s.put_tile(2, 1, tiles[2 + 5].view());
  const Matrix t = random_matrix(kIb, kNb, 35);
  s.put_tt(1, 0, t.view());
  s.put_tt(1, 0, t.view());
  const ref::TreeQrFactors f = s.finish(flat_plan(s), kIb);
  expect_bitwise(f.a.tile(2, 1), tiles[2 + 5].view(), "tile (2,1)");
  expect_bitwise(f.tt.t(1, 0), t.view(), "tree T (1,0)");
}

TEST_P(DepositSlotsTest, UnderDedupAConflictingPublishedSlotAborts) {
  // Dedup forgives identical replays, not two VDPs claiming one slot.
  const Matrix a = random_matrix(kNb, kNb, 36);
  const Matrix b = random_matrix(kNb, kNb, 37);
  ResultStore qr(kM, kN, kNb, kIb, GetParam());
  TileStore ts(kM, kN, kNb, GetParam());
  qr.enable_dedup();
  ts.enable_dedup();
  qr.put_tile(0, 0, a.view());
  ts.put(0, 0, a.view());
  EXPECT_DEATH(qr.put_tile(0, 0, b.view()),
               "ResultStore: conflicting re-deposit of tile \\(0,0\\)");
  EXPECT_DEATH(ts.put(0, 0, b.view()),
               "TileStore: conflicting re-deposit of tile \\(0,0\\)");
}

TEST_P(DepositSlotsTest, AnOutOfRangeSlotAborts) {
  ResultStore qr(kM, kN, kNb, kIb, GetParam());
  TileStore ts(kM, kN, kNb, GetParam());
  const vsaqr::DepositSlots& q = qr.slots();
  EXPECT_DEATH(q.written(ResultStore::kTile, qr.mt(), 0),
               "ResultStore: deposit slot out of range");
  EXPECT_DEATH(q.written(ResultStore::kTile, 0, qr.nt()),
               "ResultStore: deposit slot out of range");
  EXPECT_DEATH(q.written(ResultStore::kTile, -1, 0),
               "ResultStore: deposit slot out of range");
  EXPECT_DEATH(q.written(ResultStore::kTile, 0, -1),
               "ResultStore: deposit slot out of range");
  EXPECT_DEATH(q.written(ResultStore::kTreeT + 1, 0, 0),
               "ResultStore: deposit slot out of range");
  EXPECT_DEATH(ts.slots().written(1, 0, 0),
               "TileStore: deposit slot out of range");
  EXPECT_DEATH(ts.slots().written(0, 5, 0),
               "TileStore: deposit slot out of range");
}

TEST_P(DepositSlotsTest, AMisshapenDepositAborts) {
  // Tile (0,0) is 5 x 5: neither a short side nor 25 values in another
  // shape fit its slot.
  ResultStore qr(kM, kN, kNb, kIb, GetParam());
  TileStore ts(kM, kN, kNb, GetParam());
  const std::pair<int, int> shapes[] = {{4, 5}, {5, 4}, {25, 1}};
  for (const auto& [rows, cols] : shapes) {
    const Matrix bad = random_matrix(rows, cols, 43);
    EXPECT_DEATH(qr.put_tile(0, 0, bad.view()),
                 "ResultStore: tile \\(0,0\\) shape mismatch");
    EXPECT_DEATH(ts.put(0, 0, bad.view()),
                 "TileStore: tile \\(0,0\\) shape mismatch");
  }
  // The ragged last tile (4,2) is 2 x 2; a full 5 x 5 tile does not fit.
  EXPECT_DEATH(qr.put_tile(4, 2, random_matrix(kNb, kNb, 44).view()),
               "ResultStore: tile \\(4,2\\) shape mismatch");
  EXPECT_FALSE(qr.slots().written(ResultStore::kTile, 0, 0));
}

TEST_P(DepositSlotsTest, AnyNonzeroFlagByteReadsAsWritten) {
  ResultStore s(kM, kN, kNb, kIb, GetParam());
  fill_tiles(s, 4, 2);
  s.slots().flag(ResultStore::kTile, 4, 2).store(0x7f);
  EXPECT_TRUE(s.slots().written(ResultStore::kTile, 4, 2));
  const Matrix tile = random_matrix(tile_rows(4), tile_cols(2), 38);
  EXPECT_DEATH(s.put_tile(4, 2, tile.view()), "deposited twice");
  EXPECT_NO_THROW(s.finish(flat_plan(s), kIb));
}

INSTANTIATE_TEST_SUITE_P(Stores, DepositSlotsTest,
                         ::testing::Values(Transport::InProcess,
                                           Transport::Socket),
                         [](const auto& info) {
                           return info.param == Transport::Socket
                                      ? std::string("Shared")
                                      : std::string("Private");
                         });

// ---- shared slots only: what a killed rank leaves behind --------------------
//
// Driven on one shared tile matrix and its slots, as a TileStore built for
// the socket transport holds them.

TEST(SharedDepositSlots, AnUnpublishedGarbageSlotIsOverwritten) {
  // A rank killed mid-copy leaves bytes in its slot but no flag; its
  // replacement's deposit overwrites them, with or without dedup.
  for (const bool dedup : {false, true}) {
    TileMatrix home(kM, kN, kNb, /*shared=*/true);
    vsaqr::DepositSlots slots("TileStore", {"tile"}, home.mt(), home.nt(),
                              true);
    if (dedup) slots.enable_dedup();
    fill_random(home.tile(1, 2), 39);
    ASSERT_FALSE(slots.written(0, 1, 2));
    const Matrix tile = random_matrix(tile_rows(1), tile_cols(2), 40);
    slots.put(0, 1, 2, home.tile(1, 2), tile.view());
    EXPECT_TRUE(slots.written(0, 1, 2));
    expect_bitwise(home.tile(1, 2), tile.view(), "tile (1,2)");
  }
}

TEST(SharedDepositSlots, ARankKilledMidCopyLeavesItsSlotUnpublished) {
  // The source's last columns sit on an inaccessible page, so the deposit
  // dies part-way through its copy, in a forked process as a node process
  // would. The columns it copied must be in the shared slot (the copy
  // really started) and the flag must still read unwritten.
  // Fork without exec, so the dying child writes the map this process reads.
  ::testing::GTEST_FLAG(death_test_style) = "fast";
  const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  void* map = ::mmap(nullptr, 2 * page, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(map, MAP_FAILED);
  ASSERT_EQ(::mprotect(static_cast<char*>(map) + page, page, PROT_NONE), 0);
  // A 5 x 5 tile whose first 3 columns end exactly at the page boundary.
  const int readable = 3;
  auto* src = reinterpret_cast<double*>(static_cast<char*>(map) + page) -
              readable * kNb;
  fill_random(MatrixView(src, kNb, readable, kNb), 42);
  const ConstMatrixView torn(src, kNb, kNb, kNb);

  TileMatrix home(kM, kN, kNb, /*shared=*/true);
  vsaqr::DepositSlots slots("TileStore", {"tile"}, home.mt(), home.nt(), true);
  EXPECT_DEATH(slots.put(0, 0, 0, home.tile(0, 0), torn), "");
  EXPECT_FALSE(slots.written(0, 0, 0))
      << "the flag was published before the slot was whole";
  expect_bitwise(home.tile(0, 0).block(0, 0, kNb, readable),
                 ConstMatrixView(src, kNb, readable, kNb), "copied columns");
  ::munmap(map, 2 * page);
}

}  // namespace
}  // namespace pulsarqr
