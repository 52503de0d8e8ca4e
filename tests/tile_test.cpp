// Unit tests for the tile layout and its arena.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <utility>

#include "common/rng.hpp"
#include "ref/reference_qr.hpp"
#include "tile/tile_matrix.hpp"

// Counting replacements of the global allocation functions, so a test can
// see how many allocations a call makes. Deallocation is replaced too, so
// every pointer goes back to the allocator that made it.
namespace {
std::atomic<bool> g_counting{false};
std::atomic<int> g_allocations{0};

void* counted_alloc(std::size_t bytes, std::size_t align) {
  if (g_counting.load(std::memory_order_relaxed)) ++g_allocations;
  const std::size_t size = (bytes + align - 1) / align * align;
  if (void* p = std::aligned_alloc(align, size > 0 ? size : align)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t bytes) {
  return counted_alloc(bytes, __STDCPP_DEFAULT_NEW_ALIGNMENT__);
}
void* operator new(std::size_t bytes, std::align_val_t align) {
  return counted_alloc(bytes, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace pulsarqr {
namespace {

TEST(TileMatrix, ExactMultipleShape) {
  TileMatrix t(12, 8, 4);
  EXPECT_EQ(t.mt(), 3);
  EXPECT_EQ(t.nt(), 2);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(t.tile_rows(i), 4);
  for (int j = 0; j < 2; ++j) EXPECT_EQ(t.tile_cols(j), 4);
}

TEST(TileMatrix, RaggedBorders) {
  TileMatrix t(10, 7, 4);
  EXPECT_EQ(t.mt(), 3);
  EXPECT_EQ(t.nt(), 2);
  EXPECT_EQ(t.tile_rows(2), 2);
  EXPECT_EQ(t.tile_cols(1), 3);
  auto v = t.tile(2, 1);
  EXPECT_EQ(v.rows, 2);
  EXPECT_EQ(v.cols, 3);
  EXPECT_EQ(v.ld, 2);
}

TEST(TileMatrix, RoundTripDense) {
  Matrix a(13, 9);
  fill_random(a.view(), 77);
  TileMatrix t = TileMatrix::from_dense(a.view(), 5);
  Matrix b = t.to_dense();
  for (int j = 0; j < 9; ++j) {
    for (int i = 0; i < 13; ++i) EXPECT_DOUBLE_EQ(a(i, j), b(i, j));
  }
}

TEST(TileMatrix, ElementAccessMatchesDense) {
  Matrix a(7, 6);
  fill_random(a.view(), 78);
  TileMatrix t = TileMatrix::from_dense(a.view(), 3);
  for (int j = 0; j < 6; ++j) {
    for (int i = 0; i < 7; ++i) EXPECT_DOUBLE_EQ(t.at(i, j), a(i, j));
  }
  t.at(6, 5) = 42.0;
  EXPECT_DOUBLE_EQ(t.tile(2, 1)(0, 2), 42.0);
}

TEST(TileMatrix, TilesAreContiguousColumnMajor) {
  TileMatrix t(6, 6, 3);
  t.at(4, 2) = 9.0;  // tile (1, 0), local (1, 2)
  const double* d = t.tile_data(1, 0);
  EXPECT_DOUBLE_EQ(d[1 + 2 * 3], 9.0);
}

TEST(TileMatrix, RejectsBadArgs) {
  EXPECT_THROW(TileMatrix(-1, 2, 3), Error);
  EXPECT_THROW(TileMatrix(2, 2, 0), Error);
}

// ---- the arena ---------------------------------------------------------------

TEST(TileArena, TilesAreLineAlignedAndContiguousIncludingRaggedBorders) {
  // 13 x 9 in 5 x 5 tiles: 25-, 20-, 15-, 12- and 9-value tiles, none a
  // whole number of 64-byte lines.
  for (const bool shared : {false, true}) {
    TileMatrix t(13, 9, 5, shared);
    const double* next = t.tile_data(0, 0);
    for (int j = 0; j < t.nt(); ++j) {
      for (int i = 0; i < t.mt(); ++i) {
        const double* d = t.tile_data(i, j);
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(d) % 64, 0u)
            << "tile (" << i << "," << j << ")";
        EXPECT_EQ(d, next) << "tile (" << i << "," << j << ")";
        const auto values =
            static_cast<std::size_t>(t.tile_rows(i)) * t.tile_cols(j);
        next = d + (values + 7) / 8 * 8;
      }
    }
  }
}

TEST(TileArena, ACopyIsDeepAndAMoveEmptiesTheSource) {
  Matrix a(10, 7);
  fill_random(a.view(), 80);
  TileMatrix t = TileMatrix::from_dense(a.view(), 4);
  TileMatrix copy = t;
  EXPECT_NE(copy.tile_data(0, 0), t.tile_data(0, 0));
  copy.at(3, 3) = 7.0;
  EXPECT_EQ(t.at(3, 3), a(3, 3));

  const double* data = t.tile_data(2, 1);
  TileMatrix moved = std::move(t);
  EXPECT_EQ(moved.tile_data(2, 1), data);  // the arena itself moved
  EXPECT_EQ(t.rows(), 0);
  EXPECT_EQ(t.cols(), 0);
  EXPECT_EQ(t.mt(), 0);
  EXPECT_EQ(t.nt(), 0);
  t = std::move(moved);
  EXPECT_EQ(moved.mt(), 0);
  EXPECT_EQ(t.tile_data(2, 1), data);
  EXPECT_EQ(t.at(9, 6), a(9, 6));
}

TEST(TileArena, FromDenseMakesOneAllocation) {
  Matrix a(13, 9);
  fill_random(a.view(), 81);
  g_allocations = 0;
  g_counting = true;
  const TileMatrix t = TileMatrix::from_dense(a.view(), 5);
  g_counting = false;
  EXPECT_EQ(g_allocations.load(), 1);
  EXPECT_EQ(t.at(12, 8), a(12, 8));
}

TEST(TileArena, ACopyOfASharedMatrixIsPrivate) {
  // A shared arena is written through by a forked process; a copy of it
  // is the caller's own.
  TileMatrix shared(10, 7, 4, /*shared=*/true);
  const TileMatrix copy = shared;
  EXPECT_TRUE(shared.shared());
  EXPECT_FALSE(copy.shared());
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    shared.at(1, 1) = 1.0;
    const_cast<TileMatrix&>(copy).at(2, 2) = 2.0;
    ::_exit(0);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  EXPECT_EQ(shared.at(1, 1), 1.0) << "the shared arena was not written through";
  EXPECT_EQ(copy.at(1, 1), 0.0);
  EXPECT_EQ(copy.at(2, 2), 0.0) << "the child's write to the copy leaked out";
}

TEST(TileArena, AReusedMappingIsZeroFilled) {
  // A private arena of kMapBytes or more is a mapping that is kept when
  // freed and handed to the next arena of its length: it must come back
  // zero-filled.
  const int n = 512;  // 512 x 512 doubles: exactly Arena::kMapBytes
  static_assert(std::size_t{n} * n * sizeof(double) == Arena::kMapBytes);
  const double* first = nullptr;
  {
    TileMatrix t(n, n, 64);
    first = t.tile_data(0, 0);
    for (int j = 0; j < t.nt(); ++j) {
      for (int i = 0; i < t.mt(); ++i) fill_random(t.tile(i, j), 82);
    }
  }
  const TileMatrix again(n, n, 64);
  EXPECT_EQ(again.tile_data(0, 0), first) << "the mapping was not reused";
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < n; ++i) ASSERT_EQ(again.at(i, j), 0.0) << i << "," << j;
  }
}

TEST(TStoreArena, ReadingAnUnwrittenTileStillAborts) {
  ref::TStore s(3, 2, 4, 7);
  const ref::TStore& cs = s;
  EXPECT_DEATH(cs.t(1, 0), "reading unwritten T tile");
  s.t(1, 0)(1, 3) = 5.0;
  EXPECT_EQ(cs.t(1, 0)(1, 3), 5.0);
  EXPECT_EQ(cs.t(1, 0).cols, 4);
  EXPECT_EQ(s.t(2, 1).cols, 3);  // the ragged last panel
  // The written marks travel with a copy and a move.
  const ref::TStore copy = s;
  EXPECT_EQ(copy.t(1, 0)(1, 3), 5.0);
  EXPECT_DEATH(copy.t(0, 0), "reading unwritten T tile");
  const ref::TStore moved = std::move(s);
  EXPECT_EQ(moved.t(1, 0)(1, 3), 5.0);
  EXPECT_DEATH(moved.t(0, 1), "reading unwritten T tile");
}

}  // namespace
}  // namespace pulsarqr
