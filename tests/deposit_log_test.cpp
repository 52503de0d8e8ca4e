// The one socket deposit codec (vsaqr/deposit_log.hpp), driven over the
// slices of a real DepositArena against both stores that use it: the QR
// ResultStore (tile, geqrt T and tree T kinds) and the Cholesky/LU
// TileStore (one kind). A valid slice round-trips bitwise; a hostile one
// (corrupt entries, a byte count beyond the slice, a zeroed slice,
// another rank's slice) throws pulsarqr::Error before anything is
// allocated or written, so the store still accepts the valid slice
// afterwards.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "prt/wire.hpp"
#include "vsaqr/deposit_log.hpp"
#include "vsaqr/result_store.hpp"

namespace pulsarqr {
namespace {

namespace wire = prt::net::wire;
using vsaqr::DepositArena;

/// (kind, i, j) of a deposited slot.
using Slot = std::array<int, 3>;

struct QrStore {
  using Store = vsaqr::ResultStore;
  static std::shared_ptr<Store> make() {
    return std::make_shared<Store>(20, 10, 5, 2);  // 4x2 tiles, ib 2
  }
  static std::vector<Slot> slots() {
    return {{0, 0, 0}, {0, 1, 0}, {1, 0, 0}, {2, 1, 0}, {0, 3, 1}, {1, 2, 1}};
  }
};

struct TileStore {
  using Store = vsaqr::TileStore;
  static std::shared_ptr<Store> make() {
    return std::make_shared<Store>(TileMatrix(20, 10, 5));  // 4x2 tiles
  }
  static std::vector<Slot> slots() { return {{0, 0, 0}, {0, 3, 1}, {0, 2, 1}}; }
};

/// Slice bytes stamped for `rank`: the slice header, then one entry
/// header followed by `doubles` values.
std::vector<std::byte> one_entry(std::uint32_t count, std::uint32_t kind,
                                 int i, int j, int rows, int cols,
                                 std::size_t doubles, int rank = 0) {
  wire::Blob b;
  b.u32(vsaqr::kDepositSliceMagic);
  b.i32(rank);
  b.u32(count);
  b.u32(kind);
  b.i32(i);
  b.i32(j);
  b.i32(rows);
  b.i32(cols);
  for (std::size_t k = 0; k < doubles; ++k) b.f64(1.0);
  return {b.data(), b.data() + b.size()};
}

bool bitwise_equal(ConstMatrixView a, ConstMatrixView b) {
  if (a.rows != b.rows || a.cols != b.cols) return false;
  for (int c = 0; c < a.cols; ++c) {
    if (std::memcmp(a.col(c), b.col(c), sizeof(double) * a.rows) != 0) {
      return false;
    }
  }
  return true;
}

template <class T>
class DepositLogTest : public ::testing::Test {
 protected:
  using Store = typename T::Store;

  /// A source store with logging on and every test slot deposited.
  std::shared_ptr<Store> filled_source() {
    auto src = T::make();
    src->log().enable();
    int seed = 1;
    for (const Slot& s : T::slots()) {
      const ConstMatrixView shape = src->slot(s[0], s[1], s[2]);
      Matrix m(shape.rows, shape.cols);
      fill_random(m.view(), seed++);
      src->put(s[0], s[1], s[2], m.view());
    }
    return src;
  }

  /// A two-rank arena sized as ship_deposits sizes it.
  static DepositArena arena() {
    return DepositArena(2, vsaqr::deposit_bytes_bound(*T::make()));
  }

  /// Encode `src` into `arena`'s slice for `rank`; the bytes written.
  static std::size_t encode(Store& src, DepositArena& arena, int rank) {
    return vsaqr::encode_deposits(src, rank, arena.slice(rank),
                                  arena.slice_bytes());
  }

  /// Ship `src` through slice 0 into `dst` and check every slot bitwise.
  void expect_round_trip(Store& src, Store& dst) {
    DepositArena a = arena();
    const std::size_t n = encode(src, a, 0);
    vsaqr::apply_slice(a, 0, n, dst);
    for (const Slot& s : T::slots()) {
      EXPECT_TRUE(bitwise_equal(dst.slot(s[0], s[1], s[2]),
                                src.slot(s[0], s[1], s[2])))
          << "slot (" << s[0] << "," << s[1] << "," << s[2] << ")";
    }
  }

  /// Replaying `a`'s slice `rank` with byte count `n` throws, and leaves
  /// a fresh store untouched: the valid slice still applies cleanly
  /// afterwards (a stray write would trip the QR store's exactly-once
  /// check or break the bitwise comparison).
  void expect_slice_rejected(const DepositArena& a, int rank,
                             std::uint64_t n) {
    auto src = filled_source();
    auto dst = T::make();
    EXPECT_THROW(vsaqr::apply_slice(a, rank, n, *dst), Error);
    expect_round_trip(*src, *dst);
  }

  /// The hostile bytes, written into slice 0, are rejected.
  void expect_rejected(const std::vector<std::byte>& hostile) {
    DepositArena a(2, std::max(hostile.size(),
                               vsaqr::deposit_bytes_bound(*T::make())));
    std::memcpy(a.slice(0), hostile.data(), hostile.size());
    expect_slice_rejected(a, 0, hostile.size());
  }
};

using StoreTypes = ::testing::Types<QrStore, TileStore>;
TYPED_TEST_SUITE(DepositLogTest, StoreTypes);

TYPED_TEST(DepositLogTest, ValidBlobRoundTripsBitwise) {
  auto src = this->filled_source();
  auto dst = TypeParam::make();
  this->expect_round_trip(*src, *dst);
}

TYPED_TEST(DepositLogTest, EveryRankEncodesIntoItsOwnSlice) {
  // Both ranks write at once; neither slice disturbs the other, and a
  // rank that writes again (a respawned incarnation reusing its slice)
  // simply overwrites its own bytes.
  auto src = this->filled_source();
  auto empty = TypeParam::make();
  empty->log().enable();
  DepositArena a = this->arena();
  const std::size_t n0 = this->encode(*src, a, 0);
  (void)this->encode(*src, a, 1);
  const std::size_t n1 = this->encode(*empty, a, 1);
  auto dst = TypeParam::make();
  vsaqr::apply_slice(a, 1, n1, *dst);
  vsaqr::apply_slice(a, 0, n0, *dst);
  for (const Slot& s : TypeParam::slots()) {
    EXPECT_TRUE(bitwise_equal(dst->slot(s[0], s[1], s[2]),
                              src->slot(s[0], s[1], s[2])));
  }
}

TYPED_TEST(DepositLogTest, SliceBoundHoldsAFullStore) {
  // Every slot deposited once is exactly the bound ship_deposits sizes
  // each slice with.
  auto full = TypeParam::make();
  full->log().enable();
  using Store = typename TypeParam::Store;
  for (int kind = 0; kind < Store::kDepositKinds; ++kind) {
    for (int i = 0; i < full->mt(); ++i) {
      for (int j = 0; j < full->nt(); ++j) {
        const ConstMatrixView shape = full->slot(kind, i, j);
        Matrix m(shape.rows, shape.cols);
        fill_random(m.view(), 100 + kind * 64 + i * 8 + j);
        full->put(kind, i, j, m.view());
      }
    }
  }
  DepositArena a = this->arena();
  EXPECT_EQ(this->encode(*full, a, 0), vsaqr::deposit_bytes_bound(*full));
  // One byte short of the bound is refused by the encoder.
  EXPECT_THROW(vsaqr::encode_deposits(*full, 0, a.slice(0),
                                      a.slice_bytes() - 1),
               Error);
}

TYPED_TEST(DepositLogTest, RejectsTruncatedBlob) {
  auto src = this->filled_source();
  DepositArena a = this->arena();
  const std::size_t n = this->encode(*src, a, 0);
  for (const std::size_t cut : {std::size_t{0}, std::size_t{2},
                                std::size_t{8}, n - 8, n - 1}) {
    this->expect_slice_rejected(a, 0, cut);
  }
  // A header that fits but whose data is missing.
  this->expect_rejected(one_entry(1, 0, 0, 0, 5, 5, 24));
}

TYPED_TEST(DepositLogTest, RejectsAByteCountBeyondTheSlice) {
  auto src = this->filled_source();
  DepositArena a = this->arena();
  (void)this->encode(*src, a, 0);
  this->expect_slice_rejected(a, 0, a.slice_bytes() + 1);
  this->expect_slice_rejected(a, 0, std::numeric_limits<std::uint64_t>::max());
}

TYPED_TEST(DepositLogTest, RejectsAZeroedSlice) {
  // A child that reported a count but never wrote its slice.
  DepositArena a = this->arena();
  for (const std::uint64_t n : {std::uint64_t{12}, std::uint64_t{64}}) {
    this->expect_slice_rejected(a, 0, n);
  }
}

TYPED_TEST(DepositLogTest, RejectsAnotherRanksSlice) {
  auto src = this->filled_source();
  DepositArena a = this->arena();
  const std::size_t n = this->encode(*src, a, 0);
  // Rank 0's bytes copied into rank 1's slice, and rank 1's own slice
  // stamped for rank 0.
  std::memcpy(a.slice(1), a.slice(0), n);
  this->expect_slice_rejected(a, 1, n);
  this->expect_rejected(one_entry(1, 0, 0, 0, 5, 5, 25, /*rank=*/1));
}

TYPED_TEST(DepositLogTest, RejectsInflatedHeader) {
  // 30000x30000 would zero-fill 7.2 GB before noticing the slice is empty.
  this->expect_rejected(one_entry(1, 0, 0, 0, 30000, 30000, 0));
  this->expect_rejected(one_entry(1, 0, 0, 0, -5, 5, 0));
  // A count promising far more entries than the slice holds.
  this->expect_rejected(one_entry(1u << 30, 0, 0, 0, 5, 5, 25));
}

TYPED_TEST(DepositLogTest, RejectsOutOfRangeIndex) {
  auto store = TypeParam::make();
  const int mt = store->mt();
  const int nt = store->nt();
  this->expect_rejected(one_entry(1, 0, mt, 0, 5, 5, 25));
  this->expect_rejected(one_entry(1, 0, 0, nt, 5, 5, 25));
  this->expect_rejected(one_entry(1, 0, -1, 0, 5, 5, 25));
  this->expect_rejected(one_entry(1, 0, 0, -1, 5, 5, 25));
}

TYPED_TEST(DepositLogTest, RejectsUnknownKind) {
  using Store = typename TypeParam::Store;
  this->expect_rejected(
      one_entry(1, Store::kDepositKinds, 0, 0, 5, 5, 25));
  this->expect_rejected(one_entry(1, 0xffffffffu, 0, 0, 5, 5, 25));
}

TYPED_TEST(DepositLogTest, RejectsWrongShape) {
  this->expect_rejected(one_entry(1, 0, 0, 0, 4, 5, 20));
  this->expect_rejected(one_entry(1, 0, 0, 0, 5, 4, 20));
  this->expect_rejected(one_entry(1, 0, 0, 0, 25, 1, 25));
}

}  // namespace
}  // namespace pulsarqr
