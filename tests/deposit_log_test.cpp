// The one socket deposit codec (vsaqr/deposit_log.hpp), driven against
// both stores that use it: the QR ResultStore (tile, geqrt T and tree T
// kinds) and the Cholesky/LU TileStore (one kind). A valid blob
// round-trips bitwise; a hostile one throws pulsarqr::Error before
// anything is allocated or written, so the store still accepts the
// valid blob afterwards.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "prt/wire.hpp"
#include "vsaqr/deposit_log.hpp"
#include "vsaqr/result_store.hpp"

namespace pulsarqr {
namespace {

using prt::Packet;
namespace wire = prt::net::wire;

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

Packet packet_of(const wire::Blob& b) {
  Packet p = Packet::make(b.size());
  std::memcpy(p.bytes(), b.data(), b.size());
  return p;
}

/// A one-entry blob with the given header followed by `doubles` values.
Packet one_entry(std::uint32_t count, std::uint32_t kind, int i, int j,
                 int rows, int cols, std::size_t doubles) {
  wire::Blob b;
  b.u32(count);
  b.u32(kind);
  b.i32(i);
  b.i32(j);
  b.i32(rows);
  b.i32(cols);
  for (std::size_t k = 0; k < doubles; ++k) b.f64(1.0);
  return packet_of(b);
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

  /// Apply the valid blob to `dst` and check every slot bitwise.
  void expect_round_trip(Store& src, Store& dst) {
    const Packet blob = vsaqr::serialize_deposits(src);
    vsaqr::apply_deposits(blob, dst);
    for (const Slot& s : T::slots()) {
      EXPECT_TRUE(bitwise_equal(dst.slot(s[0], s[1], s[2]),
                                src.slot(s[0], s[1], s[2])))
          << "slot (" << s[0] << "," << s[1] << "," << s[2] << ")";
    }
  }

  /// The hostile blob throws, and leaves `dst` untouched: the valid blob
  /// still applies cleanly (a stray write would trip the QR store's
  /// exactly-once check or break the bitwise comparison).
  void expect_rejected(const Packet& hostile) {
    auto src = filled_source();
    auto dst = T::make();
    EXPECT_THROW(vsaqr::apply_deposits(hostile, *dst), Error);
    expect_round_trip(*src, *dst);
  }
};

using StoreTypes = ::testing::Types<QrStore, TileStore>;
TYPED_TEST_SUITE(DepositLogTest, StoreTypes);

TYPED_TEST(DepositLogTest, ValidBlobRoundTripsBitwise) {
  auto src = this->filled_source();
  auto dst = TypeParam::make();
  this->expect_round_trip(*src, *dst);
}

TYPED_TEST(DepositLogTest, RejectsTruncatedBlob) {
  auto src = this->filled_source();
  const Packet blob = vsaqr::serialize_deposits(*src);
  for (const std::size_t cut : {std::size_t{2}, std::size_t{8}, blob.size() - 8,
                                blob.size() - 1}) {
    Packet part = Packet::make(cut);
    std::memcpy(part.bytes(), blob.bytes(), cut);
    auto dst = TypeParam::make();
    EXPECT_THROW(vsaqr::apply_deposits(part, *dst), Error) << cut << " bytes";
  }
  // A header that fits but whose data is missing.
  this->expect_rejected(one_entry(1, 0, 0, 0, 5, 5, 24));
}

TYPED_TEST(DepositLogTest, RejectsInflatedHeader) {
  // 30000x30000 would zero-fill 7.2 GB before noticing the blob is empty.
  this->expect_rejected(one_entry(1, 0, 0, 0, 30000, 30000, 0));
  this->expect_rejected(one_entry(1, 0, 0, 0, -5, 5, 0));
  // A count promising far more entries than the blob holds.
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
