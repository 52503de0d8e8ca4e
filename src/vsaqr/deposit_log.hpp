// Socket-transport result shipping, shared by every scenario store.
//
// Under the socket backend each node process deposits into its own
// copy-on-write copy of the store, so the parent's copy stays empty.
// With the log enabled (pre-fork), each first write of a slot also
// records its (kind, i, j); serialize_deposits() re-reads the recorded
// slots into one little-endian blob the child ships home in its run
// epilogue, and apply_deposits() replays a child's blob into the
// parent's store through the same put the VDPs use, so whatever
// discipline the store enforces (exactly-once flags, bitwise dedup)
// applies to shipped slots too.
//
// A store plugs in by providing
//   DepositLog& log();
//   int mt() const; int nt() const;   slot index bounds, for every kind
//   static constexpr int kDepositKinds;
//   ConstMatrixView slot(int kind, int i, int j) const;
//   void put(int kind, int i, int j, ConstMatrixView v);
// and ship_deposits() wires it into a Vsa's process hooks.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "blas/blas.hpp"
#include "prt/vsa.hpp"
#include "prt/wire.hpp"
#include "tile/tile_matrix.hpp"

namespace pulsarqr::vsaqr {

/// The (kind, i, j) of every slot a store wrote, in write order.
class DepositLog {
 public:
  struct Entry {
    int kind;
    int i;
    int j;
  };

  /// Start recording deposits. Call BEFORE the run (i.e. pre-fork).
  void enable() { enabled_ = true; }

  /// Record that slot (kind, i, j) was written.
  void record(int kind, int i, int j) {
    if (!enabled_) return;
    std::lock_guard<std::mutex> lock(mu_);
    log_.push_back({kind, i, j});
  }

  std::vector<Entry> entries() const {
    std::lock_guard<std::mutex> lock(mu_);
    return log_;
  }

 private:
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<Entry> log_;  ///< guarded by mu_
};

/// Little-endian blob of every slot `store`'s log recorded, re-read from
/// the store: [count | (kind, i, j, rows, cols, column-major data) per
/// slot].
template <class Store>
prt::Packet serialize_deposits(Store& store) {
  namespace wire = prt::net::wire;
  const std::vector<DepositLog::Entry> log = store.log().entries();
  wire::Blob b;
  b.u32(static_cast<std::uint32_t>(log.size()));
  for (const DepositLog::Entry& e : log) {
    const ConstMatrixView v = store.slot(e.kind, e.i, e.j);
    b.u32(static_cast<std::uint32_t>(e.kind));
    b.i32(e.i);
    b.i32(e.j);
    b.i32(v.rows);
    b.i32(v.cols);
    for (int c = 0; c < v.cols; ++c) b.f64s(v.col(c), v.rows);
  }
  prt::Packet out = prt::Packet::make(b.size());
  if (b.size() > 0) std::memcpy(out.bytes(), b.data(), b.size());
  return out;
}

/// Replay one child's blob into `store` through store.put. The blob
/// comes from another process, so it is decoded twice: the first pass
/// checks every header against the store (known kind, slot in range,
/// shape equal to the slot's) and that the blob holds the data, the
/// second copies. A corrupt blob throws pulsarqr::Error before anything
/// is allocated or written.
template <class Store>
void apply_deposits(const prt::Packet& blob, Store& store) {
  namespace wire = prt::net::wire;
  std::vector<double> buf;
  for (const bool write : {false, true}) {
    wire::BlobReader br(blob.bytes(), blob.size());
    const std::uint32_t count = br.u32();
    for (std::uint32_t k = 0; k < count; ++k) {
      const std::uint32_t kind = br.u32();
      const int i = br.i32();
      const int j = br.i32();
      const int rows = br.i32();
      const int cols = br.i32();
      require(kind < static_cast<std::uint32_t>(Store::kDepositKinds),
              "deposit blob: unknown deposit kind");
      require(i >= 0 && i < store.mt() && j >= 0 && j < store.nt(),
              "deposit blob: slot index out of range");
      const ConstMatrixView dst = store.slot(static_cast<int>(kind), i, j);
      require(rows == dst.rows && cols == dst.cols,
              "deposit blob: slot shape mismatch");
      const std::size_t n = static_cast<std::size_t>(rows) * cols;
      const std::byte* data = br.take(n * sizeof(double));  // bounds-checked
      if (!write) continue;
      buf.resize(n);
      for (std::size_t e = 0; e < n; ++e) buf[e] = wire::get_f64(data + 8 * e);
      store.put(static_cast<int>(kind), i, j,
                ConstMatrixView(buf.data(), rows, cols, rows));
    }
    require(br.done(), "deposit blob: trailing bytes");
  }
}

/// Ship `store`'s deposits home when `vsa` runs over the socket transport:
/// enable its log and install the Vsa process hooks (each child
/// serializes its log, the parent replays every child's blob). A no-op
/// in-process, where every VDP already writes the one shared store. Call
/// before run().
template <class Store>
void ship_deposits(prt::Vsa& vsa, std::shared_ptr<Store> store) {
  if (vsa.config().transport != prt::Transport::Socket) return;
  store->log().enable();
  vsa.set_process_hooks(
      [store] { return serialize_deposits(*store); },
      [store](int, const prt::Packet& blob) { apply_deposits(blob, *store); });
}

/// Collection point for one TileMatrix of final tiles (Cholesky's L, LU's
/// packed factors): one writer per tile. The overwrite-copy put is
/// naturally idempotent, so crash-recovery replays of shipped deposits
/// need no extra discipline here.
class TileStore {
 public:
  static constexpr int kDepositKinds = 1;

  explicit TileStore(TileMatrix m) : tiles(std::move(m)) {}

  int mt() const { return tiles.mt(); }
  int nt() const { return tiles.nt(); }

  void put(int i, int j, ConstMatrixView tile) {
    blas::lacpy_all(tile, tiles.tile(i, j));
    log_.record(0, i, j);
  }
  void put(int /*kind*/, int i, int j, ConstMatrixView tile) {
    put(i, j, tile);
  }
  ConstMatrixView slot(int /*kind*/, int i, int j) const {
    return tiles.tile(i, j);
  }
  DepositLog& log() { return log_; }

  TileMatrix tiles;

 private:
  DepositLog log_;
};

}  // namespace pulsarqr::vsaqr
