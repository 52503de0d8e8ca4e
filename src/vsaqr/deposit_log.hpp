// Socket-transport result shipping, shared by every scenario store.
//
// Under the socket backend each node process deposits into its own
// copy-on-write copy of the store, so the parent's copy stays empty.
// With the log enabled (pre-fork), each first write of a slot also
// records its (kind, i, j). Results travel home through a DepositArena:
// one MAP_SHARED|MAP_ANONYMOUS mapping made before the fork, with one
// slice per node rank, each sized to hold every slot of the store.
//
//   child   after the run, encode_deposits() writes the logged slots
//           straight into the rank's slice and the run epilogue ('E')
//           carries only the byte count written;
//   parent  bounds-checks the count against the slice and replays the
//           slice bytes through apply_deposits(), the one decoder, into
//           its own store through the same put the VDPs use, so whatever
//           discipline the store enforces (exactly-once flags, bitwise
//           dedup) applies to shipped slots too.
//
// A crash-respawned rank reuses its slice: the dead incarnation is
// reaped before the replacement forks, and only a run that every node
// finished (after the parent's 'G') writes a slice at all.
//
// Slice layout, little-endian:
//   [magic u32 | rank i32 | count u32 |
//    count x (kind u32, i i32, j i32, rows i32, cols i32,
//             column-major f64 data)]
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

inline constexpr std::uint32_t kDepositSliceMagic = 0x50515244;  // "DRQP"
inline constexpr std::size_t kDepositSliceHeaderBytes = 12;
inline constexpr std::size_t kDepositEntryHeaderBytes = 20;

/// Process-shared memory for deposit shipping: `slices` slices of
/// `slice_bytes` each, in one MAP_SHARED|MAP_ANONYMOUS mapping. Construct
/// it before the fork so every node process shares the same pages; pages
/// are allocated only as a slice is written.
class DepositArena {
 public:
  DepositArena(int slices, std::size_t slice_bytes);
  ~DepositArena();
  DepositArena(const DepositArena&) = delete;
  DepositArena& operator=(const DepositArena&) = delete;

  int slices() const { return slices_; }
  std::size_t slice_bytes() const { return slice_bytes_; }
  std::byte* slice(int rank) const;

 private:
  int slices_;
  std::size_t slice_bytes_;
  std::size_t stride_;  ///< slice_bytes_ rounded up to whole pages
  std::byte* base_ = nullptr;
};

/// Bytes of a slice holding every slot of `store` once: the bound of any
/// one rank's deposits.
template <class Store>
std::size_t deposit_bytes_bound(const Store& store) {
  std::size_t n = kDepositSliceHeaderBytes;
  for (int kind = 0; kind < Store::kDepositKinds; ++kind) {
    for (int i = 0; i < store.mt(); ++i) {
      for (int j = 0; j < store.nt(); ++j) {
        const ConstMatrixView v = store.slot(kind, i, j);
        n += kDepositEntryHeaderBytes +
             sizeof(double) * static_cast<std::size_t>(v.rows) * v.cols;
      }
    }
  }
  return n;
}

/// Encode every slot `store`'s log recorded, re-read from the store, into
/// `out` (capacity `cap`) stamped with `rank`. Returns the bytes written;
/// throws pulsarqr::Error if they would not fit.
template <class Store>
std::size_t encode_deposits(Store& store, int rank, std::byte* out,
                            std::size_t cap) {
  namespace wire = prt::net::wire;
  const std::vector<DepositLog::Entry> log = store.log().entries();
  std::size_t at = 0;
  auto take = [&](std::size_t n) {
    require(n <= cap - at, "deposit encoder: slice too small");
    std::byte* p = out + at;
    at += n;
    return p;
  };
  std::byte* h = take(kDepositSliceHeaderBytes);
  wire::put_u32(h, kDepositSliceMagic);
  wire::put_i32(h + 4, rank);
  wire::put_u32(h + 8, static_cast<std::uint32_t>(log.size()));
  for (const DepositLog::Entry& e : log) {
    const ConstMatrixView v = store.slot(e.kind, e.i, e.j);
    std::byte* eh = take(kDepositEntryHeaderBytes);
    wire::put_u32(eh, static_cast<std::uint32_t>(e.kind));
    wire::put_i32(eh + 4, e.i);
    wire::put_i32(eh + 8, e.j);
    wire::put_i32(eh + 12, v.rows);
    wire::put_i32(eh + 16, v.cols);
    for (int c = 0; c < v.cols; ++c) {
      wire::put_f64s(take(sizeof(double) * v.rows), v.col(c), v.rows);
    }
  }
  return at;
}

/// Replay the `n` deposit bytes rank `rank` wrote into `store` through
/// store.put. The bytes come from another process, so they are decoded
/// twice: the first pass checks the slice header (magic, rank), every
/// entry header against the store (known kind, slot in range, shape
/// equal to the slot's) and that the bytes hold the data, the second
/// copies. Corrupt bytes throw pulsarqr::Error before anything is
/// allocated or written.
template <class Store>
void apply_deposits(const std::byte* bytes, std::size_t n, int rank,
                    Store& store) {
  namespace wire = prt::net::wire;
  std::vector<double> buf;
  for (const bool write : {false, true}) {
    wire::BlobReader br(bytes, n);
    require(br.u32() == kDepositSliceMagic,
            "deposit slice: missing header (not a deposit slice)");
    require(br.i32() == rank, "deposit slice: written by another rank");
    const std::uint32_t count = br.u32();
    for (std::uint32_t k = 0; k < count; ++k) {
      const std::uint32_t kind = br.u32();
      const int i = br.i32();
      const int j = br.i32();
      const int rows = br.i32();
      const int cols = br.i32();
      require(kind < static_cast<std::uint32_t>(Store::kDepositKinds),
              "deposit slice: unknown deposit kind");
      require(i >= 0 && i < store.mt() && j >= 0 && j < store.nt(),
              "deposit slice: slot index out of range");
      const ConstMatrixView dst = store.slot(static_cast<int>(kind), i, j);
      require(rows == dst.rows && cols == dst.cols,
              "deposit slice: slot shape mismatch");
      const std::size_t len = static_cast<std::size_t>(rows) * cols;
      const std::byte* data = br.take(len * sizeof(double));  // bounds-checked
      if (!write) continue;
      buf.resize(len);
      wire::get_f64s(data, buf.data(), len);
      store.put(static_cast<int>(kind), i, j,
                ConstMatrixView(buf.data(), rows, cols, rows));
    }
    require(br.done(), "deposit slice: trailing bytes");
  }
}

/// Replay rank `rank`'s slice of `arena`, of which the child reported
/// writing `nbytes`, into `store`. A count beyond the slice throws
/// pulsarqr::Error before anything is read.
template <class Store>
void apply_slice(const DepositArena& arena, int rank, std::uint64_t nbytes,
                 Store& store) {
  require(rank >= 0 && rank < arena.slices(),
          "deposit arena: rank out of range");
  require(nbytes <= arena.slice_bytes(),
          "deposit arena: byte count exceeds the slice");
  apply_deposits(arena.slice(rank), static_cast<std::size_t>(nbytes), rank,
                 store);
}

/// Ship `store`'s deposits home when `vsa` runs over the socket transport:
/// enable its log, map the arena (this call must precede run(), and so the
/// fork) and install the Vsa process hooks. Each child encodes its log
/// into its slice and returns the byte count as its epilogue blob (u64);
/// the parent replays every child's slice. A no-op in-process, where
/// every VDP already writes the one shared store.
template <class Store>
void ship_deposits(prt::Vsa& vsa, std::shared_ptr<Store> store) {
  namespace wire = prt::net::wire;
  if (vsa.config().transport != prt::Transport::Socket) return;
  store->log().enable();
  auto arena = std::make_shared<DepositArena>(vsa.config().nodes,
                                              deposit_bytes_bound(*store));
  vsa.set_process_hooks(
      [store, arena](int rank) {
        const std::size_t n = encode_deposits(*store, rank, arena->slice(rank),
                                              arena->slice_bytes());
        prt::Packet count = prt::Packet::make(8);
        wire::put_u64(count.bytes(), n);
        return count;
      },
      [store, arena](int rank, const prt::Packet& count) {
        require(count.size() == 8, "deposit epilogue: expected a byte count");
        apply_slice(*arena, rank, wire::get_u64(count.bytes()), *store);
      });
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
