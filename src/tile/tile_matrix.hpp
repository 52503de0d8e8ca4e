// Tile storage: an m-by-n matrix partitioned into nb-by-nb tiles, each tile
// stored contiguously in column-major order (the PLASMA tile layout the
// paper relies on for cache friendliness). The tiles sit in one Arena, one
// column of tiles after another, each starting on a 64-byte line.
#pragma once

#include <cstddef>
#include <utility>

#include "common/arena.hpp"
#include "common/view.hpp"

namespace pulsarqr {

class TileMatrix {
 public:
  TileMatrix() = default;

  /// Create an m-by-n zero matrix with tile size nb. Boundary tiles are
  /// ragged (smaller) when nb does not divide m or n. A `shared` matrix
  /// keeps its tiles in a shared Arena: the socket transport's result
  /// stores are built so, and their node processes write the result.
  TileMatrix(int m, int n, int nb, bool shared = false)
      : TileMatrix(m, n, nb, nb, shared) {}
  /// The same with mb-by-nb tiles (ref::TStore's T tiles).
  TileMatrix(int m, int n, int mb, int nb, bool shared);
  TileMatrix(const TileMatrix&) = default;
  TileMatrix& operator=(const TileMatrix&) = default;
  TileMatrix(TileMatrix&& o) noexcept { *this = std::move(o); }
  TileMatrix& operator=(TileMatrix&& o) noexcept;

  int rows() const { return m_; }
  int cols() const { return n_; }
  int nb() const { return nb_; }
  int mt() const { return mt_; }  ///< number of tile rows
  int nt() const { return nt_; }  ///< number of tile columns
  bool shared() const { return arena_.shared(); }

  /// Height of tile row i / width of tile column j (ragged at the border).
  int tile_rows(int i) const;
  int tile_cols(int j) const;

  /// Mutable / const view of tile (i, j); leading dimension == tile height.
  MatrixView tile(int i, int j);
  ConstMatrixView tile(int i, int j) const;

  /// Raw contiguous storage of tile (i, j), tile_rows(i)*tile_cols(j) doubles.
  double* tile_data(int i, int j);
  const double* tile_data(int i, int j) const;

  /// Element access (slow; for tests and small problems).
  double& at(int i, int j);
  double at(int i, int j) const;

  /// Conversions between dense column-major and tile layout.
  static TileMatrix from_dense(ConstMatrixView a, int nb);
  Matrix to_dense() const;

 private:
  int m_ = 0, n_ = 0, mb_ = 0, nb_ = 0, mt_ = 0, nt_ = 0;
  Arena arena_;
  /// Tile (i, j)'s offset in doubles from the arena's start.
  std::size_t offset(int i, int j) const;
};

}  // namespace pulsarqr
