#include "tile/tile_matrix.hpp"

#include "blas/blas.hpp"

namespace pulsarqr {

namespace {
/// Doubles a tile of `elems` values takes: whole 64-byte lines.
std::size_t line_padded(std::size_t elems) { return (elems + 7) / 8 * 8; }
}  // namespace

TileMatrix::TileMatrix(int m, int n, int mb, int nb, bool shared)
    : m_(m), n_(n), mb_(mb), nb_(nb) {
  // A literal, not require(): from_dense makes exactly one allocation.
  if (m < 0 || n < 0 || mb < 1 || nb < 1) {
    throw Error("TileMatrix: bad dimensions");
  }
  mt_ = (m + mb - 1) / mb;
  nt_ = (n + nb - 1) / nb;
  if (mt_ == 0 || nt_ == 0) return;
  const std::size_t doubles =
      offset(mt_ - 1, nt_ - 1) +
      line_padded(static_cast<std::size_t>(tile_rows(mt_ - 1)) *
                  tile_cols(nt_ - 1));
  arena_ = Arena(doubles * sizeof(double), shared);
}

TileMatrix& TileMatrix::operator=(TileMatrix&& o) noexcept {
  m_ = std::exchange(o.m_, 0);
  n_ = std::exchange(o.n_, 0);
  mb_ = std::exchange(o.mb_, 0);
  nb_ = std::exchange(o.nb_, 0);
  mt_ = std::exchange(o.mt_, 0);
  nt_ = std::exchange(o.nt_, 0);
  arena_ = std::move(o.arena_);
  return *this;
}

std::size_t TileMatrix::offset(int i, int j) const {
  PQR_ASSERT(i >= 0 && i < mt_, "tile_data: index out of range");
  const auto mb = static_cast<std::size_t>(mb_);
  const auto nb = static_cast<std::size_t>(nb_);
  const std::size_t column =
      (mt_ - 1) * line_padded(mb * nb) + line_padded(tile_rows(mt_ - 1) * nb);
  return j * column + i * line_padded(mb * tile_cols(j));
}

int TileMatrix::tile_rows(int i) const {
  PQR_ASSERT(i >= 0 && i < mt_, "tile_rows: index out of range");
  return (i == mt_ - 1) ? m_ - i * mb_ : mb_;
}

int TileMatrix::tile_cols(int j) const {
  PQR_ASSERT(j >= 0 && j < nt_, "tile_cols: index out of range");
  return (j == nt_ - 1) ? n_ - j * nb_ : nb_;
}

MatrixView TileMatrix::tile(int i, int j) {
  const int tr = tile_rows(i);
  return MatrixView(tile_data(i, j), tr, tile_cols(j), tr);
}

ConstMatrixView TileMatrix::tile(int i, int j) const {
  const int tr = tile_rows(i);
  return ConstMatrixView(tile_data(i, j), tr, tile_cols(j), tr);
}

double* TileMatrix::tile_data(int i, int j) {
  return reinterpret_cast<double*>(arena_.data()) + offset(i, j);
}
const double* TileMatrix::tile_data(int i, int j) const {
  return reinterpret_cast<const double*>(arena_.data()) + offset(i, j);
}

double& TileMatrix::at(int i, int j) {
  PQR_ASSERT(i >= 0 && i < m_ && j >= 0 && j < n_, "at: out of range");
  return tile(i / mb_, j / nb_)(i % mb_, j % nb_);
}

double TileMatrix::at(int i, int j) const {
  PQR_ASSERT(i >= 0 && i < m_ && j >= 0 && j < n_, "at: out of range");
  return tile(i / mb_, j / nb_)(i % mb_, j % nb_);
}

TileMatrix TileMatrix::from_dense(ConstMatrixView a, int nb) {
  TileMatrix t(a.rows, a.cols, nb);
  for (int j = 0; j < t.nt_; ++j) {
    for (int i = 0; i < t.mt_; ++i) {
      blas::lacpy_all(
          a.block(i * nb, j * nb, t.tile_rows(i), t.tile_cols(j)),
          t.tile(i, j));
    }
  }
  return t;
}

Matrix TileMatrix::to_dense() const {
  Matrix a(m_, n_);
  for (int j = 0; j < nt_; ++j) {
    for (int i = 0; i < mt_; ++i) {
      blas::lacpy_all(tile(i, j), a.view().block(i * mb_, j * nb_,
                                                 tile_rows(i), tile_cols(j)));
    }
  }
  return a;
}

}  // namespace pulsarqr
