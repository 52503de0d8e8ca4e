#include "vsaqr/deposit_slots.hpp"

#include <cstring>
#include <new>
#include <utility>

#include "blas/blas.hpp"

namespace pulsarqr::vsaqr {

namespace {
/// Bitwise equality of two equally-shaped views (memcmp per column: a
/// replayed deposit must reproduce the first write exactly, including
/// signed zeros and NaN payloads).
bool bitwise_equal(ConstMatrixView a, ConstMatrixView b) {
  for (int j = 0; j < a.cols; ++j) {
    if (std::memcmp(a.col(j), b.col(j),
                    static_cast<std::size_t>(a.rows) * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}
}  // namespace

DepositSlots::DepositSlots(std::string owner, std::vector<std::string> kinds,
                           int mt, int nt, bool shared)
    : owner_(std::move(owner)),
      kinds_(std::move(kinds)),
      mt_(mt),
      nt_(nt),
      flags_(kinds_.size() * mt * nt * sizeof(Flag), shared) {
  for (std::size_t k = 0; k < flags_.size(); ++k) {
    new (flags_.data() + k) Flag(0);
  }
}

std::size_t DepositSlots::index(int kind, int i, int j) const {
  PQR_ASSERT(kind >= 0 && kind < static_cast<int>(kinds_.size()) && i >= 0 &&
                 i < mt_ && j >= 0 && j < nt_,
             owner_ + ": deposit slot out of range");
  return (static_cast<std::size_t>(kind) * nt_ + j) * mt_ + i;
}

std::string DepositSlots::name(int kind, int i, int j) const {
  return kinds_[kind] + " (" + std::to_string(i) + "," + std::to_string(j) +
         ")";
}

void DepositSlots::put(int kind, int i, int j, MatrixView home,
                       ConstMatrixView src) {
  Flag& f = flag(kind, i, j);
  PQR_ASSERT(home.rows == src.rows && home.cols == src.cols,
             owner_ + ": " + name(kind, i, j) + " shape mismatch");
  if (f.load(std::memory_order_acquire) != 0) {
    PQR_ASSERT(dedup_, owner_ + ": " + name(kind, i, j) + " deposited twice");
    PQR_ASSERT(bitwise_equal(src, home),
               owner_ + ": conflicting re-deposit of " + name(kind, i, j) +
                   " (a replay produced different content)");
    return;  // an idempotent replay of a published slot
  }
  blas::lacpy_all(src, home);
  f.store(1, std::memory_order_release);
}

void DepositSlots::require_written(int kind, int i, int j) const {
  require(written(kind, i, j),
          owner_ + ": " + name(kind, i, j) + " was never deposited");
}

}  // namespace pulsarqr::vsaqr
