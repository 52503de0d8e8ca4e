#include "vsaqr/deposit_slots.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <cerrno>
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
                           int mt, int nt, bool shared,
                           const std::function<Shape(int, int, int)>& shape)
    : owner_(std::move(owner)), kinds_(std::move(kinds)), mt_(mt), nt_(nt) {
  const std::size_t n = kinds_.size() * mt * nt;
  if (!shared) {
    own_flags_ = std::make_unique<Flag[]>(n);  // value-initialized: 0
    flags_ = own_flags_.get();
    return;
  }
  // Flags first, then the slots in index() order, each starting on a
  // cache line so ranks writing neighbouring slots share none.
  constexpr std::size_t kLine = 64 / sizeof(double);
  shape_.reserve(n);
  offset_.reserve(n);
  std::size_t doubles = 0;
  for (int kind = 0; kind < static_cast<int>(kinds_.size()); ++kind) {
    for (int j = 0; j < nt; ++j) {
      for (int i = 0; i < mt; ++i) {
        const Shape s = shape(kind, i, j);
        shape_.push_back(s);
        offset_.push_back(doubles);
        doubles += (static_cast<std::size_t>(s.rows) * s.cols + kLine - 1) /
                   kLine * kLine;
      }
    }
  }
  const std::size_t head = (n + 63) / 64 * 64;
  map_bytes_ = std::max<std::size_t>(head + doubles * sizeof(double), 1);
  void* p = ::mmap(nullptr, map_bytes_, PROT_READ | PROT_WRITE,
                   MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  require(p != MAP_FAILED, owner_ + ": mmap of " + std::to_string(map_bytes_) +
                               " bytes of deposit slots failed: " +
                               std::strerror(errno));
  map_ = static_cast<std::byte*>(p);
  for (std::size_t k = 0; k < n; ++k) new (map_ + k) Flag(0);
  flags_ = std::launder(reinterpret_cast<Flag*>(map_));
  data_ = reinterpret_cast<double*>(map_ + head);
}

DepositSlots::~DepositSlots() {
  if (map_ != nullptr) ::munmap(map_, map_bytes_);
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

MatrixView DepositSlots::view(int kind, int i, int j) const {
  PQR_ASSERT(shared(), owner_ + ": in-process slots have no shared view");
  const std::size_t s = index(kind, i, j);
  return MatrixView(data_ + offset_[s], shape_[s].rows, shape_[s].cols,
                    std::max(1, shape_[s].rows));
}

void DepositSlots::put(int kind, int i, int j, MatrixView home,
                       ConstMatrixView src) {
  const MatrixView dst = shared() ? view(kind, i, j) : home;
  PQR_ASSERT(dst.rows == src.rows && dst.cols == src.cols,
             owner_ + ": " + name(kind, i, j) + " shape mismatch");
  Flag& f = flag(kind, i, j);
  if (f.load(std::memory_order_acquire) != 0) {
    PQR_ASSERT(dedup_, owner_ + ": " + name(kind, i, j) + " deposited twice");
    PQR_ASSERT(bitwise_equal(src, dst),
               owner_ + ": conflicting re-deposit of " + name(kind, i, j) +
                   " (a replay produced different content)");
    return;  // an idempotent replay of a published slot
  }
  blas::lacpy_all(src, dst);
  f.store(1, std::memory_order_release);
}

void DepositSlots::require_written(int kind, int i, int j) const {
  require(written(kind, i, j),
          owner_ + ": " + name(kind, i, j) + " was never deposited");
}

void DepositSlots::copy_out(int kind, int i, int j, MatrixView home) const {
  if (shared() && written(kind, i, j)) {
    blas::lacpy_all(view(kind, i, j), home);
  }
}

}  // namespace pulsarqr::vsaqr
