#include "vsaqr/deposit_log.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>

namespace pulsarqr::vsaqr {

DepositArena::DepositArena(int slices, std::size_t slice_bytes)
    : slices_(slices), slice_bytes_(slice_bytes) {
  require(slices > 0, "DepositArena: need at least one slice");
  const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  stride_ = (slice_bytes + page - 1) / page * page;
  void* p = ::mmap(nullptr, stride_ * static_cast<std::size_t>(slices),
                   PROT_READ | PROT_WRITE, MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  require(p != MAP_FAILED, "DepositArena: mmap of " +
                               std::to_string(stride_ * slices) +
                               " bytes failed: " + std::strerror(errno));
  base_ = static_cast<std::byte*>(p);
}

DepositArena::~DepositArena() {
  ::munmap(base_, stride_ * static_cast<std::size_t>(slices_));
}

std::byte* DepositArena::slice(int rank) const {
  PQR_ASSERT(rank >= 0 && rank < slices_, "DepositArena: rank out of range");
  return base_ + stride_ * static_cast<std::size_t>(rank);
}

}  // namespace pulsarqr::vsaqr
