#include "common/arena.hpp"

#include <sys/mman.h>

#include <cerrno>
#include <cstring>
#include <deque>
#include <mutex>
#include <new>
#include <string>
#include <utility>

#include "common/error.hpp"

namespace pulsarqr {

namespace {
constexpr std::align_val_t kLine{64};

/// Private mappings freed and kept for the next arena of the same length,
/// oldest first, at most kBytes in all. A result store is built on every
/// call, and above glibc's dynamic mmap ceiling (32 MiB) the heap would
/// hand it a fresh mapping each time, faulting once per page; a spare
/// costs one memset. Leaky: arenas may die in static destructors.
struct Spares {
  static constexpr std::size_t kBytes = std::size_t{256} << 20;
  std::mutex mu;
  std::deque<std::pair<void*, std::size_t>> maps;  // guarded by mu
  std::size_t bytes = 0;                            // guarded by mu
};

Spares& spares() {
  static auto* s = new Spares;
  return *s;
}

/// A spare mapping of exactly `bytes`, or null.
void* take_spare(std::size_t bytes) {
  Spares& s = spares();
  std::lock_guard<std::mutex> lock(s.mu);
  for (auto it = s.maps.begin(); it != s.maps.end(); ++it) {
    if (it->second == bytes) {
      void* p = it->first;
      s.maps.erase(it);
      s.bytes -= bytes;
      return p;
    }
  }
  return nullptr;
}

/// Keep a freed private mapping, unmapping the oldest past the budget.
void give_spare(void* p, std::size_t bytes) {
  Spares& s = spares();
  std::lock_guard<std::mutex> lock(s.mu);
  s.maps.emplace_back(p, bytes);
  s.bytes += bytes;
  while (s.bytes > Spares::kBytes) {
    ::munmap(s.maps.front().first, s.maps.front().second);
    s.bytes -= s.maps.front().second;
    s.maps.pop_front();
  }
}
}  // namespace

Arena::Arena(std::size_t bytes, bool shared) : bytes_(bytes), shared_(shared) {
  if (bytes == 0) return;
  if (heap()) {
    data_ = static_cast<std::byte*>(::operator new(bytes, kLine));
    std::memset(data_, 0, bytes);
    return;
  }
  if (!shared) {
    if (void* p = take_spare(bytes)) {
      data_ = static_cast<std::byte*>(p);
      std::memset(data_, 0, bytes);
      return;
    }
  }
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   (shared ? MAP_SHARED : MAP_PRIVATE) | MAP_ANONYMOUS, -1, 0);
  require(p != MAP_FAILED, "Arena: mmap of " + std::to_string(bytes) +
                               " bytes failed: " + std::strerror(errno));
  data_ = static_cast<std::byte*>(p);
}

Arena::Arena(const Arena& o) : Arena(o.bytes_, false) {
  if (bytes_ != 0) std::memcpy(data_, o.data_, bytes_);
}

Arena::~Arena() {
  if (data_ == nullptr) return;
  if (heap()) {
    ::operator delete(data_, kLine);
  } else if (shared_) {
    ::munmap(data_, bytes_);
  } else {
    give_spare(data_, bytes_);
  }
}

void Arena::swap(Arena& o) noexcept {
  std::swap(data_, o.data_);
  std::swap(bytes_, o.bytes_);
  std::swap(shared_, o.shared_);
}

}  // namespace pulsarqr
