// An owned block of memory that a forked process can write through.
#pragma once

#include <cstddef>

namespace pulsarqr {

/// An owned, zero-filled, 64-byte-aligned block of bytes. A shared arena is
/// one MAP_SHARED|MAP_ANONYMOUS mapping, so a process forked after it is
/// made writes straight into this process's memory. A private arena below
/// kMapBytes comes from the heap. A larger one is a mapping of its own,
/// kept when freed for the next arena of its length, so an arena made on
/// every call neither maps nor faults anew. A copy is deep and private; a
/// move leaves the source empty.
class Arena {
 public:
  static constexpr std::size_t kMapBytes = std::size_t{2} << 20;

  Arena() = default;
  Arena(std::size_t bytes, bool shared);
  Arena(const Arena& o);
  Arena(Arena&& o) noexcept { swap(o); }
  Arena& operator=(Arena o) noexcept {
    swap(o);
    return *this;
  }
  ~Arena();
  void swap(Arena& o) noexcept;

  std::byte* data() const { return data_; }
  std::size_t size() const { return bytes_; }
  bool shared() const { return shared_; }

 private:
  bool heap() const { return !shared_ && bytes_ < kMapBytes; }

  std::byte* data_ = nullptr;
  std::size_t bytes_ = 0;
  bool shared_ = false;
};

}  // namespace pulsarqr
