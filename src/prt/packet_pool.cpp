#include "prt/packet_pool.hpp"

#include <atomic>
#include <mutex>
#include <new>
#include <vector>

namespace pulsarqr::prt {

namespace {

constexpr std::size_t kMinClass = 64;  // one cache line
constexpr int kClasses = 18;           // 64 B .. 8 MiB (64 << 17)

std::size_t class_capacity(int idx) { return kMinClass << idx; }

/// Smallest class holding `bytes`, or -1 above the largest class.
int class_index(std::size_t bytes) {
  std::size_t cap = kMinClass;
  for (int idx = 0; idx < kClasses; ++idx, cap <<= 1) {
    if (bytes <= cap) return idx;
  }
  return -1;
}

std::byte* heap_alloc(std::size_t bytes) {
  // Over-align to 64 bytes so double payloads sit on cache lines.
  return static_cast<std::byte*>(
      ::operator new[](bytes > 0 ? bytes : 1, std::align_val_t(64)));
}

void heap_free(std::byte* p) {
  ::operator delete[](p, std::align_val_t(64));
}

/// Leaky singleton: Packet deleters may run from static destructors, so
/// the pool must outlive everything.
struct Pool {
  std::atomic<long long> hits{0};
  std::atomic<long long> misses{0};
  std::atomic<long long> oversize{0};
  std::atomic<long long> recycled{0};
  struct ClassList {
    std::mutex mu;
    std::vector<std::byte*> free;
  };
  ClassList lists[kClasses];
};

Pool& pool() {
  static Pool* p = new Pool;
  return *p;
}

void release(std::byte* p, int idx) {
  Pool& pl = pool();
  pl.recycled.fetch_add(1, std::memory_order_relaxed);
  auto& cls = pl.lists[idx];
  std::lock_guard<std::mutex> lock(cls.mu);
  cls.free.push_back(p);
}

}  // namespace

std::shared_ptr<std::byte[]> PacketPool::acquire(std::size_t bytes) {
  Pool& pl = pool();
  const int idx = class_index(bytes);
  if (idx < 0) {
    pl.oversize.fetch_add(1, std::memory_order_relaxed);
    return std::shared_ptr<std::byte[]>(heap_alloc(bytes),
                                        [](std::byte* q) { heap_free(q); });
  }
  std::byte* out = nullptr;
  {
    auto& cls = pl.lists[idx];
    std::lock_guard<std::mutex> lock(cls.mu);
    if (!cls.free.empty()) {
      out = cls.free.back();
      cls.free.pop_back();
    }
  }
  if (out != nullptr) {
    pl.hits.fetch_add(1, std::memory_order_relaxed);
  } else {
    pl.misses.fetch_add(1, std::memory_order_relaxed);
    out = heap_alloc(class_capacity(idx));
  }
  return std::shared_ptr<std::byte[]>(out,
                                      [idx](std::byte* q) { release(q, idx); });
}

PacketPool::Stats PacketPool::stats() {
  Pool& pl = pool();
  Stats s;
  s.hits = pl.hits.load(std::memory_order_relaxed);
  s.misses = pl.misses.load(std::memory_order_relaxed);
  s.oversize = pl.oversize.load(std::memory_order_relaxed);
  s.recycled = pl.recycled.load(std::memory_order_relaxed);
  return s;
}

std::size_t PacketPool::capacity_for(std::size_t bytes) {
  const int idx = class_index(bytes);
  return idx < 0 ? 0 : class_capacity(idx);
}

}  // namespace pulsarqr::prt
