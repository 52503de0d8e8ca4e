// Data packets flowing through VSA channels.
//
// A packet is a reference-counted byte buffer plus a small integer metadata
// word. Copying a packet shares the buffer — this is the zero-copy
// shared-memory aliasing the paper relies on for intra-node channels and
// for the by-pass (forward-before-use) pattern, and in-process between
// virtual nodes too: a buffer is immutable once pushed or sent, and a
// consumer mutates only a packet its producer moved out.
#pragma once

#include <cstddef>
#include <cstring>
#include <memory>

#include "common/error.hpp"

namespace pulsarqr::prt {

class Packet {
 public:
  Packet() = default;

  /// Allocate an uninitialized packet of `bytes` bytes. The buffer comes
  /// from prt::PacketPool (recycled on last-reference release), so a
  /// warmed steady state performs no heap allocation here.
  static Packet make(std::size_t bytes, int meta = 0);

  /// Deep copy, for a holder that must write to data it has already
  /// pushed or sent.
  Packet clone() const;

  bool empty() const { return data_ == nullptr; }
  std::size_t size() const { return size_; }
  int meta() const { return meta_; }
  void set_meta(int m) { meta_ = m; }

  std::byte* bytes() { return data_.get(); }
  const std::byte* bytes() const { return data_.get(); }

  /// Typed views of the payload; the payload is always max-aligned.
  double* doubles() { return reinterpret_cast<double*>(data_.get()); }
  const double* doubles() const {
    return reinterpret_cast<const double*>(data_.get());
  }
  std::size_t num_doubles() const { return size_ / sizeof(double); }

 private:
  Packet(std::shared_ptr<std::byte[]> d, std::size_t n, int meta)
      : data_(std::move(d)), size_(n), meta_(meta) {}

  std::shared_ptr<std::byte[]> data_;
  std::size_t size_ = 0;
  int meta_ = 0;
};

}  // namespace pulsarqr::prt
