// Explicit little-endian wire codec shared by every byte format the
// transport puts on (or prepares for) a wire: the socket transport's frame
// headers, the control-plane blobs (stats epilogues, failure reports)
// exchanged between node processes, and the result-deposit slices they
// share.
//
// Every value is written byte-by-byte in little-endian order, never by
// memcpy of a host integer, so two heterogeneous hosts (or a host and a
// recorded golden frame) always agree on the encoding. Signed values
// travel as their two's-complement unsigned image; doubles as their
// IEEE-754 bit pattern. Bulk double arrays (put_f64s/get_f64s) are the
// one memcpy, and only where the host image already is little-endian.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace pulsarqr::prt::net::wire {

inline void put_u32(std::byte* p, std::uint32_t v) {
  p[0] = static_cast<std::byte>(v & 0xff);
  p[1] = static_cast<std::byte>((v >> 8) & 0xff);
  p[2] = static_cast<std::byte>((v >> 16) & 0xff);
  p[3] = static_cast<std::byte>((v >> 24) & 0xff);
}

inline void put_u64(std::byte* p, std::uint64_t v) {
  put_u32(p, static_cast<std::uint32_t>(v & 0xffffffffULL));
  put_u32(p + 4, static_cast<std::uint32_t>(v >> 32));
}

inline void put_i32(std::byte* p, std::int32_t v) {
  put_u32(p, static_cast<std::uint32_t>(v));
}

inline void put_i64(std::byte* p, std::int64_t v) {
  put_u64(p, static_cast<std::uint64_t>(v));
}

inline void put_f64(std::byte* p, double v) {
  put_u64(p, std::bit_cast<std::uint64_t>(v));
}

inline std::uint32_t get_u32(const std::byte* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

inline std::uint64_t get_u64(const std::byte* p) {
  return static_cast<std::uint64_t>(get_u32(p)) |
         (static_cast<std::uint64_t>(get_u32(p + 4)) << 32);
}

inline std::int32_t get_i32(const std::byte* p) {
  return static_cast<std::int32_t>(get_u32(p));
}

inline std::int64_t get_i64(const std::byte* p) {
  return static_cast<std::int64_t>(get_u64(p));
}

inline double get_f64(const std::byte* p) {
  return std::bit_cast<double>(get_u64(p));
}

/// `n` doubles as consecutive little-endian bit patterns. On a
/// little-endian host that image is the in-memory one, so the column
/// travels as one memcpy; elsewhere each value is encoded byte by byte.
inline void put_f64s(std::byte* p, const double* v, std::size_t n) {
  if constexpr (std::endian::native == std::endian::little) {
    if (n > 0) std::memcpy(p, v, 8 * n);
  } else {
    for (std::size_t i = 0; i < n; ++i) put_f64(p + 8 * i, v[i]);
  }
}

/// Inverse of put_f64s.
inline void get_f64s(const std::byte* p, double* v, std::size_t n) {
  if constexpr (std::endian::native == std::endian::little) {
    if (n > 0) std::memcpy(v, p, 8 * n);
  } else {
    for (std::size_t i = 0; i < n; ++i) v[i] = get_f64(p + 8 * i);
  }
}

/// Control-plane rejoin handshake of the socket transport's crash
/// recovery: 'R' {rank i32, epoch u32}, sent parent -> survivor with the
/// replacement's fresh socket descriptor riding the first byte via
/// SCM_RIGHTS. Both ends encode/decode through this codec so the layout
/// lives in exactly one place.
inline constexpr std::size_t kRejoinHdrBytes = 9;
inline constexpr std::size_t kRejoinBodyBytes = kRejoinHdrBytes - 1;

struct RejoinHdr {
  std::int32_t rank;     ///< rank that was respawned
  std::uint32_t epoch;   ///< its new incarnation number
};

inline void put_rejoin_hdr(std::byte* p, const RejoinHdr& h) {
  p[0] = static_cast<std::byte>('R');
  put_i32(p + 1, h.rank);
  put_u32(p + 5, h.epoch);
}

/// Decode the body bytes that follow the already-consumed 'R' tag.
inline RejoinHdr get_rejoin_body(const std::byte* p) {
  return RejoinHdr{get_i32(p), get_u32(p + 4)};
}

/// Append-only little-endian blob builder for variable-length payloads
/// (control-plane messages, serialized deposits and reports).
class Blob {
 public:
  void u32(std::uint32_t v) { grow(4, [&](std::byte* p) { put_u32(p, v); }); }
  void u64(std::uint64_t v) { grow(8, [&](std::byte* p) { put_u64(p, v); }); }
  void i32(std::int32_t v) { grow(4, [&](std::byte* p) { put_i32(p, v); }); }
  void i64(std::int64_t v) { grow(8, [&](std::byte* p) { put_i64(p, v); }); }
  void f64(double v) { grow(8, [&](std::byte* p) { put_f64(p, v); }); }
  void str(const std::string& s) {
    u64(s.size());
    bytes(reinterpret_cast<const std::byte*>(s.data()), s.size());
  }
  void bytes(const std::byte* p, std::size_t n) {
    buf_.insert(buf_.end(), p, p + n);
  }

  const std::byte* data() const { return buf_.data(); }
  std::size_t size() const { return buf_.size(); }

 private:
  template <class Fn>
  void grow(std::size_t n, Fn write) {
    const std::size_t at = buf_.size();
    buf_.resize(at + n);
    write(buf_.data() + at);
  }
  std::vector<std::byte> buf_;
};

/// Sequential reader over a Blob's bytes; throws past-the-end reads
/// instead of walking off the buffer (a truncated control message is a
/// peer bug or a dead peer, either way a named error beats UB).
class BlobReader {
 public:
  BlobReader(const std::byte* p, std::size_t n) : p_(p), n_(n) {}

  std::uint32_t u32() { return get_u32(take(4)); }
  std::uint64_t u64() { return get_u64(take(8)); }
  std::int32_t i32() { return get_i32(take(4)); }
  std::int64_t i64() { return get_i64(take(8)); }
  double f64() { return get_f64(take(8)); }
  std::string str() {
    const std::size_t len = static_cast<std::size_t>(u64());
    const std::byte* p = take(len);
    return std::string(reinterpret_cast<const char*>(p), len);
  }
  const std::byte* take(std::size_t n) {
    // Never off_ + n: a huge n would wrap past the check.
    require(n <= n_ - off_, "wire::BlobReader: truncated blob");
    const std::byte* p = p_ + off_;
    off_ += n;
    return p;
  }
  bool done() const { return off_ == n_; }
  std::size_t remaining() const { return n_ - off_; }

 private:
  const std::byte* p_;
  std::size_t n_;
  std::size_t off_ = 0;
};

}  // namespace pulsarqr::prt::net::wire
