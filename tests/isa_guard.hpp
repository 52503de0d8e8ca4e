// Per-ISA test helpers: the kernel flavors this binary and host can run,
// and a guard that restores the process-wide selection when a test that
// switches it with blas::simd::set_isa() ends.
#pragma once

#include <vector>

#include "blas/simd.hpp"

namespace pulsarqr {

inline std::vector<blas::simd::Isa> supported_isas() {
  using blas::simd::Isa;
  std::vector<Isa> out;
  for (Isa isa : {Isa::Scalar, Isa::Avx2, Isa::Avx512}) {
    if (blas::simd::isa_supported(isa)) out.push_back(isa);
  }
  return out;
}

// Save/restore the process-wide ISA selection around a test.
struct IsaGuard {
  blas::simd::Isa prev = blas::simd::active_isa();
  ~IsaGuard() { blas::simd::set_isa(prev); }
};

}  // namespace pulsarqr
