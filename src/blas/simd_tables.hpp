// Internal: per-ISA kernel-table accessors, defined one pair per kernel
// translation unit. simd.cpp references each pair only when the matching
// PQR_HAVE_KERNELS_* definition is set by the build (src/CMakeLists.txt),
// which is also what keeps the link honest: a table can only be selected
// if its TU was compiled in.
#pragma once

#include "blas/simd.hpp"

namespace pulsarqr::blas::simd {

// kernels_generic.cpp — always present; compiled with the host-tuning
// flags when PULSARQR_NATIVE_KERNELS is ON (the PR 3 autovectorized
// baseline), plain portable codegen otherwise.
const KernelTable<double>& scalar_table_f64();
const KernelTable<float>& scalar_table_f32();

// kernels_avx2.cpp (x86-64, -mavx2 -mfma).
const KernelTable<double>& avx2_table_f64();
const KernelTable<float>& avx2_table_f32();

// kernels_avx512.cpp (x86-64, -mavx512f).
const KernelTable<double>& avx512_table_f64();
const KernelTable<float>& avx512_table_f32();

}  // namespace pulsarqr::blas::simd
