// Runtime ISA selection for the SIMD kernel tables (see simd.hpp).
//
// CPU capability is probed once with __builtin_cpu_supports on x86-64
// (cpuid under the hood). Other hosts (aarch64 included) run the scalar
// table.
// Which tables exist in this binary is a build-time fact surfaced via the
// PQR_HAVE_KERNELS_* definitions CMake sets on this TU only.
#include "blas/simd.hpp"

#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "blas/simd_tables.hpp"

namespace pulsarqr::blas::simd {

namespace detail {
std::atomic<const KernelTable<double>*> table_f64{nullptr};
std::atomic<const KernelTable<float>*> table_f32{nullptr};
}  // namespace detail

namespace {

std::mutex g_select_mutex;
Isa g_active = Isa::Scalar;  // meaningful only once tables are published

bool cpu_has(Isa isa) {
  switch (isa) {
    case Isa::Scalar:
      return true;
    case Isa::Avx2:
#if defined(__x86_64__) || defined(__i386__)
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
      return false;
#endif
    case Isa::Avx512:
#if defined(__x86_64__) || defined(__i386__)
      return __builtin_cpu_supports("avx512f") != 0;
#else
      return false;
#endif
  }
  return false;
}

// Publish the tables for `isa` (caller holds g_select_mutex and has
// checked isa_supported). The release stores pair with the acquire loads
// of the lock-free fast path (simd.hpp kernels<T>()), so a thread that
// sees a table pointer also sees the table's entries.
void publish(Isa isa) {
  detail::table_f64.store(&kernels_f64(isa), std::memory_order_release);
  detail::table_f32.store(&kernels_f32(isa), std::memory_order_release);
  g_active = isa;
}

// First-use resolution: PQR_KERNEL_ISA if set and valid, else detection.
// Bad env values warn and fall back rather than abort — the env path has
// no good place to report errors, unlike `pqr --kernel-isa`.
void resolve_locked() {
  if (detail::table_f64.load(std::memory_order_acquire) != nullptr) return;
  Isa choice = detect_isa();
  if (const char* env = std::getenv("PQR_KERNEL_ISA")) {
    Isa parsed;
    if (!parse_isa(env, &parsed)) {
      std::fprintf(stderr,
                   "pulsarqr: ignoring unknown PQR_KERNEL_ISA=%s "
                   "(auto|avx512|avx2|scalar)\n",
                   env);
    } else if (!isa_supported(parsed)) {
      std::fprintf(stderr,
                   "pulsarqr: PQR_KERNEL_ISA=%s not usable on this host "
                   "(compiled=%d, cpu=%d); using %s\n",
                   env, isa_compiled(parsed) ? 1 : 0, cpu_has(parsed) ? 1 : 0,
                   isa_name(choice));
    } else {
      choice = parsed;
    }
  }
  publish(choice);
}

}  // namespace

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::Scalar:
      return "scalar";
    case Isa::Avx2:
      return "avx2";
    case Isa::Avx512:
      return "avx512";
  }
  return "?";
}

bool isa_compiled(Isa isa) {
  switch (isa) {
    case Isa::Scalar:
      return true;
    case Isa::Avx2:
#if defined(PQR_HAVE_KERNELS_AVX2)
      return true;
#else
      return false;
#endif
    case Isa::Avx512:
#if defined(PQR_HAVE_KERNELS_AVX512)
      return true;
#else
      return false;
#endif
  }
  return false;
}

bool isa_supported(Isa isa) { return isa_compiled(isa) && cpu_has(isa); }

Isa detect_isa() {
  for (Isa isa : {Isa::Avx512, Isa::Avx2}) {
    if (isa_supported(isa)) return isa;
  }
  return Isa::Scalar;
}

Isa active_isa() {
  std::lock_guard<std::mutex> lock(g_select_mutex);
  resolve_locked();
  return g_active;
}

bool set_isa(Isa isa) {
  if (!isa_supported(isa)) return false;
  std::lock_guard<std::mutex> lock(g_select_mutex);
  publish(isa);
  return true;
}

void set_isa_auto() {
  std::lock_guard<std::mutex> lock(g_select_mutex);
  publish(detect_isa());
}

bool parse_isa(std::string_view name, Isa* out) {
  if (name == "auto") {
    *out = detect_isa();
    return true;
  }
  for (Isa isa : {Isa::Scalar, Isa::Avx2, Isa::Avx512}) {
    if (name == isa_name(isa)) {
      *out = isa;
      return true;
    }
  }
  return false;
}

namespace detail {

const KernelTable<double>* resolve_f64() {
  std::lock_guard<std::mutex> lock(g_select_mutex);
  resolve_locked();
  return table_f64.load(std::memory_order_acquire);
}

const KernelTable<float>* resolve_f32() {
  std::lock_guard<std::mutex> lock(g_select_mutex);
  resolve_locked();
  return table_f32.load(std::memory_order_acquire);
}

}  // namespace detail

const KernelTable<double>& kernels_f64(Isa isa) {
  switch (isa) {
#if defined(PQR_HAVE_KERNELS_AVX2)
    case Isa::Avx2:
      return avx2_table_f64();
#endif
#if defined(PQR_HAVE_KERNELS_AVX512)
    case Isa::Avx512:
      return avx512_table_f64();
#endif
    default:
      return scalar_table_f64();
  }
}

const KernelTable<float>& kernels_f32(Isa isa) {
  switch (isa) {
#if defined(PQR_HAVE_KERNELS_AVX2)
    case Isa::Avx2:
      return avx2_table_f32();
#endif
#if defined(PQR_HAVE_KERNELS_AVX512)
    case Isa::Avx512:
      return avx512_table_f32();
#endif
    default:
      return scalar_table_f32();
  }
}

}  // namespace pulsarqr::blas::simd
