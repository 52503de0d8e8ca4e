// ThreadSanitizer happens-before annotation layer.
//
// The SPSC channel's lock-free node handoff (payload publication through
// the `next` release-store, node recycling through the `head_`
// release-store) already carries the happens-before edges TSan needs
// through its acquire/release atomics. These macros restate those edges
// explicitly, for two reasons:
//
//   * documentation — the PULSARQR_TSAN_RELEASE/ACQUIRE pair at a handoff
//     names the exact address whose ownership crosses threads, which is
//     the invariant a reader (or a future refactor) must preserve;
//   * robustness — if an ordering is ever weakened to a fence-based
//     scheme (std::atomic_thread_fence is invisible to TSan), the
//     annotations keep the sanitizer's model sound instead of flooding
//     every test with false positives.
//
// Each annotation restates an edge the synchronization already creates;
// none invents one, so they can never mask a real race elsewhere. They
// compile to nothing unless PULSARQR_TSAN is defined (the CMake
// -DPULSARQR_SANITIZE=thread build defines it) and the TSan interface
// header is available.
#pragma once

#if defined(PULSARQR_TSAN) && defined(__has_include)
#if __has_include(<sanitizer/tsan_interface.h>)
#include <sanitizer/tsan_interface.h>
#define PULSARQR_TSAN_ACTIVE 1
#endif
#endif

#ifdef PULSARQR_TSAN_ACTIVE
/// The current thread releases ownership of the memory reachable from
/// `addr`: everything it wrote there is published to whichever thread
/// next acquires the same address.
#define PULSARQR_TSAN_RELEASE(addr) __tsan_release((void*)(addr))
/// The current thread acquires ownership of the memory reachable from
/// `addr`, pairing with the prior PULSARQR_TSAN_RELEASE on that address.
#define PULSARQR_TSAN_ACQUIRE(addr) __tsan_acquire((void*)(addr))
#else
#define PULSARQR_TSAN_RELEASE(addr) ((void)(addr))
#define PULSARQR_TSAN_ACQUIRE(addr) ((void)(addr))
#endif
