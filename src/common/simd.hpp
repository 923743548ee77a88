// Runtime SIMD dispatch for the hand-vectorized kernels. Its users:
//
//   opt/gtsp.hpp       -- the GTSP GA's value-only cluster DP (four double
//                         lanes);
//   core/sorting.hpp   -- the Held-Karp fill (eight int lanes).
//
// Two levels, both compiled into every x86-64 binary via function target
// attributes (no special -march flags needed):
//
//   kPortable -- plain C++ loops, the reference semantics. Always available.
//   kAvx2     -- 256-bit integer/double lanes (requires AVX2).
//
// The active level is resolved once: the FEMTO_SIMD environment variable
// ("portable" | "avx2" | "auto"), clamped to what the CPU actually
// supports, defaulting to the best supported level. Tests and benches
// switch levels in-process with set_level() (also clamped), which is how
// the SIMD-vs-portable bit-identity property tests iterate every level on
// one machine.
//
// Contract: both kernel families produce BIT-IDENTICAL results at every
// level. The lanes reorder work across elements only -- each element sees
// the same operations in the same order as the portable loop.
#pragma once

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "obs/metrics.hpp"

// Hand-vectorized paths need x86-64 plus GCC/Clang function multiversioning
// via __attribute__((target(...))). Elsewhere (or under other compilers)
// only the portable level exists and dispatch collapses to it.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define FEMTO_SIMD_X86 1
#else
#define FEMTO_SIMD_X86 0
#endif

namespace femto::simd {

enum class Level : int { kPortable = 0, kAvx2 = 1 };

inline const char* to_string(Level l) {
  return l == Level::kAvx2 ? "avx2" : "portable";
}

/// Best level this CPU can execute (queried once, cached).
inline Level max_supported() {
#if FEMTO_SIMD_X86
  static const Level cached = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") ? Level::kAvx2 : Level::kPortable;
  }();
  return cached;
#else
  return Level::kPortable;
#endif
}

namespace detail {

/// Parse a FEMTO_SIMD value; unset and "auto" mean "best". An unknown
/// value also means "best" (so a daemon still boots), but says so on stderr:
/// a misspelled "portable" would otherwise run the best level unnoticed.
inline Level parse_level(const char* s, Level best) {
  if (s == nullptr || std::strcmp(s, "auto") == 0) return best;
  if (std::strcmp(s, "portable") == 0 || std::strcmp(s, "scalar") == 0 ||
      std::strcmp(s, "0") == 0) {
    return Level::kPortable;
  }
  if (std::strcmp(s, "avx2") == 0 || std::strcmp(s, "1") == 0) {
    return Level::kAvx2;
  }
  std::fprintf(stderr,
               "femto: FEMTO_SIMD=\"%s\" names no level (accepted: portable, "
               "scalar, 0, avx2, 1, auto); using %s\n",
               s, to_string(best));
  return best;
}

inline Level clamp(Level l) {
  return static_cast<int>(l) > static_cast<int>(max_supported())
             ? max_supported()
             : l;
}

// The gauge lets femtod `metrics` report which kernel path production
// traffic actually takes (0 = portable, 1 = avx2).
inline void publish_level(Level l) {
  obs::registry().gauge("sim.simd_level").set(static_cast<std::int64_t>(l));
}

inline std::atomic<int>& level_slot() {
  static std::atomic<int> slot = [] {
    Level l = clamp(parse_level(std::getenv("FEMTO_SIMD"), max_supported()));
    publish_level(l);
    return static_cast<int>(l);
  }();
  return slot;
}

}  // namespace detail

/// Active dispatch level. Resolved once from FEMTO_SIMD (clamped to CPU
/// support); cheap enough to call per kernel invocation.
inline Level level() {
  return static_cast<Level>(
      detail::level_slot().load(std::memory_order_relaxed));
}

/// Override the active level in-process (clamped to CPU support). Returns
/// the level actually installed. Used by the equivalence tests and the
/// simd-vs-portable bench ratio.
inline Level set_level(Level l) {
  Level installed = detail::clamp(l);
  detail::level_slot().store(static_cast<int>(installed),
                             std::memory_order_relaxed);
  detail::publish_level(installed);
  return installed;
}

}  // namespace femto::simd
