// SIMD dispatch levels for the bit-identity tests: a test iterates
// levels() and switches with simd::set_level, so one host proves every
// level it can run against the portable reference.
#pragma once

#include <vector>

#include "common/simd.hpp"

namespace femto {

/// Levels this host can actually run (portable always; AVX2 if the CPU has
/// it). Restores the entry level on destruction.
class LevelSession {
 public:
  LevelSession() : entry_(simd::level()) {
    levels_.push_back(simd::Level::kPortable);
    if (simd::set_level(simd::Level::kAvx2) == simd::Level::kAvx2)
      levels_.push_back(simd::Level::kAvx2);
    (void)simd::set_level(entry_);
  }
  ~LevelSession() { (void)simd::set_level(entry_); }
  LevelSession(const LevelSession&) = delete;
  LevelSession& operator=(const LevelSession&) = delete;

  [[nodiscard]] const std::vector<simd::Level>& levels() const {
    return levels_;
  }

 private:
  simd::Level entry_;
  std::vector<simd::Level> levels_;
};

}  // namespace femto
