// Word kernels for the GF(2) layer: the popcount reductions of the CNOT
// cost model, over raw 64-bit word spans (BitVec exposes its storage via
// word_data()/word_count()).
//
// All callers rely on the BitVec tail invariant -- bits >= size() in the
// final word are always zero -- so reductions read whole words with no tail
// masking.
//
// These are plain word loops on purpose. Every Table-1 molecule fits in at
// most 16 qubits, so the operands the cost model prices are one word long:
// a vector path would only add a dispatch branch and an out-of-line call
// around the same scalar word op.
#pragma once

#include <cstddef>
#include <cstdint>

namespace femto::gf2::wordops {

/// popcount(a & b).
[[nodiscard]] inline std::size_t and_popcount(const std::uint64_t* a,
                                              const std::uint64_t* b,
                                              std::size_t nw) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < nw; ++i)
    count += static_cast<std::size_t>(__builtin_popcountll(a[i] & b[i]));
  return count;
}

/// popcount(a | b): support weight of a symplectic (x, z) pair.
[[nodiscard]] inline std::size_t or_popcount(const std::uint64_t* a,
                                             const std::uint64_t* b,
                                             std::size_t nw) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < nw; ++i)
    count += static_cast<std::size_t>(__builtin_popcountll(a[i] | b[i]));
  return count;
}

/// The fused reduction behind interface_saving / best_shared_target_saving:
/// per wire (bit), "common" counts support overlap of two symplectic pairs,
/// "equal" the equal-letter subset, and has_xy flags any X/Y collision.
struct SupportCounts {
  int common = 0;
  int equal = 0;
  bool has_xy = false;
};

[[nodiscard]] inline SupportCounts support_counts(const std::uint64_t* x1,
                                                  const std::uint64_t* z1,
                                                  const std::uint64_t* x2,
                                                  const std::uint64_t* z2,
                                                  std::size_t nw) {
  SupportCounts out;
  std::uint64_t xy = 0;
  for (std::size_t w = 0; w < nw; ++w) {
    const std::uint64_t common = (x1[w] | z1[w]) & (x2[w] | z2[w]);
    out.common += __builtin_popcountll(common);
    out.equal +=
        __builtin_popcountll(common & ~(x1[w] ^ x2[w]) & ~(z1[w] ^ z2[w]));
    xy |= x1[w] & x2[w] & (z1[w] ^ z2[w]);
  }
  out.has_xy = xy != 0;
  return out;
}

}  // namespace femto::gf2::wordops
