// Little-endian integer packing, shared by the binary formats: the circuit
// payload codec (service/protocol.hpp) and the .fdb container
// (db/database.hpp).
#pragma once

#include <cstdint>
#include <string>

namespace femto {

/// Appends the low `bytes` bytes of `v`, least significant first.
inline void append_le(std::string& out, std::uint64_t v, int bytes) {
  for (int byte = 0; byte < bytes; ++byte)
    out.push_back(static_cast<char>((v >> (8 * byte)) & 0xff));
}

/// Reads `bytes` bytes at `p` as a little-endian unsigned integer.
[[nodiscard]] inline std::uint64_t read_le(const unsigned char* p,
                                           int bytes) {
  std::uint64_t v = 0;
  for (int byte = 0; byte < bytes; ++byte)
    v |= static_cast<std::uint64_t>(p[byte]) << (8 * byte);
  return v;
}

}  // namespace femto
