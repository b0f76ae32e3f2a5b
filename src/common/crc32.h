// IEEE CRC-32 (reflected, poly 0xEDB88320), table-driven: one lookup per
// byte. The one checksum of the simulator: snapshot envelopes, the sweep's
// cell digest and the NI end-to-end payload checks all call it.
#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace disco {

namespace detail {

constexpr std::array<std::uint32_t, 256> make_crc32_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t n = 0; n < 256; ++n) {
    std::uint32_t c = n;
    for (int k = 0; k < 8; ++k) c = (c & 1U) ? 0xEDB88320U ^ (c >> 1) : c >> 1;
    table[n] = c;
  }
  return table;
}

inline constexpr std::array<std::uint32_t, 256> kCrc32Table = make_crc32_table();

}  // namespace detail

inline std::uint32_t crc32(std::span<const std::uint8_t> bytes) {
  std::uint32_t c = 0xFFFFFFFFU;
  for (const std::uint8_t b : bytes)
    c = detail::kCrc32Table[(c ^ b) & 0xFFU] ^ (c >> 8);
  return c ^ 0xFFFFFFFFU;
}

}  // namespace disco
