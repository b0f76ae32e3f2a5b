// IEEE CRC-32 (reflected, poly 0xEDB88320), slicing-by-8: eight constexpr
// tables fold eight input bytes per step, and a one-table loop takes the
// tail. The one checksum of the simulator: snapshot envelopes, the sweep's
// cell digest and the NI end-to-end payload checks all call it.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

namespace disco {

namespace detail {

using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

/// Table k maps a byte to its CRC contribution when k more zero bytes
/// follow it, so eight bytes fold in one step of eight lookups.
constexpr Crc32Tables make_crc32_tables() {
  Crc32Tables t{};
  for (std::uint32_t n = 0; n < 256; ++n) {
    std::uint32_t c = n;
    for (int k = 0; k < 8; ++k) c = (c & 1U) ? 0xEDB88320U ^ (c >> 1) : c >> 1;
    t[0][n] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k)
    for (std::uint32_t n = 0; n < 256; ++n)
      t[k][n] = (t[k - 1][n] >> 8) ^ t[0][t[k - 1][n] & 0xFFU];
  return t;
}

inline constexpr Crc32Tables kCrc32Tables = make_crc32_tables();

/// Little-endian 32-bit load at any alignment (compilers emit one load).
inline std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace detail

/// CRC-32 of `bytes`. Pass the CRC of the bytes before them as `crc` to
/// checksum a buffer in pieces: crc32(b, crc32(a)) == crc32(a ++ b).
inline std::uint32_t crc32(std::span<const std::uint8_t> bytes,
                           std::uint32_t crc = 0) {
  const auto& t = detail::kCrc32Tables;
  std::uint32_t c = ~crc;
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = c ^ detail::load_le32(p);
    const std::uint32_t hi = detail::load_le32(p + 4);
    c = t[7][lo & 0xFFU] ^ t[6][(lo >> 8) & 0xFFU] ^ t[5][(lo >> 16) & 0xFFU] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFFU] ^ t[2][(hi >> 8) & 0xFFU] ^
        t[1][(hi >> 16) & 0xFFU] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xFFU] ^ (c >> 8);
  return ~c;
}

}  // namespace disco
