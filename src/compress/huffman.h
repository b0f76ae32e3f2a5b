// Canonical Huffman coding over a bounded symbol alphabet, used by the SC²
// statistical compressor. Codes are derived from symbol frequencies with the
// package-merge-free classic algorithm; canonical assignment makes encoder
// and decoder tables reproducible from code lengths alone.
#pragma once

#include <cstdint>
#include <vector>

#include "compress/bitstream.h"

namespace disco::compress {

struct HuffCode {
  std::uint64_t bits = 0;
  std::uint8_t length = 0;
};

class HuffmanCode {
 public:
  /// Build from per-symbol frequencies (size = alphabet size). Symbols with
  /// zero frequency get no code; encoding them is a caller bug. Throws
  /// std::invalid_argument when a code would exceed 64 bits (only very
  /// skewed, e.g. Fibonacci-like, frequencies get there).
  static HuffmanCode build(const std::vector<std::uint64_t>& freqs);

  std::size_t alphabet_size() const { return codes_.size(); }
  const HuffCode& code(std::size_t symbol) const { return codes_[symbol]; }
  bool has_code(std::size_t symbol) const { return codes_[symbol].length > 0; }

  void encode(BitWriter& bw, std::size_t symbol) const;
  /// Decode one symbol by walking the canonical table.
  std::size_t decode(BitReader& br) const;

 private:
  std::vector<HuffCode> codes_;
  // Canonical decode tables indexed by code length (1..max).
  std::vector<std::uint64_t> first_code_;    ///< first canonical code of each length
  std::vector<std::uint32_t> first_index_;   ///< index into sorted_symbols_
  std::vector<std::uint32_t> count_;         ///< number of codes of each length
  std::vector<std::uint32_t> sorted_symbols_;
  std::uint8_t max_len_ = 0;

  void build_decode_tables();
};

}  // namespace disco::compress
