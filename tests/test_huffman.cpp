// Unit tests for the canonical Huffman coder underlying SC².
#include <gtest/gtest.h>

#include "common/rng.h"
#include "compress/huffman.h"
#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace disco::compress {
namespace {

TEST(Huffman, TwoSymbolAlphabet) {
  HuffmanCode code = HuffmanCode::build({10, 90});
  EXPECT_EQ(code.code(0).length, 1);
  EXPECT_EQ(code.code(1).length, 1);

  BitWriter bw;
  code.encode(bw, 0);
  code.encode(bw, 1);
  code.encode(bw, 1);
  const auto bytes = bw.bytes();
  BitReader br{std::span<const std::uint8_t>(bytes)};
  EXPECT_EQ(code.decode(br), 0u);
  EXPECT_EQ(code.decode(br), 1u);
  EXPECT_EQ(code.decode(br), 1u);
}

TEST(Huffman, SingleSymbolGetsOneBit) {
  HuffmanCode code = HuffmanCode::build({0, 5, 0});
  EXPECT_FALSE(code.has_code(0));
  EXPECT_TRUE(code.has_code(1));
  EXPECT_EQ(code.code(1).length, 1);
}

TEST(Huffman, FrequentSymbolsGetShorterCodes) {
  HuffmanCode code = HuffmanCode::build({1000, 10, 10, 10, 1, 1});
  EXPECT_LE(code.code(0).length, code.code(1).length);
  EXPECT_LE(code.code(1).length, code.code(4).length);
}

TEST(Huffman, RoundTripSkewedDistribution) {
  std::vector<std::uint64_t> freqs(64);
  for (std::size_t i = 0; i < freqs.size(); ++i) freqs[i] = 1 + (i * i * 7) % 1000;
  HuffmanCode code = HuffmanCode::build(freqs);

  Rng rng(5);
  std::vector<std::size_t> symbols;
  BitWriter bw;
  for (int i = 0; i < 2000; ++i) {
    const std::size_t s = rng.next_below(freqs.size());
    symbols.push_back(s);
    code.encode(bw, s);
  }
  const auto bytes = bw.bytes();
  BitReader br{std::span<const std::uint8_t>(bytes)};
  for (const std::size_t expected : symbols) EXPECT_EQ(code.decode(br), expected);
}

TEST(Huffman, KraftInequalityHolds) {
  std::vector<std::uint64_t> freqs(256);
  Rng rng(77);
  for (auto& f : freqs) f = 1 + rng.next_below(10000);
  HuffmanCode code = HuffmanCode::build(freqs);
  long double kraft = 0;
  for (std::size_t s = 0; s < freqs.size(); ++s) {
    ASSERT_TRUE(code.has_code(s));
    kraft += std::pow(2.0L, -static_cast<long double>(code.code(s).length));
  }
  EXPECT_NEAR(static_cast<double>(kraft), 1.0, 1e-9)
      << "a Huffman code is a complete prefix code";
}

TEST(Huffman, CodesArePrefixFree) {
  std::vector<std::uint64_t> freqs = {50, 20, 10, 10, 5, 3, 1, 1};
  HuffmanCode code = HuffmanCode::build(freqs);
  for (std::size_t a = 0; a < freqs.size(); ++a) {
    for (std::size_t b = 0; b < freqs.size(); ++b) {
      if (a == b) continue;
      const auto& ca = code.code(a);
      const auto& cb = code.code(b);
      if (ca.length > cb.length) continue;
      const std::uint64_t prefix = cb.bits >> (cb.length - ca.length);
      EXPECT_FALSE(prefix == ca.bits && ca.length <= cb.length && a != b &&
                   ca.length == cb.length)
          << "equal-length duplicate code";
      if (ca.length < cb.length) {
        EXPECT_NE(prefix, ca.bits) << "code " << a << " prefixes code " << b;
      }
    }
  }
}

/// Fibonacci frequencies build a fully skewed tree: n symbols get code
/// lengths 1, 2, ..., n-1, n-1.
std::vector<std::uint64_t> fibonacci_freqs(std::size_t n) {
  std::vector<std::uint64_t> freqs{1, 1};
  while (freqs.size() < n) freqs.push_back(freqs[freqs.size() - 1] + freqs[freqs.size() - 2]);
  return freqs;
}

TEST(Huffman, CodesLongerThan64BitsAreRejected) {
  EXPECT_THROW(HuffmanCode::build(fibonacci_freqs(80)), std::invalid_argument);
  EXPECT_THROW(HuffmanCode::build(fibonacci_freqs(66)), std::invalid_argument);
}

TEST(Huffman, SixtyFourBitCodesRoundTrip) {
  const auto freqs = fibonacci_freqs(65);
  const HuffmanCode code = HuffmanCode::build(freqs);
  std::uint8_t longest = 0;
  BitWriter bw;
  for (std::size_t s = 0; s < freqs.size(); ++s) {
    longest = std::max(longest, code.code(s).length);
    code.encode(bw, s);
  }
  EXPECT_EQ(longest, 64);
  const auto bytes = bw.bytes();
  BitReader br{std::span<const std::uint8_t>(bytes)};
  for (std::size_t s = 0; s < freqs.size(); ++s) EXPECT_EQ(code.decode(br), s);
}

TEST(Bitstream, WriterReaderAgreeOnOddWidths) {
  BitWriter bw;
  bw.put(0b101, 3);
  bw.put(0x7FFF, 15);
  bw.put(1, 1);
  bw.put(0xDEADBEEFCAFEBABEULL, 64);
  const auto bytes = bw.bytes();
  BitReader br{std::span<const std::uint8_t>(bytes)};
  EXPECT_EQ(br.get(3), 0b101u);
  EXPECT_EQ(br.get(15), 0x7FFFu);
  EXPECT_EQ(br.get(1), 1u);
  EXPECT_EQ(br.get(64), 0xDEADBEEFCAFEBABEULL);
}

TEST(Bitstream, BitCountTracksExactly) {
  BitWriter bw;
  EXPECT_EQ(bw.bit_count(), 0u);
  bw.put_bit(true);
  EXPECT_EQ(bw.bit_count(), 1u);
  bw.put(0, 12);
  EXPECT_EQ(bw.bit_count(), 13u);
}

}  // namespace
}  // namespace disco::compress
