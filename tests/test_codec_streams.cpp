// Byte-level pins for the bit-packed codecs and the bit stream under them.
//
// FrozenStreams encodes a fixed corpus with every registered algorithm and
// compares one checksum per algorithm against recorded constants, so any
// change to a codec or the packer that alters a single encoded byte fails
// here. The golden traces pin only delta.
//
// The differential tests run BitWriter/BitReader against a one-bit-at-a-time
// reference kept below.
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "compress/bitstream.h"
#include "compress/registry.h"
#include "compress/sc2.h"
#include "workload/value_synth.h"

namespace disco::compress {
namespace {

// --- reference per-bit stream ------------------------------------------------

class RefBitWriter {
 public:
  void put(std::uint64_t value, unsigned nbits) {
    for (unsigned i = nbits; i-- > 0;) put_bit((value >> i) & 1ULL);
  }
  void put_bit(bool bit) {
    if (bit_pos_ == 0) bytes_.push_back(0);
    if (bit) bytes_.back() |= static_cast<std::uint8_t>(1U << (7 - bit_pos_));
    bit_pos_ = (bit_pos_ + 1) & 7;
  }
  std::size_t bit_count() const {
    return bytes_.empty() ? 0 : (bytes_.size() - 1) * 8 + (bit_pos_ == 0 ? 8 : bit_pos_);
  }
  const std::vector<std::uint8_t>& bytes() const { return bytes_; }

 private:
  std::vector<std::uint8_t> bytes_;
  unsigned bit_pos_ = 0;
};

class RefBitReader {
 public:
  explicit RefBitReader(std::span<const std::uint8_t> data) : data_(data) {}
  bool get_bit() {
    if (pos_ / 8 >= data_.size()) throw DecodeError("bit stream truncated");
    const bool bit = (data_[pos_ / 8] >> (7 - (pos_ & 7))) & 1U;
    ++pos_;
    return bit;
  }
  std::uint64_t get(unsigned nbits) {
    std::uint64_t v = 0;
    for (unsigned i = 0; i < nbits; ++i) v = (v << 1) | (get_bit() ? 1ULL : 0ULL);
    return v;
  }
  std::size_t bits_consumed() const { return pos_; }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

unsigned random_width(Rng& rng) { return static_cast<unsigned>(rng.next_below(65)); }

TEST(BitstreamDifferential, WriterMatchesPerBitReference) {
  Rng rng(0xB17B17);
  for (int trial = 0; trial < 400; ++trial) {
    const bool tagged = trial % 2 == 1;
    const auto tag = static_cast<std::uint8_t>(rng.next_below(256));
    BitWriter bw = tagged ? BitWriter(tag) : BitWriter();
    RefBitWriter ref;
    if (tagged) ref.put(tag, 8);
    const auto ops = rng.next_below(80);
    for (std::uint64_t op = 0; op < ops; ++op) {
      if (rng.next_below(8) == 0) {
        const bool bit = rng.next_below(2) == 1;
        bw.put_bit(bit);
        ref.put_bit(bit);
      } else {
        // Full-width random values: bits above nbits must be ignored.
        const std::uint64_t value = rng.next_u64();
        const unsigned nbits = random_width(rng);
        bw.put(value, nbits);
        ref.put(value, nbits);
      }
      ASSERT_EQ(bw.bit_count(), ref.bit_count()) << "trial " << trial << " op " << op;
      ASSERT_EQ(bw.bytes(), ref.bytes()) << "trial " << trial << " op " << op;
    }
    ASSERT_EQ(bw.take(), ref.bytes()) << "trial " << trial;
  }
}

TEST(BitstreamDifferential, ReaderMatchesPerBitReferenceAndTruncatesOnTheSameGet) {
  Rng rng(0x4EAD);
  for (int trial = 0; trial < 400; ++trial) {
    std::vector<std::uint8_t> data(rng.next_below(40));
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_below(256));
    const std::span<const std::uint8_t> span(data);
    BitReader br(span);
    RefBitReader ref(span);
    for (int call = 0;; ++call) {
      const bool single = rng.next_below(8) == 0;
      const unsigned nbits = single ? 1 : random_width(rng);
      std::uint64_t want = 0;
      bool ref_threw = false;
      try {
        want = single ? ref.get_bit() : ref.get(nbits);
      } catch (const DecodeError&) {
        ref_threw = true;
      }
      if (ref_threw) {
        if (single) {
          EXPECT_THROW(br.get_bit(), DecodeError) << "trial " << trial << " call " << call;
        } else {
          EXPECT_THROW(br.get(nbits), DecodeError) << "trial " << trial << " call " << call;
        }
        break;
      }
      const std::uint64_t got = single ? br.get_bit() : br.get(nbits);
      ASSERT_EQ(got, want) << "trial " << trial << " call " << call << " nbits " << nbits;
      ASSERT_EQ(br.bits_consumed(), ref.bits_consumed());
      ASSERT_EQ(br.exhausted(), ref.bits_consumed() >= data.size() * 8);
    }
  }
}

TEST(BitstreamDifferential, TaggedWriterReturnsTheFinishedStream) {
  BitWriter bw(0x5A);
  EXPECT_EQ(bw.bit_count(), 8u);
  bw.put(0b101, 3);
  EXPECT_EQ(bw.take(), (std::vector<std::uint8_t>{0x5A, 0xA0}));
}

// --- frozen codec output -------------------------------------------------------

std::vector<BlockBytes> frozen_corpus() {
  std::vector<BlockBytes> corpus;
  workload::ValueMix mix;
  mix.zero = 0.1;
  mix.narrow = 0.2;
  mix.low_delta = 0.2;
  mix.pointer = 0.2;
  mix.fp = 0.2;
  mix.random = 0.1;
  const workload::ValueSynthesizer synth(mix, 0xF202E4ULL);
  for (Addr a = 0; a < 512; ++a) corpus.push_back(synth.block_for(a * kBlockBytes));

  BlockBytes b{};
  corpus.push_back(b);  // all zero
  b.fill(0xFF);
  corpus.push_back(b);  // all ones
  for (std::size_t i = 0; i < kBlockBytes; ++i) b[i] = (i % 2) ? 0x55 : 0xAA;
  corpus.push_back(b);  // alternating bits
  Rng rng(0x1AC0);
  for (int n = 0; n < 8; ++n) {  // incompressible
    for (auto& byte : b) byte = static_cast<std::uint8_t>(rng.next_below(256));
    corpus.push_back(b);
  }
  return corpus;
}

/// FNV-1a over every block's encoded size, framing overhead and bytes.
std::uint64_t stream_checksum(const Algorithm& algo,
                              const std::vector<BlockBytes>& corpus) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  const auto mix = [&h](std::uint64_t byte) {
    h = (h ^ byte) * 0x100000001B3ULL;
  };
  for (const BlockBytes& block : corpus) {
    const Encoded e = algo.compress(block);
    mix(e.bytes.size());
    mix(e.overhead_bytes);
    for (const std::uint8_t byte : e.bytes) mix(byte);
  }
  return h;
}

struct Frozen {
  const char* algorithm;
  std::uint64_t checksum;
};

// Recorded with a one-bit-at-a-time BitWriter. A codec change that is meant
// to alter its output updates its row here, and says so.
constexpr Frozen kFrozen[] = {
    {"fpc", 0x780E6040B0D156B1ULL},
    {"sfpc", 0x6136516F3AC38B9ULL},
    {"bdi", 0x8FF95EEEB90B9546ULL},
    {"sc2", 0xCE605789C911C591ULL},
    {"cpack", 0xD6A551BE037907FAULL},
    {"delta", 0x7DEFD0F2A8C30482ULL},
    {"fvc", 0x85A58CA61E3FCF1CULL},
    {"zerobit", 0xAC86C1437DA788E0ULL},
    {"sc2-trained", 0xD55C7C2C52E26EB6ULL},
};

TEST(FrozenStreams, EveryAlgorithmEncodesTheCorpusByteForByte) {
  const auto corpus = frozen_corpus();
  std::vector<std::string> covered;
  for (const Frozen& f : kFrozen) {
    const std::string name = f.algorithm;
    std::uint64_t got;
    if (name == "sc2-trained") {
      // Deeper Huffman codes than the generic corpus gives.
      got = stream_checksum(Sc2Algorithm(std::span<const BlockBytes>(corpus)), corpus);
    } else {
      got = stream_checksum(*make_algorithm(name), corpus);
      covered.push_back(name);
    }
    EXPECT_EQ(got, f.checksum) << name << ": 0x" << std::hex << got;
  }
  EXPECT_EQ(covered, algorithm_names()) << "pin every registered algorithm";
}

}  // namespace
}  // namespace disco::compress
