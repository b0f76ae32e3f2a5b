// Minimal MSB-first bit stream reader/writer used by the bit-granular
// algorithms (FPC, SFPC, C-Pack, SC², FVC, zero-bit). Encoded sizes are
// rounded up to whole bytes, matching how a hardware packer would pad the
// last flit fragment. Both sides move whole bytes, not single bits: the
// writer shifts each value into a 64-bit accumulator and flushes complete
// bytes, the reader takes up to 8 bits per step from the current byte.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "compress/decode_error.h"

namespace disco::compress {

class BitWriter {
 public:
  BitWriter() { bytes_.reserve(kReserveBytes); }
  /// Start the stream with a whole tag byte, so take() returns the finished
  /// tagged stream. Same as put(tag, 8) on an empty writer.
  explicit BitWriter(std::uint8_t tag) : BitWriter() { bytes_.push_back(tag); }

  /// Append the low `nbits` of `value`, MSB first.
  void put(std::uint64_t value, unsigned nbits) {
    assert(nbits <= 64);
    if (nbits > 32) {
      put_narrow(value >> 32, nbits - 32);
      nbits = 32;
    }
    put_narrow(value, nbits);
  }

  void put_bit(bool bit) { put_narrow(bit ? 1 : 0, 1); }

  std::size_t bit_count() const { return bytes_.size() * 8 + pending_; }

  /// The stream so far, the last partial byte zero-padded.
  std::vector<std::uint8_t> bytes() const {
    std::vector<std::uint8_t> out = bytes_;
    if (pending_ > 0) out.push_back(partial_byte());
    return out;
  }

  std::vector<std::uint8_t> take() {
    if (pending_ > 0) bytes_.push_back(partial_byte());
    pending_ = 0;
    return std::move(bytes_);
  }

 private:
  /// Room for a tag byte plus a 64-byte block's stream, so a codec's encode
  /// allocates once; longer streams grow the buffer as usual.
  static constexpr std::size_t kReserveBytes = 72;

  std::vector<std::uint8_t> bytes_;  ///< complete bytes
  std::uint64_t acc_ = 0;            ///< low `pending_` bits are not yet flushed
  unsigned pending_ = 0;             ///< always < 8 between calls

  /// nbits <= 32, so the accumulator holds at most 7 + 32 live bits. Bits
  /// above them are stale and only ever shift out of the top.
  void put_narrow(std::uint64_t value, unsigned nbits) {
    acc_ = (acc_ << nbits) | (value & ((std::uint64_t{1} << nbits) - 1));
    pending_ += nbits;
    while (pending_ >= 8) {
      pending_ -= 8;
      bytes_.push_back(static_cast<std::uint8_t>(acc_ >> pending_));
    }
  }

  std::uint8_t partial_byte() const {
    return static_cast<std::uint8_t>(acc_ << (8 - pending_));
  }
};

class BitReader {
 public:
  explicit BitReader(std::span<const std::uint8_t> data) : data_(data) {}

  bool get_bit() {
    if (pos_ / 8 >= data_.size()) throw DecodeError("bit stream truncated");
    const std::uint8_t byte = data_[pos_ / 8];
    const bool bit = (byte >> (7 - (pos_ & 7))) & 1U;
    ++pos_;
    return bit;
  }

  std::uint64_t get(unsigned nbits) {
    assert(nbits <= 64);
    if (nbits > data_.size() * 8 - pos_) throw DecodeError("bit stream truncated");
    std::uint64_t v = 0;
    while (nbits > 0) {
      const unsigned offset = pos_ & 7;
      const unsigned step = std::min(8 - offset, nbits);
      const unsigned byte = data_[pos_ / 8];
      v = (v << step) | ((byte >> (8 - offset - step)) & ((1U << step) - 1));
      pos_ += step;
      nbits -= step;
    }
    return v;
  }

  std::size_t bits_consumed() const { return pos_; }
  bool exhausted() const { return pos_ >= data_.size() * 8; }

  /// Bit-packed streams round up to whole bytes, so a well-formed stream
  /// leaves at most 7 padding bits. Called by decoders after the final
  /// symbol to reject overlong streams.
  void expect_no_trailing_bytes() const {
    if ((pos_ + 7) / 8 != data_.size()) throw DecodeError("overlong bit stream");
  }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace disco::compress
