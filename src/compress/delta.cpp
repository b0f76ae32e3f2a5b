#include "compress/delta.h"

#include <cstring>

namespace disco::compress {
namespace {

constexpr std::uint8_t kZeroTag = 0xFE;

std::uint64_t read_flit(const BlockBytes& b, std::size_t i) {
  std::uint64_t v;
  std::memcpy(&v, b.data() + i * kFlitBytes, sizeof(v));
  return v;
}

void write_flit(BlockBytes& b, std::size_t i, std::uint64_t v) {
  std::memcpy(b.data() + i * kFlitBytes, &v, sizeof(v));
}

/// Does the signed difference fit into `ds` bytes?
bool fits(std::int64_t delta, unsigned ds) {
  const std::int64_t lo = -(1LL << (8 * ds - 1));
  const std::int64_t hi = (1LL << (8 * ds - 1)) - 1;
  return delta >= lo && delta <= hi;
}

}  // namespace

Encoded DeltaAlgorithm::compress(const BlockBytes& block) const {
  std::uint64_t flits[kWordsPerBlock];
  bool all_zero = true;
  for (std::size_t i = 0; i < kWordsPerBlock; ++i) {
    flits[i] = read_flit(block, i);
    all_zero = all_zero && flits[i] == 0;
  }
  if (all_zero) return Encoded{{kZeroTag}};

  const std::uint64_t base = flits[0];
  for (unsigned ds_code = 0; ds_code < 3; ++ds_code) {
    const unsigned ds = 1U << ds_code;
    std::uint8_t mask = 0;
    std::int64_t deltas[7];
    bool ok = true;
    for (std::size_t i = 1; i < kWordsPerBlock && ok; ++i) {
      const auto d_base = static_cast<std::int64_t>(flits[i] - base);
      const auto d_zero = static_cast<std::int64_t>(flits[i]);
      if (fits(d_base, ds)) {
        deltas[i - 1] = d_base;
      } else if (fits(d_zero, ds)) {
        deltas[i - 1] = d_zero;
        mask |= static_cast<std::uint8_t>(1U << (i - 1));  // bit set -> zero base
      } else {
        ok = false;
      }
    }
    if (!ok) continue;

    Encoded e;
    e.bytes.reserve(2 + 8 + 7 * ds);
    e.bytes.push_back(static_cast<std::uint8_t>(ds_code));
    e.bytes.push_back(mask);
    for (unsigned b = 0; b < 8; ++b)
      e.bytes.push_back(static_cast<std::uint8_t>(base >> (8 * b)));
    for (const std::int64_t d : deltas) {
      const auto ud = static_cast<std::uint64_t>(d);
      for (unsigned b = 0; b < ds; ++b)
        e.bytes.push_back(static_cast<std::uint8_t>(ud >> (8 * b)));
    }
    return e;
  }
  return encode_raw(block);
}

BlockBytes DeltaAlgorithm::decompress(std::span<const std::uint8_t> enc) const {
  if (enc.empty()) throw DecodeError("empty delta stream");
  if (is_raw(enc)) return decode_raw(enc);
  if (enc.front() == kZeroTag) {
    if (enc.size() != 1) throw DecodeError("overlong delta zero encoding");
    return zero_block();
  }
  if (enc[0] > 2) throw DecodeError("invalid delta size code");

  const unsigned ds = 1U << enc[0];
  if (enc.size() != 2 + 8 + 7 * ds)
    throw DecodeError("delta stream length mismatch");
  const std::uint8_t mask = enc[1];
  std::uint64_t base = 0;
  for (unsigned b = 0; b < 8; ++b)
    base |= static_cast<std::uint64_t>(enc[2 + b]) << (8 * b);

  BlockBytes out{};
  write_flit(out, 0, base);
  std::size_t pos = 10;
  for (std::size_t i = 1; i < kWordsPerBlock; ++i) {
    std::uint64_t ud = 0;
    for (unsigned b = 0; b < ds; ++b)
      ud |= static_cast<std::uint64_t>(enc[pos + b]) << (8 * b);
    pos += ds;
    // Sign-extend the ds-byte delta.
    const unsigned shift = 64 - 8 * ds;
    const auto d = static_cast<std::int64_t>(ud << shift) >> shift;
    const std::uint64_t chosen_base = (mask >> (i - 1)) & 1U ? 0ULL : base;
    write_flit(out, i, chosen_base + static_cast<std::uint64_t>(d));
  }
  return out;
}

}  // namespace disco::compress
