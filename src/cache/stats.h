// Cache-hierarchy statistics shared by all L1s, L2 banks and the memory
// controller of one simulated system.
#pragma once

#include <cstdint>

#include "common/stats.h"

namespace disco::cache {

struct CacheStats {
  // The paper's performance metric (Fig. 5/6/8): latency of L1-miss
  // NUCA data accesses — "NoC delay and cache bank access delay" — i.e.
  // requests served on-chip, from request creation at the L1 to data
  // delivery at the L1, including any exposed de/compression latency.
  // Requests that had to go to DRAM are tracked separately.
  Accumulator nuca_latency;
  Histogram nuca_latency_hist;
  Accumulator dram_latency;

  /// All L1 misses combined (NUCA + DRAM-served).
  Accumulator miss_latency;
  Histogram miss_latency_hist;

  std::uint64_t l1_hits = 0;
  std::uint64_t l1_misses = 0;
  std::uint64_t l1_evictions = 0;
  std::uint64_t l1_writebacks = 0;

  std::uint64_t l2_hits = 0;
  std::uint64_t l2_misses = 0;
  std::uint64_t l2_evictions = 0;
  std::uint64_t l2_fills = 0;

  std::uint64_t bank_compressions = 0;    ///< insert/update-time encodings
  std::uint64_t bank_decompressions = 0;  ///< read-path decodings (CC/CNC)

  std::uint64_t invalidations_sent = 0;
  std::uint64_t recalls_sent = 0;

  std::uint64_t dram_reads = 0;
  std::uint64_t dram_writes = 0;

  // Energy accounting events.
  std::uint64_t l1_array_reads = 0;
  std::uint64_t l1_array_writes = 0;
  std::uint64_t l2_array_reads = 0;
  std::uint64_t l2_array_writes = 0;

  /// Stored footprint (bytes) of L2 lines, sampled at insert/update time;
  /// effective compression ratio = kBlockBytes / stored_line_bytes.mean().
  Accumulator stored_line_bytes;

  double l2_miss_rate() const {
    const auto total = l2_hits + l2_misses;
    return total ? static_cast<double>(l2_misses) / static_cast<double>(total) : 0.0;
  }
  double l1_miss_rate() const {
    const auto total = l1_hits + l1_misses;
    return total ? static_cast<double>(l1_misses) / static_cast<double>(total) : 0.0;
  }

  void serialize(snap::Writer& w) const { io(*this, w); }
  void serialize(snap::Reader& r) { io(*this, r); }

 private:
  template <class Self, class Ar>
  static void io(Self& s, Ar& ar) {
    s.nuca_latency.serialize(ar);
    s.nuca_latency_hist.serialize(ar);
    s.dram_latency.serialize(ar);
    s.miss_latency.serialize(ar);
    s.miss_latency_hist.serialize(ar);
    for (auto* v :
         {&s.l1_hits, &s.l1_misses, &s.l1_evictions, &s.l1_writebacks,
          &s.l2_hits, &s.l2_misses, &s.l2_evictions, &s.l2_fills,
          &s.bank_compressions, &s.bank_decompressions,
          &s.invalidations_sent, &s.recalls_sent, &s.dram_reads,
          &s.dram_writes, &s.l1_array_reads, &s.l1_array_writes,
          &s.l2_array_reads, &s.l2_array_writes})
      ar.u64(*v);
    s.stored_line_bytes.serialize(ar);
  }
};

}  // namespace disco::cache
