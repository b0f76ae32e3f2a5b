// Aggregate NoC statistics and energy-relevant event counters. One instance
// is shared by all routers/NIs of a network; the energy model converts the
// event counts to joules after the run.
#pragma once

#include <cstdint>

#include "common/stats.h"
#include "common/types.h"

namespace disco::noc {

struct NocStats {
  // --- microarchitectural events (energy accounting) ---
  std::uint64_t buffer_writes = 0;
  std::uint64_t buffer_reads = 0;
  std::uint64_t crossbar_traversals = 0;
  std::uint64_t link_flits = 0;
  std::uint64_t alloc_ops = 0;          ///< VA+SA arbitration operations
  std::uint64_t credits_sent = 0;

  // --- compression events ---
  std::uint64_t inflight_compressions = 0;    ///< completed in-router compressions
  std::uint64_t inflight_decompressions = 0;  ///< completed in-router decompressions
  std::uint64_t source_compressions = 0;      ///< DISCO source-queue (local-port) compressions
  std::uint64_t compression_aborts = 0;       ///< shadow departed mid-compression
  std::uint64_t decompression_aborts = 0;     ///< shadow departed mid-decompression
  std::uint64_t engine_starts = 0;
  std::uint64_t ni_compressions = 0;          ///< NI-side (CNC/Ideal) compressions
  std::uint64_t ni_decompressions = 0;        ///< NI-side decompressions
  std::uint64_t exposed_decomp_cycles = 0;    ///< de/comp latency on the critical path at NIs
  std::uint64_t exposed_comp_cycles = 0;
  std::uint64_t hidden_decomp_ops = 0;        ///< decompressions fully overlapped with queuing

  // --- integrity / recovery (fault-injection mode) ---
  std::uint64_t crc_checks = 0;               ///< end-to-end verifications at ejecting NIs
  std::uint64_t corruptions_detected = 0;     ///< decode failure or CRC mismatch at an NI
  std::uint64_t silent_corruptions = 0;       ///< oracle-only: decode+CRC passed, data wrong
  std::uint64_t flit_loss_timeouts = 0;       ///< reassembly timeouts (dropped body flit)
  std::uint64_t nacks_sent = 0;
  std::uint64_t retransmissions = 0;          ///< raw clones injected by sources
  std::uint64_t retransmit_deliveries = 0;    ///< parked packets resolved by a clone
  std::uint64_t backoff_cycles = 0;           ///< cycles clones waited in backoff
  std::uint64_t duplicate_flits_dropped = 0;  ///< dedup hits at ejecting NIs
  std::uint64_t duplicate_retransmissions = 0;///< clones arriving after resolution
  std::uint64_t unrecovered_deliveries = 0;   ///< retries exhausted, fallback delivery
  std::uint64_t engine_decode_errors = 0;     ///< DISCO engine decode/CRC failures
  std::uint64_t engines_quarantined = 0;

  // --- permanent (hard) faults + graceful degradation ---
  std::uint64_t links_killed = 0;
  std::uint64_t routers_killed = 0;
  std::uint64_t engines_hard_failed = 0;      ///< whole tiles flipped to NI bypass
  std::uint64_t banks_killed = 0;
  std::uint64_t unreachable_drops = 0;        ///< dropped at the source NI: dst dead/cut off
  std::uint64_t dead_component_drops = 0;     ///< in-flight flits filtered at live routers
  std::uint64_t flits_destroyed = 0;          ///< flits scrubbed out of buffers/links by kills
  std::uint64_t severed_packets = 0;          ///< in-flight packets cut by a kill (recovered end-to-end)
  std::uint64_t reroutes = 0;                 ///< RC decisions diverging from XY (degraded routing)
  std::uint64_t bypass_retransmits = 0;       ///< compressed arrivals NACKed raw by a bypassed NI
  std::uint64_t synth_completions = 0;        ///< protocol responses synthesized for dead components

  // --- traffic / latency ---
  std::uint64_t packets_injected = 0;
  std::uint64_t packets_ejected = 0;
  std::uint64_t flits_injected = 0;
  std::uint64_t sa_idle_losses = 0;  ///< packet-cycles spent losing allocation
  Accumulator packet_latency[kNumVNets];  ///< inject->eject per vnet
  Histogram queueing_cycles;              ///< per-packet idle cycles

  double avg_packet_latency() const {
    double sum = 0;
    std::uint64_t n = 0;
    for (const auto& acc : packet_latency) {
      sum += acc.sum();
      n += acc.count();
    }
    return n ? sum / static_cast<double>(n) : 0.0;
  }

  void serialize(snap::Writer& w) const { io(*this, w); }
  void serialize(snap::Reader& r) { io(*this, r); }

 private:
  template <class Self, class Ar>
  static void io(Self& s, Ar& ar) {
    for (auto* v :
         {&s.buffer_writes, &s.buffer_reads, &s.crossbar_traversals,
          &s.link_flits, &s.alloc_ops, &s.credits_sent,
          &s.inflight_compressions, &s.inflight_decompressions,
          &s.source_compressions, &s.compression_aborts,
          &s.decompression_aborts, &s.engine_starts, &s.ni_compressions,
          &s.ni_decompressions, &s.exposed_decomp_cycles,
          &s.exposed_comp_cycles, &s.hidden_decomp_ops, &s.crc_checks,
          &s.corruptions_detected, &s.silent_corruptions,
          &s.flit_loss_timeouts, &s.nacks_sent, &s.retransmissions,
          &s.retransmit_deliveries, &s.backoff_cycles,
          &s.duplicate_flits_dropped, &s.duplicate_retransmissions,
          &s.unrecovered_deliveries, &s.engine_decode_errors,
          &s.engines_quarantined, &s.links_killed, &s.routers_killed,
          &s.engines_hard_failed, &s.banks_killed, &s.unreachable_drops,
          &s.dead_component_drops, &s.flits_destroyed, &s.severed_packets,
          &s.reroutes, &s.bypass_retransmits, &s.synth_completions,
          &s.packets_injected, &s.packets_ejected, &s.flits_injected,
          &s.sa_idle_losses})
      ar.u64(*v);
    for (auto& acc : s.packet_latency) acc.serialize(ar);
    s.queueing_cycles.serialize(ar);
  }
};

}  // namespace disco::noc
