// Experiment harness: runs one (scheme x algorithm x workload x mesh) cell
// with warmup + measurement phases and extracts the metrics the paper's
// tables and figures report. Every bench binary is a thin driver over this.
#pragma once

#include <string>
#include <vector>

#include "cmp/system.h"
#include "energy/energy_model.h"

namespace disco::sim {

/// Fault-injection and recovery counters for one cell (all zero — and
/// `enabled` false — when the cell ran without an injector).
struct FaultSummary {
  bool enabled = false;
  // Injected faults, by site (from the injector).
  std::uint64_t link_bit_flips = 0;
  std::uint64_t llc_bit_flips = 0;
  std::uint64_t flit_drops = 0;
  std::uint64_t flit_duplicates = 0;
  std::uint64_t engine_stalls = 0;
  std::uint64_t engine_faults = 0;
  // Detection / recovery (from NocStats).
  std::uint64_t crc_checks = 0;
  std::uint64_t corruptions_detected = 0;
  std::uint64_t silent_corruptions = 0;
  std::uint64_t flit_loss_timeouts = 0;
  std::uint64_t nacks_sent = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t retransmit_deliveries = 0;
  std::uint64_t backoff_cycles = 0;
  std::uint64_t duplicate_flits_dropped = 0;
  std::uint64_t duplicate_retransmissions = 0;
  std::uint64_t unrecovered_deliveries = 0;
  std::uint64_t engine_decode_errors = 0;
  std::uint64_t engines_quarantined = 0;

  // Permanent (hard) faults + graceful degradation. `hard_enabled` is true
  // when the cell ran with a hard-fault schedule (--hard-fault /
  // --hard-fault-rate); the counters come from NocStats and the system.
  bool hard_enabled = false;
  std::uint64_t hard_faults_applied = 0;  ///< whole run, survives phase resets
  std::uint64_t links_killed = 0;
  std::uint64_t routers_killed = 0;
  std::uint64_t engines_hard_failed = 0;
  std::uint64_t banks_killed = 0;
  std::uint64_t unreachable_drops = 0;
  std::uint64_t dead_component_drops = 0;
  std::uint64_t flits_destroyed = 0;
  std::uint64_t severed_packets = 0;
  std::uint64_t reroutes = 0;
  std::uint64_t bypass_retransmits = 0;
  std::uint64_t synth_completions = 0;

  std::uint64_t payload_faults() const {
    return link_bit_flips + llc_bit_flips + engine_faults;
  }
  /// Components lost over the whole run (the x-axis of the degradation
  /// tables: latency/energy vs. dead components).
  std::uint64_t components_killed() const {
    return links_killed + routers_killed + engines_hard_failed + banks_killed;
  }
};

struct CellResult {
  std::string workload;
  std::string algorithm;
  Scheme scheme = Scheme::Baseline;

  Cycle measured_cycles = 0;
  std::uint64_t core_ops = 0;
  std::uint64_t l1_misses = 0;

  /// The Fig. 5/6/8 metric (pre-normalization): average NUCA data access
  /// latency of L1 misses served on chip (NoC + bank), in cycles.
  double avg_nuca_latency = 0;
  /// All L1 misses including DRAM-served ones.
  double avg_miss_latency = 0;
  double avg_dram_latency = 0;
  double l2_miss_rate = 0;
  double avg_packet_latency = 0;
  double avg_stored_ratio = 0;  ///< compression ratio of resident L2 lines

  std::uint64_t link_flits = 0;
  std::uint64_t inflight_compressions = 0;
  std::uint64_t inflight_decompressions = 0;
  std::uint64_t source_compressions = 0;
  std::uint64_t compression_aborts = 0;
  std::uint64_t decompression_aborts = 0;
  std::uint64_t hidden_decomp_ops = 0;
  std::uint64_t exposed_decomp_cycles = 0;

  energy::EnergyBreakdown energy;
  FaultSummary fault;

  /// Invariant-checker verdict (enabled=false when checking was off).
  trace::InvariantSummary invariants;
  /// Canonical trace text of the measurement phase (empty unless tracing).
  std::string trace_text;
};

/// A field's key in visit_result. Every field travels on the wire; a key
/// made with wire_only() is left out of the JSON export.
struct FieldKey {
  constexpr FieldKey(const char* n, bool in_json = true)  // NOLINT: implicit
      : name(n), json(in_json) {}
  const char* name;
  bool json;
};
constexpr FieldKey wire_only(const char* name) { return {name, false}; }

/// The one field list of CellResult, walked by every serializer: the wire
/// Encoder and Decoder (wire.cpp) and the JSON writer (json_export.cpp).
/// `R` is CellResult or const CellResult. The groups nest the way the JSON
/// does; a gated group's flag is part of the walk, the wire carries the
/// group whatever the flag, and the JSON skips a group whose flag is off.
/// `derived` values are computed, so they reach the JSON only.
template <class Ar, class R>
void visit_result(Ar& ar, R& r) {
  ar.str("workload", r.workload);
  ar.str("algorithm", r.algorithm);
  ar.scheme("scheme", r.scheme);
  ar.u64("measured_cycles", r.measured_cycles);
  ar.u64("core_ops", r.core_ops);
  ar.u64("l1_misses", r.l1_misses);
  ar.dbl("avg_nuca_latency", r.avg_nuca_latency);
  ar.dbl("avg_miss_latency", r.avg_miss_latency);
  ar.dbl("avg_dram_latency", r.avg_dram_latency);
  ar.dbl("l2_miss_rate", r.l2_miss_rate);
  ar.dbl("avg_packet_latency", r.avg_packet_latency);
  ar.dbl("avg_stored_ratio", r.avg_stored_ratio);
  ar.u64("link_flits", r.link_flits);
  ar.u64("inflight_compressions", r.inflight_compressions);
  ar.u64("inflight_decompressions", r.inflight_decompressions);
  ar.u64("source_compressions", r.source_compressions);
  ar.u64("compression_aborts", r.compression_aborts);
  ar.u64("decompression_aborts", r.decompression_aborts);
  ar.u64("hidden_decomp_ops", r.hidden_decomp_ops);
  ar.u64(wire_only("exposed_decomp_cycles"), r.exposed_decomp_cycles);
  auto& e = r.energy;
  ar.group("energy", [&] {
    ar.dbl("noc_dynamic_nj", e.noc_dynamic_nj);
    ar.dbl("noc_leakage_nj", e.noc_leakage_nj);
    ar.dbl("l2_dynamic_nj", e.l2_dynamic_nj);
    ar.dbl("l2_leakage_nj", e.l2_leakage_nj);
    ar.dbl("compressor_dynamic_nj", e.compressor_dynamic_nj);
    ar.dbl("compressor_leakage_nj", e.compressor_leakage_nj);
    ar.dbl("dram_nj", e.dram_nj);
    ar.derived("subsystem_nj", e.subsystem_nj());
  });
  auto& f = r.fault;
  ar.group("fault", f.enabled, [&] {
    ar.u64("link_bit_flips", f.link_bit_flips);
    ar.u64("llc_bit_flips", f.llc_bit_flips);
    ar.u64("flit_drops", f.flit_drops);
    ar.u64("flit_duplicates", f.flit_duplicates);
    ar.u64("engine_stalls", f.engine_stalls);
    ar.u64("engine_faults", f.engine_faults);
    ar.u64("crc_checks", f.crc_checks);
    ar.u64("corruptions_detected", f.corruptions_detected);
    ar.u64("silent_corruptions", f.silent_corruptions);
    ar.u64("flit_loss_timeouts", f.flit_loss_timeouts);
    ar.u64("nacks_sent", f.nacks_sent);
    ar.u64("retransmissions", f.retransmissions);
    ar.u64("retransmit_deliveries", f.retransmit_deliveries);
    ar.u64("backoff_cycles", f.backoff_cycles);
    ar.u64("duplicate_flits_dropped", f.duplicate_flits_dropped);
    ar.u64("duplicate_retransmissions", f.duplicate_retransmissions);
    ar.u64("unrecovered_deliveries", f.unrecovered_deliveries);
    ar.u64("engine_decode_errors", f.engine_decode_errors);
    ar.u64("engines_quarantined", f.engines_quarantined);
  });
  // run_cell sets hard_enabled only in a cell that also has fault.enabled.
  ar.group("hard_fault", f.hard_enabled, [&] {
    ar.u64("applied", f.hard_faults_applied);
    ar.u64("links_killed", f.links_killed);
    ar.u64("routers_killed", f.routers_killed);
    ar.u64("engines_hard_failed", f.engines_hard_failed);
    ar.u64("banks_killed", f.banks_killed);
    ar.u64("unreachable_drops", f.unreachable_drops);
    ar.u64("dead_component_drops", f.dead_component_drops);
    ar.u64("flits_destroyed", f.flits_destroyed);
    ar.u64("severed_packets", f.severed_packets);
    ar.u64("reroutes", f.reroutes);
    ar.u64("bypass_retransmits", f.bypass_retransmits);
    ar.u64("synth_completions", f.synth_completions);
  });
  auto& v = r.invariants;
  ar.group("invariants", v.enabled, [&] {
    ar.u64("events_checked", v.events_checked);
    ar.u64("cycles_checked", v.cycles_checked);
    ar.u64("violations", v.violations);
    ar.u64("credit_violations", v.credit_violations);
    ar.u64("conservation_violations", v.conservation_violations);
    ar.u64("vc_state_violations", v.vc_state_violations);
    ar.u64("shadow_violations", v.shadow_violations);
    ar.u64("confidence_violations", v.confidence_violations);
    ar.u64("eject_violations", v.eject_violations);
    ar.u64("cache_violations", v.cache_violations);
    ar.u64(wire_only("topology_violations"), v.topology_violations);
    ar.str("first_violation", v.first_violation);
  });
  ar.str(wire_only("trace_text"), r.trace_text);
}

struct RunOptions {
  /// Functional (untimed) warmup: references replayed per core to populate
  /// caches, directory and backing store before the clock starts.
  std::uint64_t warmup_ops_per_core = 24000;
  /// Timed warmup after the functional phase (fills queues/MSHRs).
  Cycle warmup_cycles = 20000;
  Cycle measure_cycles = 100000;

  // --- Mid-cell checkpointing -------------------------------------------
  /// When both `snapshot_interval` and `snapshot_path` are set, the
  /// measurement phase runs in interval-sized chunks and a full-system
  /// snapshot is written to `snapshot_path` (atomically) after each
  /// non-final chunk. If a valid snapshot for this cell already exists at
  /// `snapshot_path` the run resumes from it — skipping warmup and the
  /// already-measured cycles — and still produces byte-identical results.
  /// A stale / corrupted / mismatched snapshot is ignored (from-zero run).
  Cycle snapshot_interval = 0;    ///< 0 = checkpointing off
  std::string snapshot_path;      ///< empty = checkpointing off
  /// Out-param: cycles of measurement recovered from a snapshot instead of
  /// re-simulated (0 when no snapshot was restored). Null = don't report.
  std::uint64_t* resumed_from_cycles = nullptr;
  /// Crash drill: raise SIGKILL immediately after the first snapshot whose
  /// progress cursor reaches this cycle count (tests the kill-between-
  /// snapshots recovery path). 0 = never.
  Cycle debug_kill_at = 0;
};

/// The cell-identity digest a snapshot is stamped with: hashes the full
/// config summary, seed, workload name and phase parameters so a snapshot
/// can never restore into a different experiment cell.
std::uint64_t cell_digest(const SystemConfig& cfg,
                          const workload::BenchmarkProfile& profile,
                          const RunOptions& opt);

CellResult run_cell(const SystemConfig& cfg,
                    const workload::BenchmarkProfile& profile,
                    const RunOptions& opt);

/// Geometric mean over positive values.
double geomean(const std::vector<double>& v);

}  // namespace disco::sim
