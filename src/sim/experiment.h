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

/// Run the same workload under several schemes (identical everything else)
/// and return results in scheme order.
std::vector<CellResult> run_schemes(SystemConfig cfg,
                                    const workload::BenchmarkProfile& profile,
                                    const std::vector<Scheme>& schemes,
                                    const RunOptions& opt);

/// Geometric mean over positive values.
double geomean(const std::vector<double>& v);

}  // namespace disco::sim
