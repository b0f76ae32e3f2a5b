// The benchmark's units of work: one in-process CMP cell, one network-only
// 8x8 run, and one isolated sweep, each driven through the simulator's
// public API and each returning its timings, its simulated-output digest
// and the counters the per-layer table needs.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "sim/experiment.h"
#include "spans.h"
#include "trace/trace.h"

namespace perfbench {

/// Phase lengths of one CMP cell (the non-checkpointing path of
/// sim::run_cell: functional warmup, timed warmup, stats reset, measure).
struct PhaseSizes {
  std::uint64_t warmup_ops_per_core = 0;
  disco::Cycle warmup_cycles = 0;
  disco::Cycle measure_cycles = 0;
};

struct CellSpec {
  std::string profile;
  std::string algorithm;
  disco::Scheme scheme = disco::Scheme::DISCO;
  std::uint64_t seed = 0;  ///< cells of one profile share it (same traffic)

  std::string label() const;
};

/// What a pass installs around the simulator.
enum class Instrument {
  None,    ///< plain run; only the benchmark's own top-level calls are timed
  Spans,   ///< forwarding wrappers record spans around layer calls
  Events,  ///< trace::Tracer + invariant checker on, event tallies taken
};

/// Counters summed over the cells of a pass (counts, not timings).
struct LayerCounts {
  std::uint64_t cells = 0;
  // noc
  std::uint64_t link_flits = 0;
  std::uint64_t packets_delivered = 0;
  double packet_latency_sum = 0;  ///< sum of per-cell average latencies
  // disco
  std::uint64_t engine_starts = 0;
  std::uint64_t engine_finishes = 0;
  std::uint64_t comp_aborts = 0;
  std::uint64_t decomp_aborts = 0;
  std::uint64_t source_compressions = 0;
  // cache (per-cell figures summed; divide by cells)
  std::uint64_t l1_misses = 0;
  double l2_miss_rate_sum = 0;
  double stored_ratio_sum = 0;
  double nuca_latency_sum = 0;
  // integrity
  std::uint64_t silent_corruptions = 0;
  // trace (Events passes only)
  std::uint64_t events_total = 0;
  std::uint64_t violations = 0;
  std::string first_violation;
  std::array<std::uint64_t, disco::trace::kNumEvents> events_in_window{};
  std::uint64_t window_cycles = 0;  ///< cycles the retained events span

  void add(const LayerCounts& o);
};

struct CellRun {
  std::uint64_t digest = 0;  ///< FNV-1a of the sim::write_json form
  double setup_s = 0;        ///< construction + functional warmup
  double run_s = 0;          ///< the two timed run() calls
  std::uint64_t cycles = 0;
  std::uint64_t ops = 0;     ///< core memory operations in the timed phases
  disco::sim::CellResult result;
  LayerCounts counts;
};

/// Run one CMP cell through public calls. Spans "cmp.construct",
/// "cmp.functional_warmup" and "cmp.run" are always recorded into `rec`;
/// with Instrument::Spans, L1 and L2 deliveries are timed as
/// "cache.l1.deliver" / "cache.l2.deliver".
CellRun run_cmp_cell(const CellSpec& spec, const PhaseSizes& sizes,
                     Instrument inst, SpanRecorder& rec);

/// Seconds to construct the cell's system (SC2 retrain included) and run
/// its functional warmup; nothing is simulated after that.
double cmp_setup_s(const CellSpec& spec, const PhaseSizes& sizes);

/// The same cell through sim::run_cell (reference for the replay check).
std::uint64_t reference_cell_digest(const CellSpec& spec,
                                    const PhaseSizes& sizes);

std::uint64_t result_digest(const disco::sim::CellResult& r);

struct NocSpec {
  std::uint64_t seed = 0;
  disco::Cycle inject_cycles = 0;
  double injection_rate = 0.03;  ///< packets per node per cycle, open loop
};

struct NocRun {
  std::uint64_t digest = 0;  ///< FNV-1a of the network stats
  double setup_s = 0;        ///< noc::Network construction
  double run_s = 0;          ///< the inject + tick loop, drain included
  std::uint64_t cycles = 0;
  std::uint64_t injected = 0;
  std::uint64_t delivered = 0;
  double avg_latency = 0;
  LayerCounts counts;
};

/// 8x8 mesh, DISCO units, delta, uniform random open-loop traffic, then a
/// drain. With Instrument::Spans the benchmark's inject/tick calls, the
/// DiscoUnits (via TimedExtension), the algorithm (via TimedAlgorithm, in
/// both NiPolicy and DiscoUnit) and make_synthetic_packet are spanned.
NocRun run_noc_cell(const NocSpec& spec, Instrument inst, SpanRecorder& rec);

struct SweepRun {
  double wall_s = 0;
  std::size_t failed = 0;
  bool drill_restored = false;  ///< the killed cell resumed from a snapshot
  std::uint64_t ops = 0;
  std::vector<std::uint64_t> digests;  ///< per cell, 0 when not Ok
  std::vector<disco::sim::CellResult> results;
};

/// The grid through sim::run_sweep with --isolate, a checkpoint directory,
/// snapshots every `snapshot_interval` measured cycles and one deterministic
/// SIGKILL of cell `kill_cell` after its first snapshot.
SweepRun run_isolated_sweep(const std::vector<CellSpec>& cells,
                            const PhaseSizes& sizes, const std::string& dir,
                            unsigned workers, disco::Cycle snapshot_interval,
                            int kill_cell);

struct SnapshotFigures {
  double save_ms = 0;     ///< median over saves
  double restore_ms = 0;  ///< median over restores
  double mb = 0;          ///< snapshot file size
  std::uint64_t digest = 0;  ///< result of the restored run
};

/// Run `spec` to mid-measurement, save a snapshot `reps` times, restore it
/// into `reps` fresh systems, finish the last one and digest its result.
SnapshotFigures measure_snapshot(const CellSpec& spec, const PhaseSizes& sizes,
                                 const std::string& path, int reps,
                                 SpanRecorder& rec);

/// Blocks the workload's own value synthesizer produces at addresses its
/// own trace generator references (the codec table's input), timing
/// TraceGenerator::next and ValueSynthesizer::block_for as it goes.
struct WorkloadBlocks {
  std::vector<disco::BlockBytes> blocks;
  std::vector<disco::BlockBytes> training;  ///< SC2 sample, as CmpSystem takes
  double trace_next_ns = 0;
  double block_for_ns = 0;
};
WorkloadBlocks profile_blocks(const std::vector<CellSpec>& cells,
                              std::size_t per_profile);

/// Payload blocks of make_synthetic_packet (the noc_8x8 traffic).
std::vector<disco::BlockBytes> synthetic_blocks(std::uint64_t seed,
                                                std::size_t count);

double median(std::vector<double> v);

}  // namespace perfbench
