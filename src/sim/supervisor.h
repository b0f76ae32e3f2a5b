// Sweep supervisor: supervisor.cpp defines run_sweep (sweep.h), which runs
// the cells one of two ways and treats both alike afterwards.
//
//   - In-process (default): a thread pool runs each cell attempt directly.
//     There is no wall clock — a cell's budget is its cycle counts plus the
//     optional --progress-watchdog — and a crash still kills the process.
//   - Isolated (--isolate): each attempt runs in a forked child process
//     that reports its CellResult back over a pipe in the lossless wire
//     format (wire.h); the parent is a single-threaded poll() scheduler that
//     enforces the --timeout-ms wall-clock budget with SIGTERM -> grace ->
//     SIGKILL escalation. On a crash or hang the child flushes a postmortem
//     black box (tracer ring tail, invariant summary, last-progress cycle,
//     stall census) next to the manifest.
//
// In both modes a crashed / hung / failed cell is retried with exponential
// backoff (1 + max_retries attempts), and with --checkpoint-dir every
// finished cell is journaled to an append-only checkpoint manifest (atomic
// tmp + rename per cell). A later run with --resume adopts the manifest's
// Ok cells verbatim, so its aggregate output is byte-identical to an
// uninterrupted run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/sweep.h"

namespace disco::sim {

/// One journaled cell outcome from a checkpoint manifest.
struct ManifestEntry {
  std::size_t cell = 0;
  std::size_t group = 0;
  CellStatus status = CellStatus::Failed;
  unsigned attempts = 0;
  /// Measurement cycles the finishing attempt recovered from a mid-cell
  /// snapshot instead of re-simulating (0 = ran from cycle 0).
  std::uint64_t snap_saved_cycles = 0;
  std::string error;
  bool has_result = false;
  CellResult result;   ///< decoded bit-exactly; valid when has_result
  std::string line;    ///< original JSONL line, re-journaled verbatim on resume
};

/// Parsed checkpoint manifest: one header line (sweep shape) + one entry
/// line per finished cell.
struct Manifest {
  std::size_t cells = 0;
  std::uint64_t base_seed = 0;
  unsigned shard_index = 0;
  unsigned shard_count = 1;
  std::vector<ManifestEntry> entries;
};

/// Load <path> (JSONL). Throws std::runtime_error when the file is missing
/// or has no valid header line; an unparseable entry line is dropped (the
/// cell simply reruns), never fatal.
Manifest load_manifest(const std::string& path);

}  // namespace disco::sim
