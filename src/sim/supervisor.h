// Sweep supervisor: supervisor.cpp defines run_sweep (sweep.h). One thread
// pool runs every sweep; each pool thread takes a cell through its attempts,
// and only the attempt itself differs between the two modes.
//
//   - In-process (default): the pool thread runs the attempt directly.
//     There is no wall clock — a cell's budget is its cycle counts plus the
//     optional --progress-watchdog — and a crash still kills the process.
//   - Isolated (--isolate): the pool thread forks a child for the attempt.
//     The child reports its outcome back over a pipe as the very object the
//     manifest journals (wire.h). The pool thread waits on that pipe and
//     enforces the --timeout-ms wall-clock budget and an interrupt shutdown
//     with SIGTERM -> grace -> SIGKILL. On a crash or hang the child
//     flushes a postmortem black box (tracer ring tail, invariant summary,
//     last-progress cycle, stall census) next to the manifest.
//
// In both modes a crashed / hung / failed cell is retried with exponential
// backoff (1 + max_retries attempts); an interrupt during a backoff ends the
// cell with its last outcome. With --checkpoint-dir every finished cell is
// journaled to an append-only checkpoint manifest (atomic tmp + rename per
// cell). A later run with --resume adopts the manifest's Ok cells verbatim,
// so its aggregate output is byte-identical to an uninterrupted run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/sweep.h"

namespace disco::sim {

/// Parsed checkpoint manifest: one header line (sweep shape) + one line per
/// finished cell, each the wire::encode_outcome object of that cell.
struct Manifest {
  std::size_t cells = 0;
  std::uint64_t base_seed = 0;
  unsigned shard_index = 0;
  unsigned shard_count = 1;
  std::vector<SweepCellOutcome> entries;  ///< results decoded bit-exactly
};

/// Load <path> (JSONL). Throws std::runtime_error when the file is missing
/// or has no valid header line; an entry line that does not decode (torn,
/// corrupted, or written by a build with another field list) is dropped —
/// the cell simply reruns — never fatal.
Manifest load_manifest(const std::string& path);

}  // namespace disco::sim
