#include "sim/sweep.h"

#include <atomic>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <thread>

#include "common/interrupt.h"
#include "fault/fault.h"
#include "sim/sweep_internal.h"
#include "trace/trace.h"

namespace disco::sim {

namespace detail {

void run_pool(std::size_t count, unsigned threads,
              const std::function<void(std::size_t)>& task) {
  if (count == 0) return;
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (std::size_t i = next.fetch_add(1); i < count; i = next.fetch_add(1)) {
      if (interrupt_requested()) return;
      task(i);
    }
  };
  if (threads == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads = hw > 1 ? hw - 1 : 1;
  }
  const unsigned n = std::min<std::size_t>(threads, count);
  if (n <= 1) {
    worker();
    return;
  }
  std::vector<std::thread> pool;
  pool.reserve(n);
  for (unsigned t = 0; t < n; ++t) pool.emplace_back(worker);
  for (auto& th : pool) th.join();
}

}  // namespace detail

namespace {

[[noreturn]] void usage(const char* prog, int code) {
  std::fprintf(stderr,
               "usage: %s [--threads N] [--shard i/k] [--seed S]\n"
               "          [--no-progress] [--isolate [--timeout-ms T]]\n"
               "          [--checkpoint-dir D] [--resume M] [--fault-* ...] [args...]\n"
               "  --threads N     worker threads (default: cores - 1)\n"
               "  --shard i/k     run shard i of k (0 <= i < k); cells are\n"
               "                  sharded by group so comparison rows stay whole\n"
               "  --seed S        base seed; per-cell seed = splitmix64(S, cell)\n"
               "  --no-progress   suppress the stderr progress line\n"
               "crash resilience (sweep supervisor):\n"
               "  --isolate            run each cell in a forked child process;\n"
               "                       a SIGSEGV or hard hang costs one cell\n"
               "  --timeout-ms T       (with --isolate) per-cell wall-clock\n"
               "                       budget (0 = none); an in-process cell\n"
               "                       is bounded by its cycle counts instead\n"
               "  --checkpoint-dir D   journal finished cells to D/manifest.jsonl\n"
               "                       and write postmortem black boxes into D\n"
               "  --resume M           adopt the Ok cells of manifest M verbatim\n"
               "                       (aggregate output is byte-identical to an\n"
               "                       uninterrupted run) and run only the rest\n"
               "  --max-retries R      extra attempts per crashed/hung/failed cell\n"
               "                       (default 1)\n"
               "  --retry-backoff-ms B backoff before retry r is B << (r-1),\n"
               "                       saturating (default 100)\n"
               "  --snapshot-interval-cycles N\n"
               "                       (with --isolate --checkpoint-dir) each\n"
               "                       worker snapshots its full simulation\n"
               "                       state every N measured cycles; retries\n"
               "                       resume from the last good snapshot\n"
               "                       byte-identically instead of recomputing\n"
               "                       from cycle 0 (0 = off)\n"
               "  --progress-watchdog N fail a cell with a classified deadlock/\n"
               "                       livelock/starvation error if no packet\n"
               "                       moves for N cycles while work is pending\n"
               "  --debug-crash-cell K / --debug-hang-cell K / --debug-throw-cell K\n"
               "                       deterministically break cell K (tests/CI;\n"
               "                       --debug-hang-cell needs --isolate);\n"
               "                       --debug-crash-attempts A limits the hooks\n"
               "                       to the first A attempts (default 1)\n"
               "tracing / invariants:\n"
               "  --trace PREFIX       capture probe events; writes Chrome JSON\n"
               "                       to <PREFIX>-cell<i>.json (Perfetto)\n"
               "  --trace-filter CATS  comma list: noc,credit,ni,disco,cache\n"
               "  --check-invariants   stream every event through the runtime\n"
               "                       invariant checker (summary per cell)\n"
               "fault injection (any rate flag enables the injector):\n"
               "  --fault-rate R         link + LLC payload bit-flip rate\n"
               "  --fault-link-rate R    per-hop compressed-payload bit-flip rate\n"
               "  --fault-llc-rate R     compressed-LLC-readout bit-flip rate\n"
               "  --fault-drop-rate R    per-flit body-flit drop rate\n"
               "  --fault-dup-rate R     per-flit ejection duplicate rate\n"
               "  --fault-engine-rate R  DISCO engine output corruption rate\n"
               "  --fault-stall-rate R   DISCO engine transient stall rate\n"
               "  --fault-crc M          payload checksum: crc32 (default) | fold8\n"
               "  --fault-retries N      max retransmission attempts per block\n"
               "  --fault-backoff B      retransmission backoff base (cycles)\n"
               "permanent (hard) faults — graceful degradation:\n"
               "  --hard-fault SPEC      explicit kill schedule, comma-separated\n"
               "                         kind@cycle:node (link@cycle:node:DIR);\n"
               "                         kinds: link, router, engine, llc;\n"
               "                         e.g. engine@5000:3,link@9000:5:E\n"
               "  --hard-fault-rate R    per-component permanent-failure\n"
               "                         probability per cycle (seed-derived\n"
               "                         exponential draw per component)\n"
               "numbers are decimal digits only; rates lie in [0, 1]\n",
               prog);
  std::exit(code);
}

}  // namespace

const char* to_string(CellStatus s) {
  switch (s) {
    case CellStatus::Ok: return "ok";
    case CellStatus::Failed: return "failed";
    case CellStatus::TimedOut: return "timed_out";
    case CellStatus::Skipped: return "skipped";
    case CellStatus::Crashed: return "crashed";
    case CellStatus::Interrupted: return "interrupted";
  }
  return "?";
}

const CellResult* SweepResult::ok(std::size_t index) const {
  return index < cells.size() && cells[index].ok() ? &cells[index].result
                                                   : nullptr;
}

std::vector<CellResult> SweepResult::ok_results() const {
  std::vector<CellResult> out;
  out.reserve(completed);
  for (const auto& c : cells)
    if (c.ok()) out.push_back(c.result);
  return out;
}

void run_indexed(std::size_t count, const std::function<void(std::size_t)>& fn,
                 const SweepOptions& opt) {
  detail::ProgressMeter progress(count, opt);
  detail::run_pool(count, opt.threads, [&](std::size_t i) {
    fn(i);
    progress.cell_done();
  });
}

SweepOptions parse_sweep_flags(int argc, char** argv,
                               std::vector<std::string>& positional) {
  SweepOptions opt;
  SupervisorOptions& so = opt.supervisor;
  // Strict numbers: a value that is not all decimal digits, or exceeds
  // `max`, is a usage error — never a silently wrapped or defaulted knob.
  const auto bad = [&](const std::string& what, const char* v) {
    std::fprintf(stderr, "%s: invalid value '%s'\n", what.c_str(), v);
    usage(argv[0], 2);
  };
  const auto num = [&](const std::string& what, const char* v,
                       std::uint64_t max) -> std::uint64_t {
    char* end = nullptr;
    errno = 0;
    const unsigned long long n = std::strtoull(v, &end, 10);
    if (*v < '0' || *v > '9' || *end != '\0' || errno == ERANGE || n > max)
      bad(what, v);
    return n;
  };
  const auto u64 = [&](const std::string& w, const char* v) {
    return num(w, v, UINT64_MAX);
  };
  const auto u32 = [&](const std::string& w, const char* v) {
    return static_cast<unsigned>(num(w, v, UINT_MAX));
  };
  const auto cell = [&](const std::string& w, const char* v) {
    return static_cast<int>(num(w, v, INT_MAX));
  };
  const auto rate = [&](const std::string& w, const char* v) {
    char* end = nullptr;
    const double r = std::strtod(v, &end);
    if (end == v || *end != '\0' || !(r >= 0.0 && r <= 1.0)) bad(w, v);
    return r;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0], 2);
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      usage(argv[0], 0);
    } else if (arg == "--threads") {
      opt.threads = u32(arg, value());
    } else if (arg == "--seed") {
      opt.base_seed = u64(arg, value());
    } else if (arg == "--timeout-ms") {
      opt.cell_timeout_ms = u64(arg, value());
    } else if (arg == "--no-progress") {
      opt.progress = false;
    } else if (arg == "--isolate") {
      so.isolate = true;
    } else if (arg == "--checkpoint-dir") {
      so.checkpoint_dir = value();
    } else if (arg == "--resume") {
      so.resume_manifest = value();
    } else if (arg == "--max-retries") {
      // 1 + max_retries attempts must not wrap to 0.
      so.max_retries = static_cast<unsigned>(num(arg, value(), UINT_MAX - 1));
    } else if (arg == "--retry-backoff-ms") {
      so.retry_backoff_ms = u64(arg, value());
    } else if (arg == "--snapshot-interval-cycles") {
      so.snapshot_interval_cycles = u64(arg, value());
    } else if (arg == "--progress-watchdog") {
      opt.progress_watchdog_cycles = u64(arg, value());
    } else if (arg == "--debug-crash-cell") {
      so.debug_crash_cell = cell(arg, value());
    } else if (arg == "--debug-hang-cell") {
      so.debug_hang_cell = cell(arg, value());
    } else if (arg == "--debug-throw-cell") {
      so.debug_throw_cell = cell(arg, value());
    } else if (arg == "--debug-kill-cell") {
      so.debug_kill_cell = cell(arg, value());
    } else if (arg == "--debug-kill-cycle") {
      so.debug_kill_cycle = u64(arg, value());
    } else if (arg == "--debug-crash-attempts") {
      so.debug_crash_attempts = u32(arg, value());
    } else if (arg == "--trace") {
      opt.trace.out_path = value();
      opt.trace.enabled = true;
    } else if (arg == "--trace-filter") {
      opt.trace.filter = value();
      opt.trace.enabled = true;
      try {
        trace::category_mask(opt.trace.filter);
      } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "%s\n", e.what());
        usage(argv[0], 2);
      }
    } else if (arg == "--check-invariants") {
      opt.trace.check_invariants = true;
    } else if (arg == "--fault-rate") {
      const double r = rate(arg, value());
      opt.fault.link_bit_flip_rate = r;
      opt.fault.llc_bit_flip_rate = r;
      opt.fault.enabled = true;
    } else if (arg == "--fault-link-rate") {
      opt.fault.link_bit_flip_rate = rate(arg, value());
      opt.fault.enabled = true;
    } else if (arg == "--fault-llc-rate") {
      opt.fault.llc_bit_flip_rate = rate(arg, value());
      opt.fault.enabled = true;
    } else if (arg == "--fault-drop-rate") {
      opt.fault.flit_drop_rate = rate(arg, value());
      opt.fault.enabled = true;
    } else if (arg == "--fault-dup-rate") {
      opt.fault.flit_duplicate_rate = rate(arg, value());
      opt.fault.enabled = true;
    } else if (arg == "--fault-engine-rate") {
      opt.fault.engine_fault_rate = rate(arg, value());
      opt.fault.enabled = true;
    } else if (arg == "--fault-stall-rate") {
      opt.fault.engine_stall_rate = rate(arg, value());
      opt.fault.enabled = true;
    } else if (arg == "--fault-crc") {
      const std::string m = value();
      if (m == "crc32") {
        opt.fault.crc = CrcMode::Crc32;
      } else if (m == "fold8") {
        opt.fault.crc = CrcMode::Fold8;
      } else {
        std::fprintf(stderr, "unknown --fault-crc mode: %s\n", m.c_str());
        usage(argv[0], 2);
      }
    } else if (arg == "--hard-fault") {
      try {
        opt.fault.hard_faults = fault::parse_hard_fault_spec(value());
      } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "%s\n", e.what());
        usage(argv[0], 2);
      }
      opt.fault.enabled = true;
    } else if (arg == "--hard-fault-rate") {
      opt.fault.hard_fault_rate = rate(arg, value());
      opt.fault.enabled = true;
    } else if (arg == "--fault-retries") {
      opt.fault.max_retries = u32(arg, value());
    } else if (arg == "--fault-backoff") {
      opt.fault.retry_backoff_base = u32(arg, value());
    } else if (arg == "--shard") {
      const std::string v = value();
      const std::size_t sep = v.find_first_of("/:");
      if (sep == std::string::npos) bad(arg, v.c_str());
      opt.shard_index = u32(arg, v.substr(0, sep).c_str());
      opt.shard_count = u32(arg, v.substr(sep + 1).c_str());
      if (opt.shard_count == 0 || opt.shard_index >= opt.shard_count)
        usage(argv[0], 2);
    } else if (arg.size() > 1 && arg[0] == '-') {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      usage(argv[0], 2);
    } else {
      positional.push_back(arg);
    }
  }
  // An in-process cell has no wall clock to enforce (see run_sweep).
  if (!so.isolate && (opt.cell_timeout_ms > 0 || so.debug_hang_cell >= 0)) {
    std::fprintf(stderr,
                 "--timeout-ms and --debug-hang-cell need --isolate\n");
    usage(argv[0], 2);
  }
  return opt;
}

}  // namespace disco::sim
