#include "sim/supervisor.h"

#include <malloc.h>
#include <poll.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "cmp/system.h"
#include "common/interrupt.h"
#include "common/rng.h"
#include "compress/decode_error.h"
#include "sim/sweep_internal.h"
#include "sim/wire.h"

namespace disco::sim {
namespace {

using detail::Clock;
using detail::ms_since;

// ---------------------------------------------------------------------------
// SIGINT/SIGTERM -> interrupt flag
// ---------------------------------------------------------------------------

std::atomic<int> g_interrupt_signals{0};

void on_interrupt(int) {
  interrupt_flag().store(true, std::memory_order_relaxed);
  // Second signal: the user really means it; skip the graceful flush.
  if (g_interrupt_signals.fetch_add(1, std::memory_order_relaxed) > 0)
    ::_exit(130);
}

const char* signal_name(int sig) {
  switch (sig) {
    case SIGSEGV: return "SIGSEGV";
    case SIGBUS: return "SIGBUS";
    case SIGFPE: return "SIGFPE";
    case SIGILL: return "SIGILL";
    case SIGABRT: return "SIGABRT";
    case SIGKILL: return "SIGKILL";
    case SIGTERM: return "SIGTERM";
    case SIGINT: return "SIGINT";
    default: return "signal";
  }
}

// ---------------------------------------------------------------------------
// Bookkeeping: cell preparation, outcomes, the checkpoint directory
// ---------------------------------------------------------------------------

/// Resolve groups / seeds / trace config / watchdog per cell, record
/// skipped-by-shard cells in `res`, and append the runnable cell indices to
/// `work` — everything order-dependent, done deterministically before any
/// attempt runs.
std::vector<SweepCell> prepare_cells(const std::vector<SweepCell>& cells,
                                     const SweepOptions& opt, SweepResult& res,
                                     std::vector<std::size_t>& work) {
  res.cells.resize(cells.size());
  std::vector<SweepCell> prepared(cells);
  const unsigned shards = std::max(1u, opt.shard_count);
  for (std::size_t i = 0; i < prepared.size(); ++i) {
    SweepCell& c = prepared[i];
    if (c.group == SweepCell::kAuto) c.group = i;
    if (c.seed_group == SweepCell::kAuto) c.seed_group = c.group;
    if (opt.reseed_cells)
      c.cfg.seed = splitmix64(opt.base_seed,
                              static_cast<std::uint64_t>(c.seed_group));
    if (opt.trace.active()) {
      c.cfg.trace = opt.trace;
      if (!opt.trace.out_path.empty())
        c.cfg.trace.out_path =
            opt.trace.out_path + "-cell" + std::to_string(i) + ".json";
    }
    if (opt.progress_watchdog_cycles > 0)
      c.cfg.progress_watchdog_cycles = opt.progress_watchdog_cycles;
    res.cells[i].index = i;
    res.cells[i].group = c.group;
    if (c.group % shards == opt.shard_index % shards) {
      work.push_back(i);
    } else {
      res.cells[i].status = CellStatus::Skipped;
    }
  }
  return prepared;
}

/// Recompute completed/failed/crashed/skipped/interrupted from cell states.
void tally_outcomes(SweepResult& res) {
  res.completed = 0;
  res.failed = 0;
  res.crashed = 0;
  res.skipped = 0;
  for (const auto& c : res.cells) {
    switch (c.status) {
      case CellStatus::Ok: ++res.completed; break;
      case CellStatus::Skipped: ++res.skipped; break;
      case CellStatus::Interrupted: res.interrupted = true; break;
      case CellStatus::Crashed:
        ++res.crashed;
        ++res.failed;
        break;
      case CellStatus::Failed:
      case CellStatus::TimedOut: ++res.failed; break;
    }
  }
  if (interrupt_requested()) res.interrupted = true;
}

/// Render the in-flight exception — whatever its type — as one line. Must be
/// called from inside a catch block. This is what keeps a cell that throws
/// `42` or a C string a structured cell error instead of a terminate().
std::string describe_current_exception() {
  try {
    throw;
  } catch (const compress::DecodeError& e) {
    return std::string("decode error: ") + e.what();
  } catch (const std::exception& e) {
    return e.what();
  } catch (const char* s) {
    return std::string("c-string exception: ") + s;
  } catch (const std::string& s) {
    return "string exception: " + s;
  } catch (int v) {
    return "int exception: " + std::to_string(v);
  } catch (long v) {
    return "long exception: " + std::to_string(v);
  } catch (...) {
    return "exception of unknown type";
  }
}

std::string encode_header(std::size_t cells, const SweepOptions& opt) {
  return "{\"manifest\":1,\"cells\":" + std::to_string(cells) +
         ",\"base_seed\":" + std::to_string(opt.base_seed) +
         ",\"shard_index\":" + std::to_string(opt.shard_index) +
         ",\"shard_count\":" + std::to_string(std::max(1u, opt.shard_count)) +
         "}";
}

std::string snapshot_path_for(const std::string& dir, std::size_t cell) {
  return dir + "/snap-cell" + std::to_string(cell) + ".bin";
}

/// Delete a cell's snapshot (and any torn tmp file) — called when the cell
/// reaches a terminal outcome, so checkpoint dirs never accumulate stale
/// mid-cell state. Interrupted cells keep theirs for the --resume rerun.
void gc_snapshot(const std::string& dir, std::size_t cell) {
  if (dir.empty()) return;
  const std::string path = snapshot_path_for(dir, cell);
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

/// Append-only checkpoint journal with atomic replacement: the manifest is
/// rewritten to a tmp file and rename()d into place after every cell, so a
/// reader (or a resume after SIGKILL) only ever sees a complete, consistent
/// file.
class CheckpointJournal {
 public:
  void open(const std::string& dir, std::string header,
            std::vector<std::string> carried) {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    path_ = dir + "/manifest.jsonl";
    tmp_ = path_ + ".tmp";
    lines_.clear();
    lines_.push_back(std::move(header));
    for (auto& l : carried) lines_.push_back(std::move(l));
    flush();
  }

  bool active() const { return !path_.empty(); }

  void append(std::string line) {
    if (!active()) return;
    std::lock_guard<std::mutex> lock(mu_);
    lines_.push_back(std::move(line));
    flush();
  }

 private:
  void flush() {
    std::ofstream f(tmp_, std::ios::trunc);
    for (const auto& l : lines_) f << l << '\n';
    f.flush();
    f.close();
    std::rename(tmp_.c_str(), path_.c_str());
  }

  std::string path_;
  std::string tmp_;
  std::vector<std::string> lines_;
  std::mutex mu_;
};

// ---------------------------------------------------------------------------
// Deterministic debug faults (tests + the CI recovery drill)
// ---------------------------------------------------------------------------

/// A debug hang is isolated-only: run_sweep rejects it in-process, where
/// nothing could stop it.
void debug_fault_hook(const SupervisorOptions& so, std::size_t cell,
                      unsigned attempt, bool in_child) {
  if (attempt > so.debug_crash_attempts) return;
  const auto is = [cell](int k) {
    return k >= 0 && static_cast<std::size_t>(k) == cell;
  };
  if (is(so.debug_crash_cell)) {
    if (in_child) std::raise(SIGSEGV);
    throw std::runtime_error("debug: injected crash");
  }
  if (is(so.debug_throw_cell)) throw 42;  // deliberately not a std::exception
  if (is(so.debug_hang_cell) && in_child) {
    for (;;) ::pause();  // until the parent's SIGTERM/SIGKILL
  }
}

// ---------------------------------------------------------------------------
// Retries and the final outcome, the same for both kinds of attempt
// ---------------------------------------------------------------------------

/// Backoff before the retry that follows attempt `attempt` (>= 1):
/// base_ms << (attempt - 1), saturating at kMaxBackoffMs (~35 years, still
/// safe to add to a steady_clock time point) instead of overflowing.
constexpr std::uint64_t kMaxBackoffMs = std::uint64_t{1} << 40;

std::uint64_t retry_backoff_ms(std::uint64_t base_ms, unsigned attempt) {
  const unsigned shift = attempt - 1;
  if (base_ms == 0) return 0;
  if (shift >= 40 || base_ms > (kMaxBackoffMs >> shift)) return kMaxBackoffMs;
  return base_ms << shift;
}

/// Longest sleep between two looks at the interrupt flag (and, for a forked
/// attempt, at its wall-clock budget).
constexpr int kPollMs = 50;

/// Sleep out a retry backoff in slices of at most kPollMs. False when an
/// interrupt cuts it short: the cell then keeps its last outcome.
bool wait_backoff(std::uint64_t backoff_ms) {
  const auto until = Clock::now() + std::chrono::milliseconds(backoff_ms);
  while (!interrupt_requested()) {
    const auto now = Clock::now();
    if (now >= until) return true;
    std::this_thread::sleep_for(std::min<Clock::duration>(
        until - now, std::chrono::milliseconds(kPollMs)));
  }
  return false;
}

/// One sweep's cells, journal and progress line: whether an attempt earns a
/// retry, and what happens once a cell's outcome is final.
struct SweepState {
  const std::vector<SweepCell>& prepared;
  const SweepOptions& opt;
  CheckpointJournal& journal;
  detail::ProgressMeter& progress;
  const SupervisorOptions& so = opt.supervisor;
  const unsigned attempt_limit =
      so.max_retries < UINT_MAX ? so.max_retries + 1 : UINT_MAX;

  /// Whether the attempt just recorded in `out` earns a retry; if so, notes
  /// it and sets `backoff_ms` to the delay before it.
  bool plan_retry(const SweepCellOutcome& out, std::uint64_t& backoff_ms) {
    const bool retryable = out.status == CellStatus::Failed ||
                           out.status == CellStatus::Crashed ||
                           out.status == CellStatus::TimedOut;
    if (!retryable || out.attempts >= attempt_limit || interrupt_requested())
      return false;
    backoff_ms = retry_backoff_ms(so.retry_backoff_ms, out.attempts);
    progress.note("cell " + std::to_string(out.index) + " " +
                  to_string(out.status) + " (" + out.error + "); retry " +
                  std::to_string(out.attempts + 1) + "/" +
                  std::to_string(attempt_limit) + " in " +
                  std::to_string(backoff_ms) + "ms");
    return true;
  }

  /// The cell's outcome is final: journal it, drop its snapshot, report it.
  void finalize(const SweepCellOutcome& out) {
    journal.append(wire::encode_outcome(out));
    // An interrupted cell keeps its snapshot: the --resume rerun picks it up
    // mid-cell.
    if (out.status != CellStatus::Interrupted)
      gc_snapshot(so.checkpoint_dir, out.index);
    if (!out.ok()) {
      progress.note("cell " + std::to_string(out.index) + " (" +
                    prepared[out.index].profile.name + "/" +
                    std::string(to_string(prepared[out.index].cfg.scheme)) +
                    ") " + to_string(out.status) + ": " + out.error);
    }
    progress.cell_done();
  }
};

/// One attempt at cell `out.index`, in-process or in a forked child: debug
/// hook, run_cell, and any exception rendered into the outcome.
void run_attempt(const SweepCell& cell, const SupervisorOptions& so,
                 unsigned attempt, bool in_child, SweepCellOutcome& out) {
  out.attempts = attempt;
  out.error.clear();
  try {
    debug_fault_hook(so, out.index, attempt, in_child);
    out.result = run_cell(cell.cfg, cell.profile, cell.opt);
    out.status = CellStatus::Ok;
  } catch (const cmp::CancelledError&) {
    out.status = CellStatus::Interrupted;
    out.error = "cell interrupted";
  } catch (...) {
    out.status = CellStatus::Failed;
    out.error = describe_current_exception();
  }
}

// ---------------------------------------------------------------------------
// Child side of --isolate
// ---------------------------------------------------------------------------

// Postmortem destination for this child's signal handlers; set before the
// cell runs. The handlers are technically not async-signal-safe (they
// allocate while formatting the black box) — acceptable for a best-effort
// dump from a process that is dying anyway, and the parent's wall-clock
// budget backstops a handler that wedges.
std::string g_child_postmortem;
volatile std::sig_atomic_t g_in_fatal_handler = 0;

void write_child_postmortem(const char* reason) {
  if (g_child_postmortem.empty()) return;
  std::ofstream f(g_child_postmortem);
  if (!f) return;
  if (cmp::CmpSystem* sys = cmp::CmpSystem::current()) {
    sys->write_postmortem(f, reason);
  } else {
    f << "=== DISCO postmortem black box ===\nreason: " << reason
      << "\n(no live system at time of failure)\n";
  }
  f.flush();
}

void on_child_crash(int sig) {
  if (g_in_fatal_handler) ::_exit(128 + sig);
  g_in_fatal_handler = 1;
  write_child_postmortem(signal_name(sig));
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

void on_child_term(int) {
  if (g_in_fatal_handler) ::_exit(124);
  g_in_fatal_handler = 1;
  write_child_postmortem("SIGTERM from supervisor (wall-clock budget or shutdown)");
  ::_exit(124);
}

void write_all(int fd, const std::string& payload) {
  std::size_t off = 0;
  while (off < payload.size()) {
    const ssize_t n = ::write(fd, payload.data() + off, payload.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }
    off += static_cast<std::size_t>(n);
  }
}

[[noreturn]] void child_main(SweepCell cell, std::size_t index,
                             unsigned attempt, const SweepOptions& opt,
                             int wfd) {
  // The cell allocates from the forking pool thread's malloc arena, so the
  // free heap pages inherited from the parent would stay resident unused:
  // hand them back before the cell runs.
  ::malloc_trim(0);
  // Fresh signal dispositions: the parent coordinates interactive shutdown
  // (it SIGTERMs us), so a terminal Ctrl-C must not hit children directly.
  std::signal(SIGINT, SIG_IGN);
  struct sigaction crash;
  std::memset(&crash, 0, sizeof crash);
  crash.sa_handler = on_child_crash;
  sigemptyset(&crash.sa_mask);
  for (const int sig : {SIGSEGV, SIGBUS, SIGFPE, SIGILL, SIGABRT})
    ::sigaction(sig, &crash, nullptr);
  struct sigaction term;
  std::memset(&term, 0, sizeof term);
  term.sa_handler = on_child_term;
  sigemptyset(&term.sa_mask);
  ::sigaction(SIGTERM, &term, nullptr);

  if (!opt.supervisor.checkpoint_dir.empty()) {
    g_child_postmortem = opt.supervisor.checkpoint_dir + "/postmortem-cell" +
                         std::to_string(index) + "-attempt" +
                         std::to_string(attempt) + ".txt";
    cell.cfg.postmortem_path = g_child_postmortem;
  }

  // Black box: keep a small tracer ring live even when the user asked for no
  // tracing, so a postmortem always carries the last events. Tracing is pure
  // observation and trace_text is stripped below, so results stay
  // bit-identical to a non-isolated run.
  bool auto_trace = false;
  if (!cell.cfg.trace.active() && !opt.supervisor.checkpoint_dir.empty()) {
    auto_trace = true;
    cell.cfg.trace.enabled = true;
    cell.cfg.trace.ring_capacity = 4096;
    cell.cfg.trace.out_path.clear();
  }

  // Mid-cell checkpointing: snapshot into the checkpoint dir every N
  // measured cycles and resume from the last good snapshot on a retry.
  std::uint64_t resumed_cycles = 0;
  const bool snapshotting = opt.supervisor.snapshot_interval_cycles > 0 &&
                            !opt.supervisor.checkpoint_dir.empty();
  if (snapshotting) {
    cell.opt.snapshot_interval = opt.supervisor.snapshot_interval_cycles;
    cell.opt.snapshot_path =
        snapshot_path_for(opt.supervisor.checkpoint_dir, index);
    cell.opt.resumed_from_cycles = &resumed_cycles;
    if (opt.supervisor.debug_kill_cell >= 0 &&
        static_cast<std::size_t>(opt.supervisor.debug_kill_cell) == index &&
        attempt <= opt.supervisor.debug_crash_attempts)
      cell.opt.debug_kill_at = opt.supervisor.debug_kill_cycle;
  }

  // The payload is this attempt's outcome in the manifest's own encoding;
  // the parent decodes it and journals the same bytes.
  SweepCellOutcome out;
  out.index = index;
  out.group = cell.group;
  run_attempt(cell, opt.supervisor, attempt, /*in_child=*/true, out);
  if (out.ok()) out.snap_saved_cycles = resumed_cycles;
  if (auto_trace) out.result.trace_text.clear();
  write_all(wfd, wire::encode_outcome(out));
  ::close(wfd);
  std::_Exit(0);
}

// ---------------------------------------------------------------------------
// Parent side of --isolate: one forked attempt, run from a pool thread
// ---------------------------------------------------------------------------

/// Grace between a child's SIGTERM and its SIGKILL. The child's SIGTERM
/// handler writes its postmortem and exits at once; the grace only bounds a
/// handler that wedges.
constexpr double kHangGraceMs = 2000;

/// Why the parent stopped a child, if it did.
enum class Stop { None, Timeout, Interrupt };

void classify_exit(Stop stop, bool killed, int wstatus, const std::string& buf,
                   const SweepOptions& opt, SweepCellOutcome& out) {
  if (stop == Stop::Interrupt) {
    out.status = CellStatus::Interrupted;
    out.error = "sweep interrupted";
    return;
  }
  if (stop == Stop::Timeout) {
    out.status = CellStatus::TimedOut;
    out.error = "cell exceeded " + std::to_string(opt.cell_timeout_ms) +
                "ms budget (child " + (killed ? "killed" : "terminated") + ")";
    return;
  }
  if (WIFSIGNALED(wstatus)) {
    const int sig = WTERMSIG(wstatus);
    out.status = CellStatus::Crashed;
    out.error = "child killed by signal " + std::to_string(sig) + " (" +
                signal_name(sig) + ")";
    return;
  }
  const int code = WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : -1;
  if (code == 0) {
    // The parent owns the cell's identity; the child reports its verdict.
    try {
      SweepCellOutcome sent = wire::decode_outcome(wire::parse_object(buf));
      out.status = sent.status;
      out.error = std::move(sent.error);
      out.snap_saved_cycles = sent.snap_saved_cycles;
      out.result = std::move(sent.result);
    } catch (const std::exception& e) {
      out.status = CellStatus::Failed;
      out.error = std::string("truncated outcome from child: ") + e.what();
    }
    return;
  }
  if (code == 124) {
    // A SIGTERM the parent did not send (Stop::None): treat its ack like a
    // timeout all the same.
    out.status = CellStatus::TimedOut;
    out.error = "child acknowledged termination";
    return;
  }
  out.status = CellStatus::Crashed;
  out.error = "child exited with unexpected code " + std::to_string(code);
}

/// One attempt at cell `i` in a forked child: read its outcome off a pipe
/// until EOF, stop it on an interrupt or past the wall-clock budget
/// (SIGTERM, then SIGKILL after kHangGraceMs), reap it and classify the exit.
/// A pipe or fork failure is a Failed attempt, retried like any other.
void run_forked(const SweepCell& cell, std::size_t i, unsigned attempt,
                const SweepOptions& opt, SweepCellOutcome& out) {
  out.attempts = attempt;
  out.error.clear();
  // Pool threads fork concurrently. Forking with live threads is safe here:
  // glibc's fork resets the malloc and stdio locks in the child, and the
  // child never touches the journal or progress mutexes. One lock from
  // pipe() to the parent's close of the write end keeps pipe ownership
  // exact: no sibling child inherits this write end, so EOF means "this
  // child is done".
  static std::mutex fork_mu;
  int fds[2];
  pid_t pid;
  {
    std::lock_guard<std::mutex> lock(fork_mu);
    if (::pipe(fds) != 0) {
      out.status = CellStatus::Failed;
      out.error = std::string("pipe: ") + std::strerror(errno);
      return;
    }
    pid = ::fork();
    if (pid < 0) {
      out.status = CellStatus::Failed;
      out.error = std::string("fork: ") + std::strerror(errno);
      ::close(fds[0]);
      ::close(fds[1]);
      return;
    }
    if (pid == 0) {
      ::close(fds[0]);
      child_main(cell, i, attempt, opt, fds[1]);  // never returns
    }
    ::close(fds[1]);
  }

  const auto start = Clock::now();
  Stop stop = Stop::None;
  bool killed = false;
  Clock::time_point term_at;
  std::string buf;
  for (;;) {
    pollfd p{fds[0], POLLIN, 0};
    if (::poll(&p, 1, kPollMs) > 0) {
      char tmp[4096];
      const ssize_t n = ::read(fds[0], tmp, sizeof tmp);
      if (n == 0 || (n < 0 && errno != EINTR)) break;  // EOF: child is done
      if (n > 0) buf.append(tmp, static_cast<std::size_t>(n));
    }
    if (stop == Stop::None) {
      if (interrupt_requested()) {
        stop = Stop::Interrupt;
      } else if (opt.cell_timeout_ms > 0 &&
                 ms_since(start) > static_cast<double>(opt.cell_timeout_ms)) {
        stop = Stop::Timeout;
      } else {
        continue;
      }
      ::kill(pid, SIGTERM);
      term_at = Clock::now();
    } else if (!killed && ms_since(term_at) > kHangGraceMs) {
      ::kill(pid, SIGKILL);
      killed = true;
    }
  }
  ::close(fds[0]);
  int wstatus = 0;
  while (::waitpid(pid, &wstatus, 0) < 0 && errno == EINTR) {
  }
  classify_exit(stop, killed, wstatus, buf, opt, out);
}

}  // namespace

void install_interrupt_handlers() {
  struct sigaction sa;
  std::memset(&sa, 0, sizeof sa);
  sa.sa_handler = on_interrupt;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART: a blocked poll()/read() must wake up
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
}

Manifest load_manifest(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot open manifest: " + path);
  Manifest m;
  std::string line;
  bool have_header = false;
  while (std::getline(f, line)) {
    if (line.empty()) continue;
    wire::Value v;
    try {
      v = wire::parse_object(line);
    } catch (const std::exception&) {
      continue;  // torn line: that cell simply reruns
    }
    if (!have_header) {
      if (v.find("manifest") == nullptr)
        throw std::runtime_error("manifest: missing header line in " + path);
      m.cells = v.num_or("cells", 0);
      m.base_seed = v.num_or("base_seed", 0);
      m.shard_index = static_cast<unsigned>(v.num_or("shard_index", 0));
      m.shard_count = static_cast<unsigned>(v.num_or("shard_count", 1));
      have_header = true;
      continue;
    }
    // Per-entry fault containment: a bit-flipped or truncated-but-parseable
    // entry (unknown status name, wrong field kind, missing field — or a
    // line from a build with another field list) is dropped, and that one
    // cell reruns, instead of failing the resume.
    try {
      m.entries.push_back(wire::decode_outcome(v));
    } catch (const std::exception&) {
      continue;
    }
  }
  if (!have_header)
    throw std::runtime_error("manifest: empty or headerless: " + path);
  return m;
}

SweepResult run_sweep(const std::vector<SweepCell>& cells,
                      const SweepOptions& opt) {
  const SupervisorOptions& so = opt.supervisor;
  if (!so.isolate && (opt.cell_timeout_ms > 0 || so.debug_hang_cell >= 0))
    throw std::invalid_argument(
        "run_sweep: a wall-clock budget (cell_timeout_ms) or a debug hang "
        "needs supervisor.isolate; an in-process cell cannot be stopped");
  const auto t0 = Clock::now();
  SweepResult res;
  std::vector<std::size_t> work;
  const std::vector<SweepCell> prepared = prepare_cells(cells, opt, res, work);

  // Resume: adopt the prior run's Ok cells verbatim; everything else reruns.
  std::vector<std::string> carried;
  if (!so.resume_manifest.empty()) {
    Manifest m = load_manifest(so.resume_manifest);
    const unsigned shards = std::max(1u, opt.shard_count);
    if (m.cells != cells.size() || m.base_seed != opt.base_seed ||
        m.shard_index != opt.shard_index % shards || m.shard_count != shards) {
      throw std::runtime_error(
          "resume: manifest " + so.resume_manifest +
          " does not match this sweep (cells " + std::to_string(m.cells) +
          " vs " + std::to_string(cells.size()) + ", base_seed " +
          std::to_string(m.base_seed) + " vs " + std::to_string(opt.base_seed) +
          ", shard " + std::to_string(m.shard_index) + "/" +
          std::to_string(m.shard_count) + " vs " +
          std::to_string(opt.shard_index % shards) + "/" +
          std::to_string(shards) + ")");
    }
    // An adopted line is re-journaled as encode_outcome writes it, which is
    // the line itself: the encoding round-trips exactly.
    for (SweepCellOutcome& e : m.entries) {
      if (!e.ok() || e.index >= res.cells.size()) continue;
      carried.push_back(wire::encode_outcome(e));
      work.erase(std::remove(work.begin(), work.end(), e.index), work.end());
      res.cells[e.index] = std::move(e);
    }
  }

  // Snapshot-directory hygiene: a fresh (non-resume) sweep invalidates any
  // snapshots a previous run left in this checkpoint dir; on resume, only
  // the cells still to be run may keep one.
  if (!so.checkpoint_dir.empty()) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const bool still_to_run =
          !so.resume_manifest.empty() &&
          std::find(work.begin(), work.end(), i) != work.end();
      if (!still_to_run) gc_snapshot(so.checkpoint_dir, i);
    }
  }

  CheckpointJournal journal;
  if (!so.checkpoint_dir.empty())
    journal.open(so.checkpoint_dir, encode_header(cells.size(), opt),
                 std::move(carried));

  detail::ProgressMeter progress(work.size(), opt);
  SweepState st{prepared, opt, journal, progress};
  // One loop for both modes; only the attempt differs.
  detail::run_pool(work.size(), opt.threads, [&](std::size_t w) {
    const std::size_t i = work[w];
    SweepCellOutcome& out = res.cells[i];
    const auto start = Clock::now();
    std::uint64_t backoff = 0;
    for (unsigned attempt = 1;; ++attempt) {
      if (so.isolate) {
        run_forked(prepared[i], i, attempt, opt, out);
      } else {
        run_attempt(prepared[i], so, attempt, /*in_child=*/false, out);
      }
      if (!st.plan_retry(out, backoff) || !wait_backoff(backoff)) break;
    }
    out.wall_ms = ms_since(start);
    st.finalize(out);
  });

  // An interrupt stops the pool from claiming cells; those never ran.
  for (const std::size_t i : work) {
    SweepCellOutcome& out = res.cells[i];
    if (out.attempts > 0) continue;
    out.status = CellStatus::Interrupted;
    out.error = "sweep interrupted before this cell ran";
    st.finalize(out);
  }
  tally_outcomes(res);
  res.wall_ms = ms_since(t0);
  return res;
}

}  // namespace disco::sim
