#include "sim/supervisor.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/stat.h>
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
#include <deque>
#include <filesystem>
#include <fstream>
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
      case CellStatus::TimedOut:
      case CellStatus::ResourceExhausted: ++res.failed; break;
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
// State shared by both execution modes
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

/// One sweep's cells, outcomes, journal and progress line. Both modes record
/// each attempt into res.cells[work[w]] and call finalize() exactly once per
/// cell; run_sweep finalizes whatever an interrupt left unfinished.
struct SweepState {
  const std::vector<SweepCell>& prepared;
  const std::vector<std::size_t>& work;
  const SweepOptions& opt;
  SweepResult& res;
  CheckpointJournal& journal;
  detail::ProgressMeter& progress;
  const SupervisorOptions& so = opt.supervisor;
  const unsigned attempt_limit =
      so.max_retries < UINT_MAX ? so.max_retries + 1 : UINT_MAX;
  std::vector<Clock::time_point> cell_start =
      std::vector<Clock::time_point>(work.size());  ///< per work item
  std::vector<char> done = std::vector<char>(work.size());  ///< finalized

  SweepCellOutcome& outcome(std::size_t w) { return res.cells[work[w]]; }

  /// Whether the attempt just recorded for work item `w` earns a retry; if
  /// so, notes it and sets `backoff_ms` to the delay before it.
  bool plan_retry(std::size_t w, std::uint64_t& backoff_ms) {
    const SweepCellOutcome& out = outcome(w);
    const bool retryable = out.status == CellStatus::Failed ||
                           out.status == CellStatus::Crashed ||
                           out.status == CellStatus::TimedOut ||
                           out.status == CellStatus::ResourceExhausted;
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
  void finalize(std::size_t w) {
    SweepCellOutcome& out = outcome(w);
    out.wall_ms = out.attempts > 0 ? ms_since(cell_start[w]) : 0.0;
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
    done[w] = 1;
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
// Parent side of --isolate: single-threaded poll() scheduler
// ---------------------------------------------------------------------------

/// Grace between a timed-out child's SIGTERM and its SIGKILL. The child's
/// SIGTERM handler writes its postmortem and exits at once; the grace only
/// bounds a handler that wedges.
constexpr double kHangGraceMs = 2000;

struct ChildProc {
  pid_t pid = -1;
  int fd = -1;
  std::size_t windex = 0;  ///< index into the work list
  unsigned attempt = 1;
  Clock::time_point start;
  bool term_sent = false;       ///< SIGTERM sent for exceeding the budget
  bool interrupt_sent = false;  ///< SIGTERM sent for a sweep shutdown
  bool killed = false;          ///< escalated to SIGKILL
  bool rss_killed = false;      ///< SIGKILLed for exceeding --max-rss-mb
  std::uint64_t rss_mb = 0;     ///< RSS at the moment of the kill
  Clock::time_point term_at;
  std::string buf;  ///< accumulated pipe payload
};

struct PendingAttempt {
  std::size_t windex = 0;
  unsigned attempt = 1;
  Clock::time_point not_before;
};

class IsolatedScheduler {
 public:
  explicit IsolatedScheduler(SweepState& st)
      : st_(st), opt_(st.opt), so_(st.so) {}

  void run() {
    // The scheduler itself stays single-threaded: forking from a process
    // with live worker threads can deadlock the child on allocator locks.
    const std::size_t slots =
        std::min<std::size_t>(detail::resolve_threads(opt_.threads),
                              std::max<std::size_t>(st_.work.size(), 1));
    const auto now0 = Clock::now();
    for (std::size_t w = 0; w < st_.work.size(); ++w)
      pending_.push_back({w, 1, now0});

    bool shutdown_sent = false;
    while (!running_.empty() || !pending_.empty()) {
      if (interrupt_requested() && !shutdown_sent) {
        shutdown_sent = true;
        begin_shutdown();
      }
      if (!interrupt_requested()) launch_ready(slots);
      if (running_.empty()) {
        if (pending_.empty()) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        continue;
      }
      poll_children();
      enforce_deadlines();
    }
  }

 private:
  void launch_ready(std::size_t slots) {
    const auto now = Clock::now();
    for (auto it = pending_.begin();
         it != pending_.end() && running_.size() < slots;) {
      if (it->not_before <= now) {
        spawn(*it);
        it = pending_.erase(it);
      } else {
        ++it;
      }
    }
  }

  void spawn(const PendingAttempt& p) {
    const std::size_t i = st_.work[p.windex];
    if (p.attempt == 1) st_.cell_start[p.windex] = Clock::now();
    int fds[2];
    if (::pipe(fds) != 0) {
      record_final(p.windex, p.attempt, CellStatus::Failed,
                   std::string("pipe: ") + std::strerror(errno));
      return;
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      record_final(p.windex, p.attempt, CellStatus::Failed,
                   std::string("fork: ") + std::strerror(errno));
      return;
    }
    if (pid == 0) {
      ::close(fds[0]);
      child_main(st_.prepared[i], i, p.attempt, opt_, fds[1]);  // never returns
    }
    ::close(fds[1]);
    ::fcntl(fds[0], F_SETFL, O_NONBLOCK);
    ChildProc c;
    c.pid = pid;
    c.fd = fds[0];
    c.windex = p.windex;
    c.attempt = p.attempt;
    c.start = Clock::now();
    running_.push_back(std::move(c));
  }

  void poll_children() {
    std::vector<pollfd> fds(running_.size());
    for (std::size_t k = 0; k < running_.size(); ++k)
      fds[k] = {running_[k].fd, POLLIN, 0};
    ::poll(fds.data(), static_cast<nfds_t>(fds.size()), 50);

    std::vector<std::size_t> closed;
    for (std::size_t k = 0; k < running_.size(); ++k) {
      if ((fds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      ChildProc& c = running_[k];
      char tmp[4096];
      for (;;) {
        const ssize_t n = ::read(c.fd, tmp, sizeof tmp);
        if (n > 0) {
          c.buf.append(tmp, static_cast<std::size_t>(n));
          continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        closed.push_back(k);  // EOF (or hard read error): child is done
        break;
      }
    }
    for (auto it = closed.rbegin(); it != closed.rend(); ++it) reap(*it);
  }

  void reap(std::size_t k) {
    ChildProc c = std::move(running_[k]);
    running_.erase(running_.begin() + static_cast<std::ptrdiff_t>(k));
    ::close(c.fd);
    int wstatus = 0;
    while (::waitpid(c.pid, &wstatus, 0) < 0 && errno == EINTR) {
    }

    SweepCellOutcome& out = st_.outcome(c.windex);
    out.attempts = c.attempt;
    out.error.clear();
    classify_exit(c, wstatus, out);
    std::uint64_t backoff = 0;
    if (st_.plan_retry(c.windex, backoff)) {
      pending_.push_back(
          {c.windex, c.attempt + 1,
           Clock::now() + std::chrono::milliseconds(backoff)});
      return;
    }
    st_.finalize(c.windex);
  }

  void classify_exit(const ChildProc& c, int wstatus,
                     SweepCellOutcome& out) const {
    if (c.interrupt_sent) {
      out.status = CellStatus::Interrupted;
      out.error = "sweep interrupted";
      return;
    }
    if (c.rss_killed) {
      out.status = CellStatus::ResourceExhausted;
      out.error = "child resident set " + std::to_string(c.rss_mb) +
                  "MiB exceeded the " + std::to_string(so_.max_rss_mb) +
                  "MiB --max-rss-mb cap (killed)";
      return;
    }
    if (c.term_sent) {
      out.status = CellStatus::TimedOut;
      out.error = "cell exceeded " + std::to_string(opt_.cell_timeout_ms) +
                  "ms budget (child " + (c.killed ? "killed" : "terminated") +
                  ")";
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
        SweepCellOutcome sent =
            wire::decode_outcome(wire::parse_object(c.buf));
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
      // The child acknowledged our SIGTERM (term_sent handled above, so this
      // is a stray 124 — treat it like a timeout ack all the same).
      out.status = CellStatus::TimedOut;
      out.error = "child acknowledged termination";
      return;
    }
    out.status = CellStatus::Crashed;
    out.error = "child exited with unexpected code " + std::to_string(code);
  }

  /// Resident set of `pid` in MiB via /proc/<pid>/statm (Linux; returns 0
  /// where /proc is unavailable, which disables the cap gracefully).
  static std::uint64_t read_rss_mb(pid_t pid) {
    char path[64];
    std::snprintf(path, sizeof path, "/proc/%d/statm", static_cast<int>(pid));
    std::FILE* f = std::fopen(path, "r");
    if (f == nullptr) return 0;
    unsigned long long size = 0, resident = 0;
    const int n = std::fscanf(f, "%llu %llu", &size, &resident);
    std::fclose(f);
    if (n != 2) return 0;
    static const long page = ::sysconf(_SC_PAGESIZE);
    return resident * static_cast<unsigned long long>(page) / (1024 * 1024);
  }

  void enforce_deadlines() {
    const auto now = Clock::now();
    for (ChildProc& c : running_) {
      // Memory watchdog: a worker past the RSS cap is killed outright
      // (SIGTERM could be absorbed by an allocator stuck in swap-thrash)
      // and journaled as resource_exhausted, not conflated with hangs.
      if (so_.max_rss_mb > 0 && !c.term_sent && !c.interrupt_sent &&
          !c.rss_killed) {
        const std::uint64_t rss = read_rss_mb(c.pid);
        if (rss > so_.max_rss_mb) {
          ::kill(c.pid, SIGKILL);
          c.rss_killed = true;
          c.rss_mb = rss;
          continue;
        }
      }
      if (c.term_sent || c.interrupt_sent) {
        if (!c.killed &&
            ms_since(c.term_at) > kHangGraceMs) {
          ::kill(c.pid, SIGKILL);
          c.killed = true;
        }
        continue;
      }
      if (opt_.cell_timeout_ms > 0 &&
          std::chrono::duration<double, std::milli>(now - c.start).count() >
              static_cast<double>(opt_.cell_timeout_ms)) {
        ::kill(c.pid, SIGTERM);
        c.term_sent = true;
        c.term_at = now;
      }
    }
  }

  void begin_shutdown() {
    const auto now = Clock::now();
    for (ChildProc& c : running_) {
      if (!c.term_sent && !c.interrupt_sent) {
        ::kill(c.pid, SIGTERM);
        c.term_at = now;
      }
      c.interrupt_sent = true;
    }
    // Pending attempts never run; run_sweep finalizes their cells.
    pending_.clear();
  }

  void record_final(std::size_t windex, unsigned attempt, CellStatus status,
                    std::string error) {
    SweepCellOutcome& out = st_.outcome(windex);
    out.attempts = attempt;
    out.status = status;
    out.error = std::move(error);
    st_.finalize(windex);
  }

  SweepState& st_;
  const SweepOptions& opt_;
  const SupervisorOptions& so_;
  std::deque<PendingAttempt> pending_;
  std::vector<ChildProc> running_;
};

// ---------------------------------------------------------------------------
// In-process execution: the thread pool, no fork, no wall clock
// ---------------------------------------------------------------------------

void run_in_process(SweepState& st) {
  detail::run_pool(st.work.size(), st.opt.threads, [&st](std::size_t w) {
    st.cell_start[w] = Clock::now();
    std::uint64_t backoff = 0;
    for (unsigned attempt = 1;; ++attempt) {
      run_attempt(st.prepared[st.work[w]], st.so, attempt,
                  /*in_child=*/false, st.outcome(w));
      if (!st.plan_retry(w, backoff)) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
    }
    st.finalize(w);
  });
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
  SweepState st{prepared, work, opt, res, journal, progress};
  if (so.isolate) {
    IsolatedScheduler(st).run();
  } else {
    run_in_process(st);
  }

  // An interrupt shutdown leaves cells unfinished: one that never ran is
  // Interrupted; one waiting out a retry backoff keeps its last outcome.
  for (std::size_t w = 0; w < work.size(); ++w) {
    if (st.done[w]) continue;
    SweepCellOutcome& out = st.outcome(w);
    if (out.attempts == 0) {
      out.status = CellStatus::Interrupted;
      out.error = "sweep interrupted before this cell ran";
    }
    st.finalize(w);
  }
  tally_outcomes(res);
  res.wall_ms = ms_since(t0);
  return res;
}

}  // namespace disco::sim
