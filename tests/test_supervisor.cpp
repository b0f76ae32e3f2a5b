// Crash-resilient sweep supervisor: process isolation survives SIGSEGV,
// the isolated wall-clock budget with SIGTERM/SIGKILL escalation, retry
// with backoff, checkpoint/resume byte-identity, in-sim
// deadlock/livelock/starvation classification, and the SIGINT
// flush-and-resume path. The deterministic debug fault hooks
// (--debug-crash-cell & co.) stand in for real crashes and hangs. The
// wall-clock budgets here only ever stop a deliberately hung child; they
// are set far above a healthy cell's run time so load cannot trip them.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/wait.h>

#include <bit>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "cmp/system.h"
#include "common/interrupt.h"
#include "sim/json_export.h"
#include "sim/supervisor.h"
#include "sim/sweep.h"
#include "sim/wire.h"
#include "workload/profile.h"

namespace disco::sim {
namespace {

RunOptions tiny_run() {
  RunOptions opt;
  opt.warmup_ops_per_core = 2000;
  opt.warmup_cycles = 2000;
  opt.measure_cycles = 8000;
  return opt;
}

std::vector<SweepCell> small_grid() {
  const RunOptions opt = tiny_run();
  std::vector<SweepCell> cells;
  std::size_t group = 0;
  for (const char* name : {"canneal", "swaptions"}) {
    const auto& profile = workload::profile_by_name(name);
    for (const Scheme s : {Scheme::CC, Scheme::DISCO}) {
      SystemConfig cfg;
      cfg.scheme = s;
      SweepCell c{cfg, profile, opt};
      c.group = group;
      cells.push_back(std::move(c));
    }
    ++group;
  }
  return cells;
}

std::string as_json(const SweepResult& r) {
  std::ostringstream os;
  write_json(os, r.ok_results());
  return os.str();
}

SweepOptions quiet(unsigned threads) {
  SweepOptions opt;
  opt.threads = threads;
  opt.progress = false;
  return opt;
}

/// Unique scratch dir per test, removed on destruction.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag)
      : path_(std::filesystem::temp_directory_path() /
              ("disco-supervisor-" + tag + "-" + std::to_string(::getpid()))) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  std::string str() const { return path_.string(); }
  std::string manifest() const { return (path_ / "manifest.jsonl").string(); }
  bool has(const std::string& name) const {
    return std::filesystem::exists(path_ / name);
  }

 private:
  std::filesystem::path path_;
};

/// RAII guard: some tests raise the process interrupt flag; it must never
/// leak into later tests.
struct InterruptFlagGuard {
  ~InterruptFlagGuard() { interrupt_flag().store(false); }
};

// ---------------------------------------------------------------------------
// Stall classification + wire format (pure units)
// ---------------------------------------------------------------------------

TEST(StallClassification, ActivityWithoutRetirementIsLivelock) {
  EXPECT_EQ(cmp::classify_stall(true, 12, 0), cmp::StallKind::Livelock);
  EXPECT_EQ(cmp::classify_stall(true, 0, 5), cmp::StallKind::Livelock);
}

TEST(StallClassification, StuckInflightFlitsAreDeadlock) {
  EXPECT_EQ(cmp::classify_stall(false, 7, 0), cmp::StallKind::Deadlock);
  EXPECT_EQ(cmp::classify_stall(false, 1, 3), cmp::StallKind::Deadlock);
}

TEST(StallClassification, EmptyNetworkWithStarvedSourcesIsStarvation) {
  EXPECT_EQ(cmp::classify_stall(false, 0, 4), cmp::StallKind::Starvation);
  EXPECT_EQ(cmp::classify_stall(false, 0, 0), cmp::StallKind::Starvation);
}

TEST(WireFormat, RoundTripIsBitExact) {
  CellResult r;
  r.workload = "w\"ith \\escapes\nand\tcontrol\x01";
  r.algorithm = "delta";
  r.scheme = Scheme::CNC;
  r.measured_cycles = 123456789;
  r.l1_misses = ~0ULL;
  r.avg_nuca_latency = 0.1 + 0.2;  // a value with no exact decimal rendering
  r.avg_stored_ratio = 1.0 / 3.0;
  r.l2_miss_rate = -0.0;
  r.energy.dram_nj = 6.02214076e23;
  r.fault.enabled = true;
  r.fault.crc_checks = 42;
  r.invariants.enabled = true;
  r.invariants.topology_violations = 5;
  r.invariants.first_violation = "cycle 7: credit pool underflow";
  r.exposed_decomp_cycles = 9876;
  r.trace_text = "line1\nline2\n";

  const std::string encoded = wire::encode_result(r);
  const CellResult d = wire::decode_result(wire::parse_object(encoded));
  EXPECT_EQ(d.workload, r.workload);
  EXPECT_EQ(d.scheme, r.scheme);
  EXPECT_EQ(d.l1_misses, r.l1_misses);
  // Bit patterns, not value comparison: distinguishes -0.0 from 0.0.
  EXPECT_EQ(std::bit_cast<std::uint64_t>(d.avg_nuca_latency),
            std::bit_cast<std::uint64_t>(r.avg_nuca_latency));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(d.l2_miss_rate),
            std::bit_cast<std::uint64_t>(r.l2_miss_rate));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(d.energy.dram_nj),
            std::bit_cast<std::uint64_t>(r.energy.dram_nj));
  EXPECT_TRUE(d.fault.enabled);
  EXPECT_EQ(d.fault.crc_checks, 42u);
  EXPECT_EQ(d.invariants.topology_violations, 5u);
  EXPECT_EQ(d.invariants.first_violation, r.invariants.first_violation);
  EXPECT_EQ(d.exposed_decomp_cycles, 9876u);
  EXPECT_EQ(d.trace_text, r.trace_text);
  // Re-encoding the decoded result reproduces the exact bytes.
  EXPECT_EQ(wire::encode_result(d), encoded);
}

// A forked child writes encode_outcome of its attempt to the pipe; the
// parent decodes it and journals encode_outcome of what it decoded. Both
// kinds of attempt (an Ok one that resumed from a snapshot, a failed one)
// must come out as the same bytes, so the pipe payload is the manifest line.
TEST(WireFormat, PipePayloadIsTheManifestLine) {
  SweepCellOutcome ok;
  ok.index = 3;
  ok.group = 1;
  ok.status = CellStatus::Ok;
  ok.attempts = 2;
  ok.wall_ms = 12.5;  // measured by the parent, never sent
  ok.snap_saved_cycles = 4000;
  ok.result.workload = "canneal";
  ok.result.avg_nuca_latency = 0.1 + 0.2;
  ok.result.invariants.topology_violations = 5;
  SweepCellOutcome failed;
  failed.index = 4;
  failed.status = CellStatus::Failed;
  failed.attempts = 1;
  failed.error = "int exception: 42";
  for (const SweepCellOutcome& sent : {ok, failed}) {
    const std::string payload = wire::encode_outcome(sent);
    const SweepCellOutcome journaled =
        wire::decode_outcome(wire::parse_object(payload));
    EXPECT_EQ(wire::encode_outcome(journaled), payload);
    EXPECT_EQ(journaled.status, sent.status);
    EXPECT_EQ(journaled.snap_saved_cycles, sent.snap_saved_cycles);
    EXPECT_EQ(journaled.error, sent.error);
    EXPECT_EQ(journaled.result.invariants.topology_violations,
              sent.ok() ? 5u : 0u);
  }
  // An Ok outcome without its result is refused, not adopted empty.
  std::string no_result = wire::encode_outcome(failed);
  no_result.replace(no_result.find("\"failed\""), 8, "\"ok\"");
  EXPECT_THROW(wire::decode_outcome(wire::parse_object(no_result)),
               std::runtime_error);
}

TEST(WireFormat, RejectsTruncatedAndMalformedPayloads) {
  const std::string good = wire::encode_result(CellResult{});
  EXPECT_THROW(wire::parse_object(good.substr(0, good.size() / 2)),
               std::runtime_error);
  EXPECT_THROW(wire::parse_object(""), std::runtime_error);
  EXPECT_THROW(wire::parse_object("{\"a\":}"), std::runtime_error);
  EXPECT_THROW(wire::parse_object(good + "x"), std::runtime_error);
  EXPECT_THROW(wire::decode_result(wire::parse_object("{\"workload\":\"w\"}")),
               std::runtime_error)
      << "missing fields must be an error, not silently defaulted";
}

// ---------------------------------------------------------------------------
// Process isolation
// ---------------------------------------------------------------------------

TEST(Supervisor, IsolatedSweepIsByteIdenticalToInProcess) {
  const auto cells = small_grid();
  const SweepResult inproc = run_sweep(cells, quiet(2));
  SweepOptions iso = quiet(2);
  iso.supervisor.isolate = true;
  const SweepResult isolated = run_sweep(cells, iso);
  ASSERT_EQ(inproc.completed, cells.size());
  ASSERT_EQ(isolated.completed, cells.size());
  EXPECT_EQ(as_json(isolated), as_json(inproc))
      << "forked children must reproduce in-process metrics bit-for-bit";
}

TEST(Supervisor, SurvivesChildCrashAndRetriesWithBackoff) {
  ScratchDir dir("crash-retry");
  auto cells = small_grid();
  SweepOptions opt = quiet(2);
  opt.supervisor.isolate = true;
  opt.supervisor.checkpoint_dir = dir.str();
  opt.supervisor.max_retries = 2;
  opt.supervisor.retry_backoff_ms = 50;
  opt.supervisor.debug_crash_cell = 1;
  opt.supervisor.debug_crash_attempts = 1;  // attempt 2 succeeds
  const SweepResult r = run_sweep(cells, opt);
  EXPECT_TRUE(r.all_ok()) << "a crashing cell must be retried, not fatal";
  EXPECT_EQ(r.completed, cells.size());
  EXPECT_EQ(r.cells[1].attempts, 2u);
  EXPECT_GE(r.cells[1].wall_ms, 50.0) << "retry must wait out the backoff";
  for (const std::size_t i : {0UL, 2UL, 3UL})
    EXPECT_EQ(r.cells[i].attempts, 1u) << "cell " << i;
  EXPECT_TRUE(dir.has("postmortem-cell1-attempt1.txt"))
      << "the crashing attempt must leave a black box";
}

TEST(Supervisor, CrashRecordedWhenRetriesExhausted) {
  ScratchDir dir("crash-exhaust");
  auto cells = small_grid();
  SweepOptions opt = quiet(2);
  opt.supervisor.isolate = true;
  opt.supervisor.checkpoint_dir = dir.str();
  opt.supervisor.max_retries = 1;
  opt.supervisor.retry_backoff_ms = 10;
  opt.supervisor.debug_crash_cell = 2;
  opt.supervisor.debug_crash_attempts = 99;  // never recovers
  const SweepResult r = run_sweep(cells, opt);
  EXPECT_FALSE(r.all_ok());
  EXPECT_EQ(r.failed, 1u);
  EXPECT_EQ(r.crashed, 1u);
  EXPECT_EQ(r.completed, cells.size() - 1) << "other cells must still finish";
  EXPECT_EQ(r.cells[2].status, CellStatus::Crashed);
  EXPECT_EQ(r.cells[2].attempts, 2u);
  EXPECT_NE(r.cells[2].error.find("SIGSEGV"), std::string::npos)
      << r.cells[2].error;
}

TEST(Supervisor, HungChildIsKilledAndRetried) {
  auto cells = small_grid();
  cells.resize(2);
  SweepOptions opt = quiet(2);
  opt.cell_timeout_ms = 3000;
  opt.supervisor.isolate = true;
  opt.supervisor.max_retries = 1;
  opt.supervisor.retry_backoff_ms = 10;
  opt.supervisor.debug_hang_cell = 0;
  opt.supervisor.debug_crash_attempts = 1;  // the retry runs clean
  const SweepResult r = run_sweep(cells, opt);
  EXPECT_TRUE(r.all_ok())
      << "a hung child must be killed and retried, not hang the sweep";
  EXPECT_EQ(r.cells[0].attempts, 2u);
  EXPECT_TRUE(r.cells[1].ok());
}

TEST(Supervisor, NonStdExceptionBecomesStructuredError) {
  auto cells = small_grid();
  SweepOptions opt = quiet(2);
  opt.supervisor.debug_throw_cell = 1;  // throws the int 42, in-process
  opt.supervisor.max_retries = 0;
  const SweepResult r = run_sweep(cells, opt);
  EXPECT_EQ(r.cells[1].status, CellStatus::Failed);
  EXPECT_EQ(r.cells[1].error, "int exception: 42")
      << "a non-std::exception throw must not std::terminate the sweep";
  EXPECT_EQ(r.completed, cells.size() - 1);
}

// ---------------------------------------------------------------------------
// Checkpoint / resume
// ---------------------------------------------------------------------------

TEST(Supervisor, ResumeSkipsDoneCellsAndReproducesByteIdenticalOutput) {
  ScratchDir dir("resume");
  const auto cells = small_grid();
  const std::string reference = as_json(run_sweep(cells, quiet(2)));

  // First run: cell 2 crashes out permanently; the rest are journaled Ok.
  SweepOptions first = quiet(2);
  first.supervisor.isolate = true;
  first.supervisor.checkpoint_dir = dir.str();
  first.supervisor.max_retries = 0;
  first.supervisor.debug_crash_cell = 2;
  first.supervisor.debug_crash_attempts = 99;
  const SweepResult r1 = run_sweep(cells, first);
  EXPECT_EQ(r1.completed, cells.size() - 1);
  EXPECT_EQ(r1.crashed, 1u);

  const Manifest m = load_manifest(dir.manifest());
  EXPECT_EQ(m.cells, cells.size());
  EXPECT_EQ(m.entries.size(), cells.size());

  // Resume: only the crashed cell reruns. Proof of skipping: cell 0 is now
  // booby-trapped — if the resume reran it, it would crash.
  SweepOptions second = quiet(2);
  second.supervisor.isolate = true;
  second.supervisor.resume_manifest = dir.manifest();
  second.supervisor.debug_crash_cell = 0;
  second.supervisor.debug_crash_attempts = 99;
  second.supervisor.max_retries = 0;
  const SweepResult r2 = run_sweep(cells, second);
  EXPECT_TRUE(r2.all_ok());
  EXPECT_EQ(r2.completed, cells.size());
  EXPECT_EQ(as_json(r2), reference)
      << "a resumed sweep must emit byte-identical aggregate output";
}

TEST(Supervisor, ResumeManifestMismatchThrows) {
  ScratchDir dir("mismatch");
  const auto cells = small_grid();
  SweepOptions first = quiet(1);
  first.supervisor.checkpoint_dir = dir.str();
  (void)run_sweep(cells, first);

  SweepOptions wrong_seed = quiet(1);
  wrong_seed.base_seed = 999;
  wrong_seed.supervisor.resume_manifest = dir.manifest();
  EXPECT_THROW(run_sweep(cells, wrong_seed), std::runtime_error);

  auto fewer = cells;
  fewer.resize(2);
  SweepOptions wrong_shape = quiet(1);
  wrong_shape.supervisor.resume_manifest = dir.manifest();
  EXPECT_THROW(run_sweep(fewer, wrong_shape), std::runtime_error);

  SweepOptions missing = quiet(1);
  missing.supervisor.resume_manifest = dir.str() + "/no-such-manifest.jsonl";
  EXPECT_THROW(run_sweep(cells, missing), std::runtime_error);
}

TEST(Supervisor, InterruptFlushesManifestAndResumeFinishesTheSweep) {
  InterruptFlagGuard guard;
  ScratchDir dir("interrupt");
  const auto cells = small_grid();
  const std::string reference = as_json(run_sweep(cells, quiet(2)));

  // Interrupt already pending when the sweep starts: no cell runs, but the
  // manifest is still written so the work is resumable.
  interrupt_flag().store(true);
  SweepOptions opt = quiet(2);
  opt.supervisor.checkpoint_dir = dir.str();
  const SweepResult r = run_sweep(cells, opt);
  EXPECT_TRUE(r.interrupted);
  EXPECT_FALSE(r.all_ok());
  EXPECT_EQ(r.completed, 0u);
  for (const auto& c : r.cells)
    EXPECT_EQ(c.status, CellStatus::Interrupted) << "cell " << c.index;

  interrupt_flag().store(false);
  const Manifest m = load_manifest(dir.manifest());
  EXPECT_EQ(m.cells, cells.size());
  for (const auto& e : m.entries) EXPECT_EQ(e.status, CellStatus::Interrupted);

  SweepOptions resume = quiet(2);
  resume.supervisor.resume_manifest = dir.manifest();
  const SweepResult done = run_sweep(cells, resume);
  EXPECT_TRUE(done.all_ok());
  EXPECT_EQ(as_json(done), reference);
}

TEST(Supervisor, InterruptStopsRunningIsolatedChildren) {
  InterruptFlagGuard guard;
  ScratchDir dir("interrupt-isolated");
  const auto cells = small_grid();
  const std::string reference = as_json(run_sweep(cells, quiet(2)));

  // Cell 0's child hangs and there is no wall-clock budget, so only the
  // shutdown can stop it. The interrupt lands once the sweep is running.
  SweepOptions opt = quiet(2);
  opt.supervisor.isolate = true;
  opt.supervisor.checkpoint_dir = dir.str();
  opt.supervisor.debug_hang_cell = 0;
  std::thread stopper([&dir] {
    while (!dir.has("manifest.jsonl"))
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    interrupt_flag().store(true);
  });
  const SweepResult r = run_sweep(cells, opt);
  stopper.join();
  EXPECT_TRUE(r.interrupted);
  EXPECT_EQ(r.cells[0].status, CellStatus::Interrupted) << r.cells[0].error;
  EXPECT_EQ(r.cells[0].attempts, 1u);
  errno = 0;
  EXPECT_EQ(::waitpid(-1, nullptr, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD) << "every forked child must be reaped";

  interrupt_flag().store(false);
  const Manifest m = load_manifest(dir.manifest());
  bool found = false;
  for (const auto& e : m.entries) {
    if (e.index != 0) continue;
    found = true;
    EXPECT_EQ(e.status, CellStatus::Interrupted);
  }
  EXPECT_TRUE(found) << "the interrupted cell must be journaled";

  SweepOptions resume = quiet(2);
  resume.supervisor.isolate = true;
  resume.supervisor.resume_manifest = dir.manifest();
  resume.supervisor.checkpoint_dir = dir.str();
  const SweepResult done = run_sweep(cells, resume);
  EXPECT_TRUE(done.all_ok());
  EXPECT_EQ(as_json(done), reference);
}

TEST(Supervisor, InterruptDuringRetryBackoffKeepsLastOutcome) {
  InterruptFlagGuard guard;
  auto cells = small_grid();
  cells.resize(1);
  for (const bool isolate : {false, true}) {
    SCOPED_TRACE(isolate ? "isolated" : "in-process");
    interrupt_flag().store(false);
    SweepOptions opt = quiet(1);
    opt.supervisor.isolate = isolate;
    opt.supervisor.debug_throw_cell = 0;
    opt.supervisor.max_retries = 1;
    opt.supervisor.retry_backoff_ms = 20000;
    // Attempt 1 throws at once; the interrupt lands in the 20 s backoff.
    std::thread stopper([] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1000));
      interrupt_flag().store(true);
    });
    const auto t0 = std::chrono::steady_clock::now();
    const SweepResult r = run_sweep(cells, opt);
    const auto waited = std::chrono::steady_clock::now() - t0;
    stopper.join();
    EXPECT_TRUE(r.interrupted);
    EXPECT_EQ(r.cells[0].status, CellStatus::Failed) << r.cells[0].error;
    EXPECT_EQ(r.cells[0].error, "int exception: 42");
    EXPECT_EQ(r.cells[0].attempts, 1u) << "the interrupt cancels the retry";
    EXPECT_LT(waited, std::chrono::seconds(10))
        << "the interrupt must cut the backoff short";
  }
}

// ---------------------------------------------------------------------------
// In-sim no-progress watchdog
// ---------------------------------------------------------------------------

/// Zero-credit NoC: NIs can never inject, so the watchdog must classify the
/// stall as starvation (empty network, starved sources).
SweepCell starved_cell() {
  SystemConfig cfg;
  cfg.scheme = Scheme::Baseline;
  cfg.noc.vc_depth_flits = 0;
  SweepCell c{cfg, workload::profile_by_name("canneal"), tiny_run()};
  return c;
}

TEST(Watchdog, TripsOnZeroCreditStarvationWithClassifiedError) {
  SweepOptions opt = quiet(1);
  opt.progress_watchdog_cycles = 2000;
  opt.supervisor.max_retries = 0;
  const SweepResult r = run_sweep({starved_cell()}, opt);
  ASSERT_EQ(r.cells[0].status, CellStatus::Failed);
  EXPECT_NE(r.cells[0].error.find("watchdog"), std::string::npos)
      << r.cells[0].error;
  EXPECT_NE(r.cells[0].error.find("starvation"), std::string::npos)
      << r.cells[0].error;
}

TEST(Watchdog, HealthyCellNeverTrips) {
  auto cells = small_grid();
  cells.resize(1);
  SweepOptions opt = quiet(1);
  opt.progress_watchdog_cycles = 2000;  // far below the cell's cycle count
  const SweepResult r = run_sweep(cells, opt);
  EXPECT_TRUE(r.all_ok()) << r.cells[0].error;
}

TEST(Watchdog, IsolatedTripWritesPostmortemBlackBox) {
  ScratchDir dir("watchdog-postmortem");
  SweepOptions opt = quiet(1);
  opt.progress_watchdog_cycles = 2000;
  opt.supervisor.isolate = true;
  opt.supervisor.checkpoint_dir = dir.str();
  opt.supervisor.max_retries = 0;
  const SweepResult r = run_sweep({starved_cell()}, opt);
  ASSERT_EQ(r.cells[0].status, CellStatus::Failed);
  EXPECT_NE(r.cells[0].error.find("starvation"), std::string::npos);
  ASSERT_TRUE(dir.has("postmortem-cell0-attempt1.txt"));
  std::ifstream f(dir.str() + "/postmortem-cell0-attempt1.txt");
  std::stringstream body;
  body << f.rdbuf();
  EXPECT_NE(body.str().find("postmortem black box"), std::string::npos);
  EXPECT_NE(body.str().find("stall_census"), std::string::npos);
  EXPECT_NE(body.str().find("last_progress_cycle"), std::string::npos);
}

// ---------------------------------------------------------------------------
// The acceptance drill: one crash + one hang in one isolated sweep
// ---------------------------------------------------------------------------

TEST(Supervisor, CrashAndHangInOneSweepRecoverEndToEnd) {
  InterruptFlagGuard guard;
  ScratchDir dir("acceptance");
  const auto cells = small_grid();
  const std::string reference = as_json(run_sweep(cells, quiet(2)));

  SweepOptions opt = quiet(2);
  opt.cell_timeout_ms = 3000;
  opt.supervisor.isolate = true;
  opt.supervisor.checkpoint_dir = dir.str();
  opt.supervisor.max_retries = 1;
  opt.supervisor.retry_backoff_ms = 10;
  opt.supervisor.debug_crash_cell = 1;
  opt.supervisor.debug_hang_cell = 3;
  opt.supervisor.debug_crash_attempts = 99;  // both cells exhaust retries
  const SweepResult r = run_sweep(cells, opt);
  EXPECT_EQ(r.completed, cells.size() - 2)
      << "healthy cells must complete around the crash and the hang";
  EXPECT_EQ(r.cells[1].status, CellStatus::Crashed);
  EXPECT_EQ(r.cells[1].attempts, 2u) << "crash retried up to max_retries";
  EXPECT_EQ(r.cells[3].status, CellStatus::TimedOut);
  EXPECT_EQ(r.cells[3].attempts, 2u) << "hang retried up to max_retries";
  EXPECT_TRUE(dir.has("postmortem-cell1-attempt1.txt"));
  EXPECT_TRUE(dir.has("postmortem-cell3-attempt1.txt"));

  // Resume with the faults gone (the flaky machine rebooted): byte-identical
  // aggregate output vs the uninterrupted reference.
  SweepOptions resume = quiet(2);
  resume.supervisor.isolate = true;
  resume.supervisor.resume_manifest = dir.manifest();
  resume.supervisor.checkpoint_dir = dir.str();
  const SweepResult done = run_sweep(cells, resume);
  EXPECT_TRUE(done.all_ok());
  EXPECT_EQ(as_json(done), reference);

  // Resuming the completed manifest is a no-op that still reproduces it.
  SweepOptions again = quiet(2);
  again.supervisor.resume_manifest = dir.manifest();
  again.supervisor.debug_crash_cell = 0;  // would crash if anything reran
  again.supervisor.debug_crash_attempts = 99;
  again.supervisor.max_retries = 0;
  const SweepResult noop = run_sweep(cells, again);
  EXPECT_TRUE(noop.all_ok());
  EXPECT_EQ(as_json(noop), reference);
}

// ---------------------------------------------------------------------------
// Mid-cell checkpointing: SIGKILL between snapshots, byte-identical resume
// ---------------------------------------------------------------------------

TEST(MidCellCheckpoint, SigkilledWorkerResumesByteIdenticallyAnyThreadCount) {
  const auto cells = small_grid();
  const std::string reference = as_json(run_sweep(cells, quiet(1)));

  for (const unsigned threads : {1u, 2u}) {
    ScratchDir dir("snapkill-t" + std::to_string(threads));
    SweepOptions opt = quiet(threads);
    opt.supervisor.isolate = true;
    opt.supervisor.checkpoint_dir = dir.str();
    opt.supervisor.snapshot_interval_cycles = 2000;
    opt.supervisor.max_retries = 1;
    opt.supervisor.retry_backoff_ms = 10;
    // Cell 0 SIGKILLs itself right after the snapshot at measured cycle
    // 4000 (of 8000) on attempt 1 only; attempt 2 must resume mid-cell.
    opt.supervisor.debug_kill_cell = 0;
    opt.supervisor.debug_kill_cycle = 4000;
    const SweepResult r = run_sweep(cells, opt);
    ASSERT_TRUE(r.all_ok()) << "threads=" << threads << ": "
                            << r.cells[0].error;
    EXPECT_EQ(r.cells[0].attempts, 2u)
        << "the SIGKILL must cost exactly one attempt";
    EXPECT_EQ(r.cells[0].snap_saved_cycles, 4000u)
        << "the retry must resume from the cycle-4000 snapshot";
    EXPECT_EQ(as_json(r), reference)
        << "threads=" << threads
        << ": resumed sweep must be byte-identical to an uninterrupted run";

    // Manifest lineage: the journal records the cycles saved by recovery.
    const Manifest m = load_manifest(dir.manifest());
    bool found = false;
    for (const auto& e : m.entries) {
      if (e.index != 0) continue;
      found = true;
      EXPECT_EQ(e.snap_saved_cycles, 4000u);
    }
    EXPECT_TRUE(found);

    // Snapshot-dir hygiene: terminal cells leave no snapshots behind.
    for (std::size_t i = 0; i < cells.size(); ++i) {
      EXPECT_FALSE(dir.has("snap-cell" + std::to_string(i) + ".bin"))
          << "snapshot for completed cell " << i << " was not GCed";
    }
  }
}

TEST(MidCellCheckpoint, CorruptedSnapshotFallsBackToFromZeroRetry) {
  auto cells = small_grid();
  cells.resize(1);
  const std::string reference = as_json(run_sweep(cells, quiet(1)));

  ScratchDir dir("snapcorrupt");
  // A stale, corrupted snapshot is already sitting where cell 0 would
  // resume from (e.g. disk corruption after a crash).
  {
    std::ofstream f(dir.str() + "/snap-cell0.bin", std::ios::binary);
    f << "DSNPgarbage-not-a-valid-snapshot-payload";
  }
  SweepOptions opt = quiet(1);
  opt.supervisor.isolate = true;
  opt.supervisor.checkpoint_dir = dir.str();
  opt.supervisor.snapshot_interval_cycles = 2000;
  const SweepResult r = run_sweep(cells, opt);
  ASSERT_TRUE(r.all_ok()) << r.cells[0].error;
  EXPECT_EQ(r.cells[0].snap_saved_cycles, 0u)
      << "checksum rejection must fall back to a from-zero run";
  EXPECT_EQ(as_json(r), reference);
  EXPECT_FALSE(dir.has("snap-cell0.bin"));
}

TEST(MidCellCheckpoint, FreshSweepClearsStaleSnapshots) {
  auto cells = small_grid();
  cells.resize(1);
  ScratchDir dir("snapstale");
  {
    std::ofstream f(dir.str() + "/snap-cell0.bin", std::ios::binary);
    f << "stale";
    std::ofstream t(dir.str() + "/snap-cell0.bin.tmp", std::ios::binary);
    t << "torn";
  }
  SweepOptions opt = quiet(1);
  opt.supervisor.isolate = true;
  opt.supervisor.checkpoint_dir = dir.str();
  const SweepResult r = run_sweep(cells, opt);
  EXPECT_TRUE(r.all_ok());
  EXPECT_FALSE(dir.has("snap-cell0.bin"))
      << "a fresh (non-resume) sweep must invalidate leftover snapshots";
  EXPECT_FALSE(dir.has("snap-cell0.bin.tmp"));
}

// ---------------------------------------------------------------------------
// Manifest corruption containment (per-entry, not whole-file)
// ---------------------------------------------------------------------------

TEST(ManifestHardening, CorruptedEntryIsDroppedNotFatal) {
  auto cells = small_grid();
  cells.resize(2);
  ScratchDir dir("mancorrupt");
  SweepOptions opt = quiet(1);
  opt.supervisor.isolate = true;
  opt.supervisor.checkpoint_dir = dir.str();
  const SweepResult r = run_sweep(cells, opt);
  ASSERT_TRUE(r.all_ok());

  // Corrupt cell 0's journal entry: unknown status name (a parseable line
  // whose content is bad — the torn-line path is covered elsewhere).
  std::stringstream body;
  {
    std::ifstream f(dir.manifest());
    body << f.rdbuf();
  }
  std::string text = body.str();
  const auto pos = text.find("\"ok\"");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 4, "\"ok!\"");
  {
    std::ofstream f(dir.manifest(), std::ios::trunc);
    f << text;
  }

  const Manifest m = load_manifest(dir.manifest());
  EXPECT_EQ(m.entries.size(), 1u)
      << "the corrupted entry is dropped; the healthy one survives";

  // Resume reruns only the dropped cell and reproduces the full sweep.
  const std::string reference = as_json(run_sweep(cells, quiet(1)));
  SweepOptions resume = quiet(1);
  resume.supervisor.isolate = true;
  resume.supervisor.resume_manifest = dir.manifest();
  resume.supervisor.checkpoint_dir = dir.str();
  const SweepResult done = run_sweep(cells, resume);
  EXPECT_TRUE(done.all_ok());
  EXPECT_EQ(as_json(done), reference);
}

}  // namespace
}  // namespace disco::sim
