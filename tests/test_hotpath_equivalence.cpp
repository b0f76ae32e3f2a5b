// Hot-path equivalence suite: the pooled/ring/bitmask tick loop must be
// observationally identical to the seed implementation. Four angles:
//   - the checked-in golden traces still reproduce byte for byte, and every
//     scenario returns the packet pool to its starting live count,
//   - sweep JSON is byte-identical at --threads 1 and --threads 4 on a grid
//     that exercises compression, faults and retransmissions,
//   - healthy {CC, CNC, DISCO} x {delta, sc2} cells on two workloads the
//     golden traces do not use reproduce pinned result-JSON digests,
//   - a mid-cell snapshot resume continues trace- and stats-identical to
//     the uninterrupted run on each golden workload.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cmp/system.h"
#include "noc/packet_pool.h"
#include "sim/experiment.h"
#include "sim/golden.h"
#include "sim/json_export.h"
#include "sim/sweep.h"
#include "workload/profile.h"

namespace disco {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

/// Unique scratch dir per test, removed on destruction.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag)
      : path_(std::filesystem::temp_directory_path() /
              ("disco-hotpath-" + tag + "-" + std::to_string(::getpid()))) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  std::filesystem::path path_;
};

// The three golden workloads the scenario library draws from.
const char* const kGoldenProfiles[] = {"canneal", "dedup", "swaptions"};

TEST(HotPathEquivalence, GoldenScenariosReproduceSeedBytesAndDrainThePool) {
  const std::size_t base = noc::packet_pool().live();
  for (const auto& sc : sim::golden_scenarios()) {
    const std::string expect =
        read_file(std::string(DISCO_TEST_DATA_DIR) + "/golden/" +
                  std::string(sc.name) + ".trace");
    ASSERT_FALSE(expect.empty()) << "missing golden file for " << sc.name;
    const sim::GoldenRun run = sc.run();
    EXPECT_EQ(run.trace, expect)
        << "hot-path rework changed the " << sc.name << " trace";
    // Every packet the scenario allocated must be back on the freelist:
    // a leak here means a refcount cycle or a buffer that never drained.
    EXPECT_EQ(noc::packet_pool().live(), base)
        << "scenario " << sc.name << " leaked pooled packets";
  }
}

TEST(HotPathEquivalence, SweepJsonIsThreadCountInvariantUnderFaults) {
  // A grid that drives every hot-path structure at once: DISCO in-network
  // compression (engine shadows, losers reporting), soft faults (NACK and
  // retransmit traffic through the pool), and plain CC as control.
  sim::RunOptions ropt;
  ropt.warmup_ops_per_core = 2000;
  ropt.warmup_cycles = 2000;
  ropt.measure_cycles = 6000;
  std::vector<sim::SweepCell> cells;
  std::size_t group = 0;
  for (const char* name : kGoldenProfiles) {
    const auto& profile = workload::profile_by_name(name);
    for (const Scheme s : {Scheme::CC, Scheme::DISCO}) {
      SystemConfig cfg;
      cfg.scheme = s;
      cfg.fault.enabled = true;
      cfg.fault.link_bit_flip_rate = 2e-4;
      cfg.fault.flit_drop_rate = 1e-4;
      sim::SweepCell c{cfg, profile, ropt};
      c.group = group;
      cells.push_back(std::move(c));
    }
    ++group;
  }

  sim::SweepOptions serial;
  serial.threads = 1;
  serial.progress = false;
  sim::SweepOptions parallel = serial;
  parallel.threads = 4;

  const sim::SweepResult a = sim::run_sweep(cells, serial);
  const sim::SweepResult b = sim::run_sweep(cells, parallel);
  ASSERT_EQ(a.completed, cells.size());
  ASSERT_EQ(b.completed, cells.size());
  std::ostringstream ja, jb;
  sim::write_json(ja, a.ok_results());
  sim::write_json(jb, b.ok_results());
  EXPECT_EQ(ja.str(), jb.str())
      << "sweep JSON must not depend on the thread count";
}

/// FNV-1a over a string's bytes.
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : s) h = (h ^ static_cast<std::uint8_t>(c)) * 0x100000001B3ULL;
  return h;
}

struct PinnedCell {
  const char* workload;
  Scheme scheme;
  const char* algorithm;
  std::uint64_t digest;  ///< fnv1a of the cell's write_json output
};

// Healthy (fault-free, untraced) cells the golden traces do not cover: the
// plain CC/CNC schemes, and DISCO arbitration on two algorithms. Any change
// to arbitration order (VA grant order, the SA losers list DISCO's
// stable_sort reads) shifts packet timing and so these digests. A change
// that is meant to alter simulated results updates this table, and says so.
constexpr PinnedCell kPinnedCells[] = {
    {"canneal", Scheme::CC, "delta", 0xD82F3FBC5B3DD398ULL},
    {"canneal", Scheme::CC, "sc2", 0xF0B31B1A9A92E674ULL},
    {"canneal", Scheme::CNC, "delta", 0xEB83357AB8D1A2E6ULL},
    {"canneal", Scheme::CNC, "sc2", 0xE95F7ABB0E97D1CEULL},
    {"canneal", Scheme::DISCO, "delta", 0x89CC7E5D9A62DB2EULL},
    {"canneal", Scheme::DISCO, "sc2", 0xB5F8492666FD362ULL},
    {"x264", Scheme::CC, "delta", 0x9BE11676EB142ADAULL},
    {"x264", Scheme::CC, "sc2", 0x74D41EAFDE3B1F9BULL},
    {"x264", Scheme::CNC, "delta", 0x43F1AD04685EDACBULL},
    {"x264", Scheme::CNC, "sc2", 0x4663CCB1D1CB546ULL},
    {"x264", Scheme::DISCO, "delta", 0xCE4D023EAA7B5478ULL},
    {"x264", Scheme::DISCO, "sc2", 0x86C305818C49B3D5ULL},
};

TEST(HotPathEquivalence, HealthyCellsMatchPinnedResultDigests) {
  sim::RunOptions ropt;
  ropt.warmup_ops_per_core = 2000;
  ropt.warmup_cycles = 1000;
  // Long enough that DISCO's arbitration sees confidence ties among more
  // candidates than free engines, where the losers order decides.
  ropt.measure_cycles = 8000;
  for (const PinnedCell& pc : kPinnedCells) {
    SystemConfig cfg;
    cfg.scheme = pc.scheme;
    cfg.algorithm = pc.algorithm;
    const sim::CellResult r =
        sim::run_cell(cfg, workload::profile_by_name(pc.workload), ropt);
    std::ostringstream os;
    sim::write_json(os, r);
    const std::uint64_t got = fnv1a(os.str());
    EXPECT_EQ(got, pc.digest) << pc.workload << "/" << to_string(pc.scheme)
                              << "/" << pc.algorithm << ": 0x" << std::hex
                              << got;
  }
}

TEST(HotPathEquivalence, MidCellSnapshotResumeMatchesUninterruptedRun) {
  for (const char* name : kGoldenProfiles) {
    SCOPED_TRACE(name);
    ScratchDir dir(std::string("resume-") + name);
    const auto& profile = workload::profile_by_name(name);
    SystemConfig cfg;
    cfg.scheme = Scheme::DISCO;
    cfg.seed = 77;
    cfg.trace.enabled = true;
    cfg.trace.ring_capacity = 1 << 14;

    cmp::CmpSystem a(cfg, profile);
    a.functional_warmup(2000);
    a.run(4000);
    const std::string mid = dir.file("mid.bin");
    a.save_snapshot(mid, 0, 1);

    // The restored system must continue exactly like the one that never
    // stopped: same traces, same flit counts, and a byte-identical
    // re-snapshot (pool indices, ring rotations and bitmask state all
    // re-normalize through save/restore).
    cmp::CmpSystem b(cfg, profile);
    b.restore_snapshot(mid, 1);
    ASSERT_EQ(b.now(), a.now());
    const std::string resaved = dir.file("resaved.bin");
    b.save_snapshot(resaved, 0, 1);
    EXPECT_EQ(read_file(mid), read_file(resaved));

    a.run(3000);
    b.run(3000);
    EXPECT_EQ(a.total_core_ops(), b.total_core_ops());
    EXPECT_EQ(a.noc_stats().link_flits, b.noc_stats().link_flits);
    std::ostringstream ta, tb;
    a.tracer()->write_canonical(ta);
    b.tracer()->write_canonical(tb);
    EXPECT_EQ(ta.str(), tb.str())
        << "resumed run diverged from the uninterrupted one";
  }
}

}  // namespace
}  // namespace disco
