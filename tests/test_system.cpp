// Full-system integration tests: the CmpSystem end to end, functional
// warmup consistency, scheme-level behavioural expectations, drain
// (deadlock-freedom) under every scheme, and stat plumbing.
#include <gtest/gtest.h>

#include "cmp/system.h"
#include "sim/experiment.h"
#include "workload/profile.h"

namespace disco::cmp {
namespace {

SystemConfig small_cfg(Scheme scheme, const std::string& algo = "delta") {
  SystemConfig cfg;
  cfg.scheme = scheme;
  cfg.algorithm = algo;
  return cfg;
}

class SchemeRun : public ::testing::TestWithParam<Scheme> {};

TEST_P(SchemeRun, RunsAndDrainsWithoutDeadlock) {
  CmpSystem sys(small_cfg(GetParam()), workload::profile_by_name("dedup"));
  sys.functional_warmup(4000);
  sys.run(15000);
  EXPECT_TRUE(sys.drain(30000)) << "scheme " << to_string(GetParam())
                                << " failed to drain (protocol deadlock?)";
  EXPECT_GT(sys.total_core_ops(), 0u);
  EXPECT_GT(sys.cache_stats().l1_misses, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, SchemeRun,
                         ::testing::Values(Scheme::Baseline, Scheme::CC,
                                           Scheme::CNC, Scheme::DISCO,
                                           Scheme::Ideal),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(System, DeterministicAcrossRuns) {
  auto run_once = [] {
    CmpSystem sys(small_cfg(Scheme::DISCO), workload::profile_by_name("vips"));
    sys.functional_warmup(4000);
    sys.run(10000);
    return std::tuple{sys.total_core_ops(), sys.cache_stats().l1_misses,
                      sys.noc_stats().link_flits,
                      sys.cache_stats().nuca_latency.mean()};
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(System, SeedChangesOutcome) {
  SystemConfig a = small_cfg(Scheme::DISCO);
  SystemConfig b = a;
  b.seed = 999;
  CmpSystem sa(a, workload::profile_by_name("vips"));
  CmpSystem sb(b, workload::profile_by_name("vips"));
  sa.functional_warmup(3000);
  sb.functional_warmup(3000);
  sa.run(8000);
  sb.run(8000);
  EXPECT_NE(sa.noc_stats().link_flits, sb.noc_stats().link_flits);
}

TEST(System, FunctionalWarmupPopulatesHierarchy) {
  CmpSystem sys(small_cfg(Scheme::DISCO), workload::profile_by_name("canneal"));
  sys.functional_warmup(8000);
  std::uint64_t lines = 0;
  for (NodeId n = 0; n < 16; ++n) lines += sys.l2(n).array().valid_lines();
  EXPECT_GT(lines, 5000u);
  // Warm caches mean the first measured window runs at steady-state hit
  // rates rather than cold-start rates.
  sys.run(10000);
  EXPECT_LT(sys.cache_stats().l1_miss_rate(), 0.5);
}

TEST(System, WarmupKeepsDirectoryConsistent) {
  // After functional warmup, timing simulation must proceed without any
  // protocol assertion and drain cleanly (the asserts enforce consistency).
  CmpSystem sys(small_cfg(Scheme::CC), workload::profile_by_name("x264"));
  sys.functional_warmup(10000);
  sys.run(20000);
  EXPECT_TRUE(sys.drain(30000));
}

TEST(System, CompressionExpandsL2Population) {
  CmpSystem base(small_cfg(Scheme::Baseline), workload::profile_by_name("canneal"));
  CmpSystem comp(small_cfg(Scheme::CC), workload::profile_by_name("canneal"));
  base.functional_warmup(20000);
  comp.functional_warmup(20000);
  std::uint64_t base_lines = 0, comp_lines = 0;
  for (NodeId n = 0; n < 16; ++n) {
    base_lines += base.l2(n).array().valid_lines();
    comp_lines += comp.l2(n).array().valid_lines();
  }
  EXPECT_GT(comp_lines, base_lines);
}

TEST(System, DiscoEnginesActive) {
  CmpSystem sys(small_cfg(Scheme::DISCO), workload::profile_by_name("canneal"));
  sys.functional_warmup(8000);
  sys.run(30000);
  const auto& ns = sys.noc_stats();
  EXPECT_GT(ns.engine_starts + ns.inflight_compressions, 0u)
      << "DISCO machinery never engaged";
}

TEST(System, OnlyDiscoUsesInNetworkEngines) {
  for (Scheme s : {Scheme::Baseline, Scheme::CC, Scheme::CNC, Scheme::Ideal}) {
    CmpSystem sys(small_cfg(s), workload::profile_by_name("dedup"));
    sys.functional_warmup(2000);
    sys.run(8000);
    EXPECT_EQ(sys.noc_stats().engine_starts, 0u) << to_string(s);
  }
}

TEST(System, StatsResetKeepsArchitecturalState) {
  CmpSystem sys(small_cfg(Scheme::DISCO), workload::profile_by_name("dedup"));
  sys.functional_warmup(5000);
  sys.run(5000);
  sys.reset_stats();
  EXPECT_EQ(sys.cache_stats().l1_misses, 0u);
  EXPECT_EQ(sys.noc_stats().link_flits, 0u);
  sys.run(5000);
  EXPECT_GT(sys.total_core_ops(), 0u);
}

TEST(System, EightByEightScalesUp) {
  SystemConfig cfg = small_cfg(Scheme::DISCO);
  cfg.noc.mesh_cols = 8;
  cfg.noc.mesh_rows = 8;
  cfg.l2.total_size_bytes = 16ULL * 1024 * 1024;  // 64 x 256KB banks
  cfg.mem.num_controllers = 4;
  CmpSystem sys(cfg, workload::profile_by_name("dedup"));
  sys.functional_warmup(2000);
  sys.run(8000);
  EXPECT_TRUE(sys.drain(30000));
  EXPECT_GT(sys.cache_stats().l1_misses, 0u);
}

TEST(Experiment, RunCellProducesCoherentMetrics) {
  SystemConfig cfg = small_cfg(Scheme::DISCO);
  sim::RunOptions opt;
  opt.warmup_ops_per_core = 3000;
  opt.warmup_cycles = 3000;
  opt.measure_cycles = 15000;
  const sim::CellResult r =
      sim::run_cell(cfg, workload::profile_by_name("streamcluster"), opt);
  EXPECT_GT(r.avg_nuca_latency, 10.0);
  EXPECT_LT(r.avg_nuca_latency, 500.0);
  EXPECT_GT(r.core_ops, 0u);
  EXPECT_GT(r.avg_stored_ratio, 1.0);
  EXPECT_GT(r.energy.subsystem_nj(), 0.0);
}

TEST(Experiment, SchemeOrderingOnCompressibleWorkload) {
  // The paper's headline shape: Ideal <= DISCO < CC, on a compressible,
  // NUCA-bound workload.
  SystemConfig cfg = small_cfg(Scheme::DISCO);
  sim::RunOptions opt;
  opt.warmup_ops_per_core = 12000;
  opt.warmup_cycles = 8000;
  opt.measure_cycles = 40000;
  std::vector<sim::CellResult> rs;
  for (const Scheme s : {Scheme::Ideal, Scheme::DISCO, Scheme::CC}) {
    cfg.scheme = s;
    rs.push_back(sim::run_cell(cfg, workload::profile_by_name("dedup"), opt));
  }
  EXPECT_LE(rs[0].avg_nuca_latency, rs[1].avg_nuca_latency * 1.02);
  EXPECT_LT(rs[1].avg_nuca_latency, rs[2].avg_nuca_latency);
}


TEST(Experiment, Sc2CrossoverCncLagsCc) {
  // Fig. 6's qualitative claim: with a slow algorithm (SC2, 6/14 cycles)
  // the two-level CNC becomes slower than plain cache compression, while
  // DISCO stays ahead of both.
  SystemConfig cfg = small_cfg(Scheme::DISCO, "sc2");
  sim::RunOptions opt;
  opt.warmup_ops_per_core = 10000;
  opt.warmup_cycles = 6000;
  opt.measure_cycles = 30000;
  std::vector<sim::CellResult> rs;
  for (const Scheme s : {Scheme::CC, Scheme::CNC, Scheme::DISCO}) {
    cfg.scheme = s;
    rs.push_back(
        sim::run_cell(cfg, workload::profile_by_name("blackscholes"), opt));
  }
  EXPECT_LT(rs[2].avg_nuca_latency, rs[0].avg_nuca_latency) << "DISCO vs CC";
  EXPECT_LT(rs[2].avg_nuca_latency, rs[1].avg_nuca_latency) << "DISCO vs CNC";
  EXPECT_LT(rs[0].avg_nuca_latency, rs[1].avg_nuca_latency)
      << "CC must beat CNC under a high-latency algorithm";
}

TEST(Experiment, Geomean) {
  EXPECT_NEAR(sim::geomean({2.0, 8.0}), 4.0, 1e-9);
  EXPECT_NEAR(sim::geomean({3.0}), 3.0, 1e-9);
  EXPECT_EQ(sim::geomean({}), 0.0);
}

}  // namespace
}  // namespace disco::cmp
