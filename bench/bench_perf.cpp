// Performance harness: measures the simulator's own speed, not the paper's
// metrics. Two phases:
//   1. The Fig. 5 sweep (13 PARSEC-like workloads x {Ideal, CC, CNC, DISCO},
//      delta algorithm, standard phase lengths) -> cells/sec and
//      sim-cycles/sec through the full CMP stack.
//   2. An 8x8 network-only load run (uniform random, wormhole + DISCO) ->
//      sim-cycles/sec through the bare router/NI/link tick loop.
// Results are written to BENCH_perf.json (override with --json PATH) so every
// PR leaves a perf trajectory. With --baseline PATH the run compares its
// Fig. 5 cells/sec against the committed baseline and exits non-zero on a
// regression worse than --max-regress PCT (default 20). --smoke shrinks both
// phases for the CI PR gate; smoke and full numbers are never comparable and
// the baseline check refuses to mix them.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "compress/registry.h"
#include "disco/unit.h"
#include "noc/network.h"
#include "sim/sweep_internal.h"
#include "workload/synthetic.h"

using namespace disco;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

class CountingSink final : public noc::PacketSink {
 public:
  void deliver(noc::PacketPtr pkt, Cycle now) override {
    ++delivered;
    total_latency += static_cast<double>(now - pkt->injected);
  }
  std::uint64_t delivered = 0;
  double total_latency = 0;
};

struct LoadLatResult {
  Cycle cycles = 0;          ///< simulated network cycles including drain
  double wall_s = 0;
  std::uint64_t delivered = 0;
  double avg_latency = 0;
};

/// Network-only 8x8 run: same shape as bench_noc_loadlatency's run_point but
/// a fixed (mesh, rate, variant) so the measured work is stable run to run.
LoadLatResult run_loadlat_8x8(Cycle inject_cycles) {
  NocConfig cfg;
  cfg.mesh_cols = 8;
  cfg.mesh_rows = 8;
  noc::NocStats stats;
  auto algo = compress::make_algorithm("delta");
  DiscoConfig dcfg;

  noc::NiPolicy policy;
  policy.algo = algo.get();
  policy.decompress_for_raw_consumers = true;
  policy.decomp_cycles = algo->latency().decomp_cycles;

  noc::Network::ExtensionFactory factory = [&](noc::Router& r) {
    return std::make_unique<core::DiscoUnit>(r, dcfg, *algo, algo->latency(),
                                             stats);
  };
  noc::Network net(cfg, policy, stats, factory);
  std::vector<CountingSink> sinks(cfg.num_nodes());
  for (NodeId n = 0; n < cfg.num_nodes(); ++n)
    net.register_sink(n, UnitKind::Core, &sinks[n]);

  const auto t0 = Clock::now();
  Rng rng(77);
  workload::TrafficChooser chooser(workload::TrafficPattern::UniformRandom,
                                   cfg.mesh_cols, cfg.mesh_rows);
  std::uint64_t id = 1;
  Cycle clock = 0;
  for (; clock < inject_cycles; ++clock) {
    for (NodeId src = 0; src < cfg.num_nodes(); ++src) {
      if (!rng.chance(0.03)) continue;
      net.inject(src,
                 workload::make_synthetic_packet(src, chooser.pick(src), id++,
                                                 clock, 0.8, rng),
                 clock);
    }
    net.tick(clock);
  }
  for (Cycle i = 0; i < 100000 && !net.quiescent(); ++i) net.tick(++clock);

  LoadLatResult r;
  r.cycles = clock;
  r.wall_s = seconds_since(t0);
  double total = 0;
  for (const auto& s : sinks) {
    r.delivered += s.delivered;
    total += s.total_latency;
  }
  r.avg_latency = r.delivered ? total / static_cast<double>(r.delivered) : -1;
  return r;
}

/// --json/--baseline/--max-regress/--smoke. Stripped out of argv *before*
/// parse_sweep_flags sees it (the sweep parser hard-rejects unknown flags);
/// everything else passes through to the standard sweep flag set.
struct PerfFlags {
  std::string json_path = "BENCH_perf.json";
  std::string baseline_path;
  double max_regress_pct = 20.0;
  bool smoke = false;
};

PerfFlags extract_perf_flags(int& argc, char** argv) {
  PerfFlags f;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s needs a value\n", argv[0], flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--json") {
      f.json_path = value("--json");
    } else if (a == "--baseline") {
      f.baseline_path = value("--baseline");
    } else if (a == "--max-regress") {
      f.max_regress_pct = std::strtod(value("--max-regress"), nullptr);
    } else if (a == "--smoke") {
      f.smoke = true;
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  return f;
}

/// Minimal extractor for the flat numeric keys this bench itself emits.
/// Returns -1 when the key is absent.
double find_json_number(const std::string& text, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = text.find(needle);
  if (pos == std::string::npos) return -1.0;
  return std::strtod(text.c_str() + pos + needle.size(), nullptr);
}

bool json_mode_is(const std::string& text, const char* mode) {
  return text.find(std::string("\"mode\": \"") + mode + "\"") !=
         std::string::npos;
}

}  // namespace

int main(int argc, char** argv) {
  const PerfFlags perf = extract_perf_flags(argc, argv);
  const sim::SweepOptions sweep_opt = bench::sweep_options(argc, argv, "perf");

  SystemConfig cfg;
  cfg.algorithm = "delta";
  bench::print_banner("Performance harness: cells/sec and sim-cycles/sec", cfg);
  std::printf("mode: %s\n\n", perf.smoke ? "smoke" : "full");

  // Phase 1: the Fig. 5 grid, timed. Smoke mode keeps the cell *shape*
  // (warmup + measure through the full CMP stack) but shrinks the grid and
  // the phase lengths so the CI gate stays under a minute.
  sim::RunOptions opt = bench::standard_options();
  std::vector<Scheme> schemes = {Scheme::Ideal, Scheme::CC, Scheme::CNC,
                                 Scheme::DISCO};
  std::vector<workload::BenchmarkProfile> profiles = bench::workloads();
  if (perf.smoke) {
    opt.warmup_ops_per_core = 8000;
    opt.warmup_cycles = 5000;
    opt.measure_cycles = 20000;
    schemes = {Scheme::CC, Scheme::DISCO};
    profiles.resize(3);
  }

  const auto t0 = Clock::now();
  const auto sweep =
      sim::run_sweep(bench::scheme_grid(cfg, profiles, schemes, opt), sweep_opt);
  const double fig5_wall = seconds_since(t0);
  if (sweep.interrupted) return 130;

  const std::uint64_t cell_cycles = opt.warmup_cycles + opt.measure_cycles;
  const std::uint64_t fig5_cycles = sweep.completed * cell_cycles;
  const double fig5_cells_per_sec =
      fig5_wall > 0 ? static_cast<double>(sweep.completed) / fig5_wall : 0;
  const double fig5_cycles_per_sec =
      fig5_wall > 0 ? static_cast<double>(fig5_cycles) / fig5_wall : 0;

  // Phase 2: the 8x8 network-only run (always serial, single point).
  const LoadLatResult ll = run_loadlat_8x8(perf.smoke ? 4000 : 20000);
  const double ll_cycles_per_sec =
      ll.wall_s > 0 ? static_cast<double>(ll.cycles) / ll.wall_s : 0;

  TablePrinter t({"phase", "work", "wall (s)", "rate"});
  {
    std::ostringstream work, rate;
    work << sweep.completed << " cells x " << cell_cycles << " cycles";
    rate << TablePrinter::fmt(fig5_cells_per_sec, 3) << " cells/s, "
         << TablePrinter::fmt(fig5_cycles_per_sec / 1000.0, 1) << "k cyc/s";
    t.add_row({"fig5 sweep", work.str(), TablePrinter::fmt(fig5_wall, 2),
               rate.str()});
  }
  {
    std::ostringstream work, rate;
    work << ll.cycles << " cycles, " << ll.delivered << " pkts";
    rate << TablePrinter::fmt(ll_cycles_per_sec / 1000.0, 1) << "k cyc/s";
    t.add_row({"8x8 load-lat", work.str(), TablePrinter::fmt(ll.wall_s, 2),
               rate.str()});
  }
  t.print(std::cout);

  // Flat keys on purpose: the --baseline comparison (and any outside script)
  // reads them with a dumb substring scan, no JSON library needed.
  {
    std::ofstream f(perf.json_path);
    if (!f) {
      std::fprintf(stderr, "%s: cannot write %s\n", argv[0],
                   perf.json_path.c_str());
      return 1;
    }
    char buf[1024];
    std::snprintf(
        buf, sizeof buf,
        "{\n"
        "  \"bench\": \"bench_perf\",\n"
        "  \"mode\": \"%s\",\n"
        "  \"threads\": %u,\n"
        "  \"fig5_cells\": %zu,\n"
        "  \"fig5_cells_ok\": %zu,\n"
        "  \"fig5_wall_s\": %.3f,\n"
        "  \"fig5_cells_per_sec\": %.4f,\n"
        "  \"fig5_sim_cycles\": %llu,\n"
        "  \"fig5_sim_cycles_per_sec\": %.1f,\n"
        "  \"loadlat_mesh\": \"8x8\",\n"
        "  \"loadlat_sim_cycles\": %llu,\n"
        "  \"loadlat_wall_s\": %.3f,\n"
        "  \"loadlat_sim_cycles_per_sec\": %.1f,\n"
        "  \"loadlat_delivered\": %llu,\n"
        "  \"loadlat_avg_latency\": %.3f\n"
        "}\n",
        perf.smoke ? "smoke" : "full",
        sim::detail::resolve_threads(sweep_opt.threads),
        sweep.cells.size() - sweep.skipped, sweep.completed, fig5_wall,
        fig5_cells_per_sec, static_cast<unsigned long long>(fig5_cycles),
        fig5_cycles_per_sec, static_cast<unsigned long long>(ll.cycles),
        ll.wall_s, ll_cycles_per_sec,
        static_cast<unsigned long long>(ll.delivered), ll.avg_latency);
    f << buf;
  }
  std::printf("\nwrote %s\n", perf.json_path.c_str());

  int rc = bench::exit_code(sweep);

  if (!perf.baseline_path.empty()) {
    std::ifstream f(perf.baseline_path);
    if (!f) {
      std::fprintf(stderr, "%s: cannot read baseline %s\n", argv[0],
                   perf.baseline_path.c_str());
      return 1;
    }
    std::ostringstream ss;
    ss << f.rdbuf();
    const std::string base = ss.str();
    if (!json_mode_is(base, perf.smoke ? "smoke" : "full")) {
      std::fprintf(stderr,
                   "%s: baseline %s was recorded in a different mode than "
                   "this run (smoke vs full numbers are not comparable)\n",
                   argv[0], perf.baseline_path.c_str());
      return 1;
    }
    const double base_rate = find_json_number(base, "fig5_cells_per_sec");
    if (base_rate <= 0) {
      std::fprintf(stderr, "%s: baseline %s has no fig5_cells_per_sec\n",
                   argv[0], perf.baseline_path.c_str());
      return 1;
    }
    const double ratio = fig5_cells_per_sec / base_rate;
    std::printf("baseline: %.4f cells/s -> %.4f cells/s (%.2fx)\n", base_rate,
                fig5_cells_per_sec, ratio);
    if (ratio < 1.0 - perf.max_regress_pct / 100.0) {
      std::fprintf(stderr,
                   "PERF REGRESSION: fig5 cells/sec fell %.1f%% vs baseline "
                   "(limit %.0f%%)\n",
                   (1.0 - ratio) * 100.0, perf.max_regress_pct);
      rc = 1;
    }
  }
  return rc;
}
