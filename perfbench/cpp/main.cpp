// perfbench: the repository benchmark's harness binary. One invocation runs
// one workload for about --seconds seconds and prints, as its last stdout
// line, one JSON object with the metrics, the correctness verdict and the
// run's provenance (perfbench/run.py builds this binary, calls it and
// reduces that object to the benchmark's result line).
//
//   perfbench --workload cmp_fig5|cmp_fig6|noc_8x8|sweep_isolated
//             [--seed N] [--seconds S] [--trace 0|1] [--out-dir DIR] [--quick]
//
// --trace 0 is the timed run: whole passes over the workload's cells until
// the time is up, end-to-end metrics as medians over passes. --trace 1 is
// the traced run: one plain pass, one pass with span-recording wrappers and
// one with the event tracer and invariant checker, then the per-layer table.
// --quick shrinks every cell (self-test only; figures are not comparable).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>
#include <vector>

#include "layers.h"
#include "sim/json_export.h"
#include "sim/wire.h"
#include "spans.h"
#include "workloads.h"

using namespace disco;
using namespace perfbench;

namespace {

constexpr std::uint64_t kDefaultSeed = 1;
constexpr std::uint64_t kHeldOutSeed = 7919;
constexpr int kMinPasses = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  bool quick = false;
  std::string out_dir = ".bench_out";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "cmp_fig5|cmp_fig6|noc_8x8|sweep_isolated [--seed N] "
               "[--seconds S] [--trace 0|1] [--out-dir DIR] [--quick]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string f = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + f).c_str());
      return argv[++i];
    };
    if (f == "--workload") {
      a.workload = value();
    } else if (f == "--seed") {
      a.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (f == "--seconds") {
      a.seconds = std::strtod(value().c_str(), nullptr);
    } else if (f == "--trace") {
      a.trace = value() == "1";
    } else if (f == "--out-dir") {
      a.out_dir = value();
    } else if (f == "--quick") {
      a.quick = true;
    } else {
      usage(("unknown argument " + f).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

// --- workload definitions ----------------------------------------------

const std::vector<Scheme> kSchemes = {Scheme::CC, Scheme::CNC, Scheme::DISCO};

std::vector<CellSpec> grid(std::uint64_t seed,
                           const std::vector<std::string>& algorithms,
                           const std::vector<std::string>& profiles) {
  std::vector<CellSpec> cells;
  for (const std::string& algo : algorithms)
    for (std::size_t p = 0; p < profiles.size(); ++p)
      for (const Scheme s : kSchemes)
        cells.push_back({profiles[p], algo, s, splitmix64(seed, p)});
  return cells;
}

struct Workload {
  std::string name;
  bool tick_loop = true;  ///< must run on exactly one thread
  bool noc = false;
  bool sweep = false;
  std::vector<CellSpec> cells;
  PhaseSizes sizes;
  NocSpec noc_spec;
};

Workload make_workload(const Args& a) {
  Workload w;
  w.name = a.workload;
  const std::uint64_t shrink = a.quick ? 4 : 1;
  w.sizes = {8000 / shrink, 5000 / shrink, 20000 / shrink};
  if (w.name == "cmp_fig5" || w.name == "sweep_isolated") {
    w.cells = grid(a.seed, {"delta"}, {"canneal", "x264", "swaptions"});
    w.sweep = w.name == "sweep_isolated";
    w.tick_loop = !w.sweep;
  } else if (w.name == "cmp_fig6") {
    w.cells = grid(a.seed, {"fpc", "sc2"}, {"canneal", "x264"});
  } else if (w.name == "noc_8x8") {
    w.noc = true;
    w.noc_spec = {a.seed, 3000 / shrink, 0.03};
  } else {
    usage(("unknown workload " + w.name).c_str());
  }
  return w;
}

// --- outputs ------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Metrics {
 public:
  void set(const std::string& name, double value, const char* unit) {
    for (Metric& m : list_)
      if (m.name == name) {
        m.value = value;
        return;
      }
    list_.push_back({name, value, unit});
  }
  const std::vector<Metric>& list() const { return list_; }

 private:
  std::vector<Metric> list_;
};

/// Correctness ledger: every check is an operation; a failed check is
/// recorded with its reason.
struct Ledger {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> reasons;

  void check(bool ok, const std::string& what, std::uint64_t ops = 1,
             std::uint64_t failures = 1) {
    attempted += ops;
    if (ok) return;
    failed += failures;
    if (reasons.size() < 20) reasons.push_back(what);
  }
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

/// A numeric field of /proc/self/status (0 when unreadable).
std::uint64_t proc_status(const char* key) {
  std::ifstream f("/proc/self/status");
  const std::string prefix = std::string(key) + ":";
  std::string line;
  while (std::getline(f, line))
    if (line.rfind(prefix, 0) == 0)
      return std::strtoull(line.c_str() + prefix.size(), nullptr, 10);
  return 0;
}

/// Peak resident set of this process (VmHWM: getrusage's ru_maxrss would
/// also count the launching process's footprint, which survives exec),
/// plus that of the largest waited-for child when `with_children`.
double peak_rss_mb(bool with_children) {
  double kb = static_cast<double>(proc_status("VmHWM"));
  if (with_children) {
    rusage kids{};
    getrusage(RUSAGE_CHILDREN, &kids);
    kb += static_cast<double>(kids.ru_maxrss);
  }
  return kb / 1024.0;
}

unsigned live_threads() {
  return static_cast<unsigned>(proc_status("Threads"));
}

/// CPUs this process may run on (what `nproc` prints).
unsigned usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

// --- model outputs (printed beside the paper, never gated) -------------

struct Margin {
  std::string algorithm;
  std::size_t profiles = 0;
  double vs_cc = 0;
  double vs_cnc = 0;
  const char* paper_vs_cc = "-";
  const char* paper_vs_cnc = "-";
};

std::vector<Margin> nuca_margins(const std::vector<CellSpec>& cells,
                                 const std::vector<sim::CellResult>& results) {
  std::map<std::string, Margin> by_algo;
  std::map<std::string, std::vector<double>> cc, cnc;
  // grid() emits each (algorithm, profile) row in kSchemes order.
  for (std::size_t i = 0; i + 2 < cells.size(); i += 3) {
    const sim::CellResult& r_cc = results[i];
    const sim::CellResult& r_cnc = results[i + 1];
    const sim::CellResult& r_disco = results[i + 2];
    if (r_cc.avg_nuca_latency <= 0 || r_cnc.avg_nuca_latency <= 0 ||
        r_disco.avg_nuca_latency <= 0)
      continue;  // a failed cell of the isolated sweep
    const std::string& algo = cells[i].algorithm;
    by_algo[algo].algorithm = algo;
    ++by_algo[algo].profiles;
    cc[algo].push_back(r_disco.avg_nuca_latency / r_cc.avg_nuca_latency);
    cnc[algo].push_back(r_disco.avg_nuca_latency / r_cnc.avg_nuca_latency);
  }
  std::vector<Margin> out;
  for (auto& [algo, m] : by_algo) {
    m.vs_cc = 1.0 - sim::geomean(cc[algo]);
    m.vs_cnc = 1.0 - sim::geomean(cnc[algo]);
    if (algo == "delta") {
      m.paper_vs_cc = "12%";
      m.paper_vs_cnc = "10.1%";
    } else if (algo == "sc2") {
      m.paper_vs_cc = "15.5%";
      m.paper_vs_cnc = "16.7%";
    }
    out.push_back(m);
  }
  return out;
}

// --- passes ---------------------------------------------------------------

struct Pass {
  double wall_s = 0;
  double setup_s = 0;
  double run_s = 0;
  std::uint64_t cycles = 0;
  std::uint64_t ops = 0;
  std::uint64_t cells = 0;
  std::vector<std::uint64_t> digests;
  std::vector<sim::CellResult> results;
  LayerCounts counts;
  NocRun noc;
};

Pass cmp_pass(const Workload& w, Instrument inst, SpanRecorder& rec) {
  Pass p;
  const std::int64_t t0 = now_ns();
  for (const CellSpec& spec : w.cells) {
    CellRun c = run_cmp_cell(spec, w.sizes, inst, rec);
    p.setup_s += c.setup_s;
    p.run_s += c.run_s;
    p.cycles += c.cycles;
    p.ops += c.ops;
    ++p.cells;
    p.digests.push_back(c.digest);
    p.counts.add(c.counts);
    p.results.push_back(std::move(c.result));
  }
  p.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
  return p;
}

Pass noc_pass(const Workload& w, Instrument inst, SpanRecorder& rec) {
  Pass p;
  const std::int64_t t0 = now_ns();
  p.noc = run_noc_cell(w.noc_spec, inst, rec);
  p.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
  p.setup_s = p.noc.setup_s;
  p.run_s = p.noc.run_s;
  p.cycles = p.noc.cycles;
  p.ops = p.noc.injected;
  p.cells = 1;
  p.digests.push_back(p.noc.digest);
  p.counts = p.noc.counts;
  return p;
}

Pass plain_pass(const Workload& w, Instrument inst, SpanRecorder& rec) {
  return w.noc ? noc_pass(w, inst, rec) : cmp_pass(w, inst, rec);
}

/// Workers of the isolated sweep: 2, or fewer on a smaller host.
unsigned sweep_workers() { return std::min(2u, usable_cpus()); }

/// The grid through the isolated sweep, with its recovery drill checked:
/// every cell Ok, and the killed cell resumed from its snapshot.
SweepRun checked_sweep(const Args& a, const Workload& w, Ledger& led) {
  const std::string dir = a.out_dir + "/sweep-ckpt";
  std::filesystem::remove_all(dir);
  SweepRun s = run_isolated_sweep(w.cells, w.sizes, dir, sweep_workers(),
                                  w.sizes.measure_cycles / 3,
                                  static_cast<int>(w.cells.size() / 2));
  std::filesystem::remove_all(dir);
  led.check(s.failed == 0,
            "sweep_isolated: " + std::to_string(s.failed) + " cells failed",
            w.cells.size(), s.failed);
  led.check(s.drill_restored,
            "sweep_isolated: the killed cell did not resume from a snapshot");
  return s;
}

/// One timed sweep pass. Its set-up time is the cells' CMP set-up done
/// in-process (what each forked worker pays before its first timed cycle,
/// which the workers cannot report); its run time is the sweep's wall time.
Pass sweep_pass(const Args& a, const Workload& w, Ledger& led) {
  Pass p;
  for (const CellSpec& spec : w.cells) p.setup_s += cmp_setup_s(spec, w.sizes);
  SweepRun s = checked_sweep(a, w, led);
  p.wall_s = s.wall_s;
  p.run_s = s.wall_s;
  p.cells = w.cells.size();
  p.cycles = p.cells * (w.sizes.warmup_cycles + w.sizes.measure_cycles);
  p.ops = s.ops;
  p.digests = std::move(s.digests);
  p.results = std::move(s.results);
  return p;
}

/// Per-pass integrity: no silent corruption, and for noc_8x8 every packet
/// delivered after the drain (one operation per injected packet). With
/// faults off, losslessness of every in-network decode is also enforced by
/// the simulator's always-on assertion, which aborts the run.
void check_pass(const Workload& w, const Pass& p, Ledger& led) {
  const std::uint64_t silent = p.counts.silent_corruptions;
  if (w.noc) {
    const std::uint64_t lost = p.noc.injected - p.noc.delivered;
    led.check(lost == 0 && silent == 0,
              "noc_8x8: " + std::to_string(lost) + " packets undelivered, " +
                  std::to_string(silent) + " silently corrupted",
              p.noc.injected, lost + silent);
  } else {
    led.check(silent == 0, std::to_string(silent) + " silent corruptions",
              p.cells, silent);
  }
}

void check_digests(const std::vector<std::uint64_t>& ref,
                   const std::vector<std::uint64_t>& got,
                   const std::vector<CellSpec>& cells, const char* what,
                   Ledger& led) {
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const std::string label = i < cells.size() ? cells[i].label() : "network";
    led.check(i < got.size() && got[i] == ref[i],
              std::string(what) + ": digest differs for " + label);
  }
}

/// Codec round trips on the workload's own blocks; returns the figures.
std::vector<CodecFigures> codec_table(const Workload& w, std::uint64_t seed,
                                      int reps, std::size_t per_profile,
                                      Ledger& led, WorkloadBlocks* wb_out) {
  WorkloadBlocks wb;
  if (w.noc) {
    wb.blocks = synthetic_blocks(splitmix64(seed, 3), per_profile * 3);
    wb.training = synthetic_blocks(splitmix64(seed, 4), 2048);
  } else {
    wb = profile_blocks(w.cells, per_profile);
  }
  std::vector<CodecFigures> out;
  for (const char* algo : {"delta", "fpc", "sc2"}) {
    CodecFigures f = measure_codec(algo, wb.blocks, wb.training, reps);
    led.check(f.roundtrip_failures == 0,
              std::string(algo) + ": " + std::to_string(f.roundtrip_failures) +
                  " blocks failed decompress(compress(b)) == b");
    out.push_back(f);
  }
  if (wb_out != nullptr) *wb_out = std::move(wb);
  return out;
}

// --- the timed run --------------------------------------------------------

void timed_run(const Args& a, const Workload& w, Metrics& m, Ledger& led,
               std::vector<Margin>& margins, unsigned& workers,
               std::size_t& passes) {
  std::vector<double> cyc, ops, cells, setup;
  std::vector<std::uint64_t> ref;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(a.seconds * 1e9);
  workers = w.sweep ? sweep_workers() : 1;

  for (passes = 0;
       passes < static_cast<std::size_t>(kMinPasses) || now_ns() < deadline;
       ++passes) {
    SpanRecorder rec;
    const Pass p = w.sweep ? sweep_pass(a, w, led)
                           : plain_pass(w, Instrument::None, rec);
    if (!w.sweep) check_pass(w, p, led);
    if (ref.empty()) {
      ref = p.digests;
      if (!w.noc) margins = nuca_margins(w.cells, p.results);
    } else {
      check_digests(ref, p.digests, w.cells, "repeat", led);
    }
    cyc.push_back(static_cast<double>(p.cycles) / p.run_s);
    ops.push_back(static_cast<double>(p.ops) / p.run_s);
    cells.push_back(static_cast<double>(p.cells) / p.wall_s);
    setup.push_back(p.setup_s);
    std::printf("pass %zu: sim_cycles_per_s %.1f sim_ops_per_s %.1f "
                "cells_per_s %.4f setup_s %.6f\n",
                passes + 1, cyc.back(), ops.back(), cells.back(), setup.back());
  }

  // Every timed figure is also backed by a correctness check of the codecs
  // the workload exercises.
  codec_table(w, a.seed, 1, 64, led, nullptr);

  m.set("sim_cycles_per_s", median(cyc), "1/s");
  m.set("sim_ops_per_s", median(ops), "1/s");
  m.set("cells_per_s", median(cells), "1/s");
  m.set("setup_s", median(setup), "s");
  m.set("peak_rss_mb", peak_rss_mb(w.sweep), "MB");
}

// --- the traced run -------------------------------------------------------

const char* const kLayerMetrics[][2] = {
    {"cmp.construct_ms", "ms"},
    {"cmp.functional_warmup_ns_per_op", "ns"},
    {"cmp.tick_ns_per_cycle", "ns"},
    {"cmp.host_ns_per_core_op", "ns"},
    {"noc.tick_self_ns_per_cycle", "ns"},
    {"noc.inject_ns_per_packet", "ns"},
    {"noc.host_ns_per_flit_hop", "ns"},
    {"noc.link_flits", "count"},
    {"noc.packets_delivered", "count"},
    {"noc.avg_packet_latency_cycles", "cycles"},
    {"noc.ev.buffer_write", "1/cycle"},
    {"noc.ev.route_compute", "1/cycle"},
    {"noc.ev.vc_alloc_grant", "1/cycle"},
    {"noc.ev.switch_traversal", "1/cycle"},
    {"noc.ev.credit", "1/cycle"},
    {"disco.after_allocation_ns", "ns"},
    {"disco.tick_ns", "ns"},
    {"disco.self_share", "ratio"},
    {"disco.comp_started", "count"},
    {"disco.comp_finished", "count"},
    {"disco.comp_aborts", "count"},
    {"disco.decomp_aborts", "count"},
    {"disco.source_compressions", "count"},
    {"disco.useful_ratio", "ratio"},
    {"compress.delta.comp_ns_per_block", "ns"},
    {"compress.delta.decomp_ns_per_block", "ns"},
    {"compress.delta.ratio", "ratio"},
    {"compress.fpc.comp_ns_per_block", "ns"},
    {"compress.fpc.decomp_ns_per_block", "ns"},
    {"compress.fpc.ratio", "ratio"},
    {"compress.sc2.comp_ns_per_block", "ns"},
    {"compress.sc2.decomp_ns_per_block", "ns"},
    {"compress.sc2.ratio", "ratio"},
    {"compress.calls_per_cycle", "1/cycle"},
    {"compress.self_share", "ratio"},
    {"cache.l1.deliver_ns", "ns"},
    {"cache.l2.deliver_ns", "ns"},
    {"cache.l1_misses", "count"},
    {"cache.l2_miss_rate", "ratio"},
    {"cache.stored_ratio", "ratio"},
    {"cache.nuca_latency_cycles", "cycles"},
    {"workload.trace_next_ns", "ns"},
    {"workload.block_for_ns", "ns"},
    {"workload.synthetic_packet_ns", "ns"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.event_overhead_ratio", "ratio"},
    {"trace.events_per_cycle", "1/cycle"},
    {"trace.invariant_violations", "count"},
    {"sim.snapshot_save_ms", "ms"},
    {"sim.snapshot_restore_ms", "ms"},
    {"sim.snapshot_mb", "MB"},
    {"sim.wire_roundtrip_us", "us"},
};

double ratio(double num_, double den) { return den > 0 ? num_ / den : 0.0; }

double per_call_ns(const SpanRecorder::Totals& t) {
  return ratio(static_cast<double>(t.total_ns), static_cast<double>(t.count));
}

void traced_run(const Args& a, const Workload& w, Metrics& m, Ledger& led,
                unsigned& workers) {
  for (const auto& lm : kLayerMetrics) m.set(lm[0], 0.0, lm[1]);
  workers = w.sweep ? sweep_workers() : 1;

  // Plain pass: reference digests, reference host time, cmp.* figures.
  SpanRecorder plain_rec;
  const Pass plain = plain_pass(w, Instrument::None, plain_rec);
  check_pass(w, plain, led);
  if (!w.noc) {
    led.check(reference_cell_digest(w.cells.front(), w.sizes) ==
                  plain.digests.front(),
              "replay through public calls differs from sim::run_cell for " +
                  w.cells.front().label());
  }

  // Span pass: forwarding wrappers on.
  SpanRecorder rec(50000);
  const Pass spans = plain_pass(w, Instrument::Spans, rec);
  check_pass(w, spans, led);
  check_digests(plain.digests, spans.digests, w.cells, "span pass", led);

  // Event pass: tracer + invariant checker on.
  SpanRecorder event_rec;
  const Pass events = plain_pass(w, Instrument::Events, event_rec);
  check_pass(w, events, led);
  check_digests(plain.digests, events.digests, w.cells, "event pass", led);
  led.check(events.counts.violations == 0,
            "invariant violations: " + events.counts.first_violation);

  const double cycles = static_cast<double>(plain.cycles);
  if (!w.noc) {
    const double cells = static_cast<double>(w.cells.size());
    const double warm_ops = static_cast<double>(w.sizes.warmup_ops_per_core) *
                            SystemConfig{}.noc.num_nodes() * cells;
    m.set("cmp.construct_ms",
          static_cast<double>(plain_rec.totals("cmp.construct").total_ns) /
              1e6 / cells, "ms");
    m.set("cmp.functional_warmup_ns_per_op",
          ratio(static_cast<double>(
                    plain_rec.totals("cmp.functional_warmup").total_ns),
                warm_ops), "ns");
    m.set("cmp.tick_ns_per_cycle", plain.run_s * 1e9 / cycles, "ns");
    m.set("cmp.host_ns_per_core_op",
          ratio(plain.run_s * 1e9, static_cast<double>(plain.ops)), "ns");
    m.set("cache.l1.deliver_ns", per_call_ns(rec.totals("cache.l1.deliver")),
          "ns");
    m.set("cache.l2.deliver_ns", per_call_ns(rec.totals("cache.l2.deliver")),
          "ns");
    const LayerCounts& c = plain.counts;
    m.set("cache.l1_misses", static_cast<double>(c.l1_misses), "count");
    m.set("cache.l2_miss_rate", c.l2_miss_rate_sum / cells, "ratio");
    m.set("cache.stored_ratio", c.stored_ratio_sum / cells, "ratio");
    m.set("cache.nuca_latency_cycles", c.nuca_latency_sum / cells, "cycles");
  } else {
    const SpanRecorder::Totals tick = rec.totals("noc.tick");
    const SpanRecorder::Totals inject = rec.totals("noc.inject");
    const SpanRecorder::Totals after = rec.totals("disco.after_allocation");
    const SpanRecorder::Totals dtick = rec.totals("disco.tick");
    const SpanRecorder::Totals shadow = rec.totals("disco.on_shadow_departed");
    const SpanRecorder::Totals comp = rec.totals("compress.compress");
    const SpanRecorder::Totals decomp = rec.totals("compress.decompress");
    const double tick_ns = static_cast<double>(tick.total_ns);
    m.set("noc.tick_self_ns_per_cycle",
          static_cast<double>(tick.self_ns) / cycles, "ns");
    m.set("noc.inject_ns_per_packet", per_call_ns(inject), "ns");
    m.set("noc.host_ns_per_flit_hop",
          ratio(tick_ns, static_cast<double>(spans.counts.link_flits)), "ns");
    m.set("disco.after_allocation_ns", per_call_ns(after), "ns");
    m.set("disco.tick_ns", per_call_ns(dtick), "ns");
    m.set("disco.self_share",
          ratio(static_cast<double>(after.self_ns + dtick.self_ns +
                                    shadow.self_ns),
                tick_ns), "ratio");
    m.set("compress.calls_per_cycle",
          static_cast<double>(comp.count + decomp.count) / cycles, "1/cycle");
    m.set("compress.self_share",
          ratio(static_cast<double>(comp.self_ns + decomp.self_ns), tick_ns),
          "ratio");
    m.set("workload.synthetic_packet_ns",
          per_call_ns(rec.totals("workload.synthetic_packet")), "ns");
  }

  const LayerCounts& c = plain.counts;
  m.set("noc.link_flits", static_cast<double>(c.link_flits), "count");
  m.set("noc.packets_delivered", static_cast<double>(c.packets_delivered),
        "count");
  m.set("noc.avg_packet_latency_cycles",
        w.noc ? plain.noc.avg_latency
              : c.packet_latency_sum / static_cast<double>(c.cells),
        "cycles");
  m.set("disco.comp_started", static_cast<double>(c.engine_starts), "count");
  m.set("disco.comp_finished", static_cast<double>(c.engine_finishes), "count");
  m.set("disco.comp_aborts", static_cast<double>(c.comp_aborts), "count");
  m.set("disco.decomp_aborts", static_cast<double>(c.decomp_aborts), "count");
  m.set("disco.source_compressions", static_cast<double>(c.source_compressions),
        "count");
  m.set("disco.useful_ratio",
        ratio(static_cast<double>(c.engine_finishes),
              static_cast<double>(c.engine_starts)), "ratio");

  const LayerCounts& e = events.counts;
  const double window = static_cast<double>(e.window_cycles);
  auto ev = [&](trace::Event x) {
    return ratio(static_cast<double>(e.events_in_window[static_cast<std::size_t>(x)]),
                 window);
  };
  m.set("noc.ev.buffer_write", ev(trace::Event::BufferWrite), "1/cycle");
  m.set("noc.ev.route_compute", ev(trace::Event::RouteCompute), "1/cycle");
  m.set("noc.ev.vc_alloc_grant", ev(trace::Event::VcAllocGrant), "1/cycle");
  m.set("noc.ev.switch_traversal", ev(trace::Event::SwitchTraversal), "1/cycle");
  m.set("noc.ev.credit",
        ev(trace::Event::CreditSend) + ev(trace::Event::CreditRecv), "1/cycle");
  m.set("trace.overhead_ratio", spans.wall_s / plain.wall_s, "ratio");
  m.set("trace.event_overhead_ratio", events.wall_s / plain.wall_s, "ratio");
  m.set("trace.events_per_cycle",
        static_cast<double>(e.events_total) / static_cast<double>(events.cycles),
        "1/cycle");
  m.set("trace.invariant_violations", static_cast<double>(e.violations),
        "count");

  WorkloadBlocks wb;
  for (const CodecFigures& f : codec_table(w, a.seed, 8, 256, led, &wb)) {
    const std::string p = "compress." + f.algorithm + ".";
    m.set(p + "comp_ns_per_block", f.comp_ns_per_block, "ns");
    m.set(p + "decomp_ns_per_block", f.decomp_ns_per_block, "ns");
    m.set(p + "ratio", f.ratio, "ratio");
  }
  if (!w.noc) {
    m.set("workload.trace_next_ns", wb.trace_next_ns, "ns");
    m.set("workload.block_for_ns", wb.block_for_ns, "ns");
  }

  if (w.sweep) {
    const SweepRun s = checked_sweep(a, w, led);
    check_digests(plain.digests, s.digests, w.cells, "isolated sweep", led);

    const SnapshotFigures snap = measure_snapshot(
        w.cells.front(), w.sizes, a.out_dir + "/perfbench-snapshot.bin", 3, rec);
    led.check(snap.digest == plain.digests.front(),
              "snapshot save/restore changed the result of " +
                  w.cells.front().label());
    m.set("sim.snapshot_save_ms", snap.save_ms, "ms");
    m.set("sim.snapshot_restore_ms", snap.restore_ms, "ms");
    m.set("sim.snapshot_mb", snap.mb, "MB");

    std::vector<double> us;
    bool exact = true;
    for (int rep = 0; rep < 50; ++rep) {
      for (const sim::CellResult& r : s.results) {
        const std::int64_t t0 = now_ns();
        const sim::CellResult back =
            sim::wire::decode_result(sim::wire::parse_object(sim::wire::encode_result(r)));
        us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
        if (rep == 0) exact = exact && result_digest(back) == result_digest(r);
      }
    }
    led.check(exact, "wire encode/decode round trip changed a result");
    m.set("sim.wire_roundtrip_us", median(us), "us");
  }

  std::ofstream f(a.out_dir + "/spans-" + w.name + ".json");
  rec.write_chrome_json(f);
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  const Workload w = make_workload(a);
  std::filesystem::create_directories(a.out_dir);

  Metrics m;
  Ledger led;
  std::vector<Margin> margins;
  unsigned workers = 0;
  std::size_t passes = 1;
  try {
    if (a.trace)
      traced_run(a, w, m, led, workers);
    else
      timed_run(a, w, m, led, margins, workers, passes);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", w.name.c_str(), e.what());
    return 1;
  }

  const unsigned threads = live_threads();
  if (w.tick_loop && (workers != 1 || threads != 1)) {
    std::fprintf(stderr,
                 "perfbench: refusing to report %s: tick-loop workload ran "
                 "with %u workers / %u threads, not 1\n",
                 w.name.c_str(), workers, threads);
    return 3;
  }

  for (const Margin& mg : margins)
    std::printf("model output (not gated), %s over a %zu-profile subset: "
                "DISCO vs CC %.1f%% (paper, full suite: %s), DISCO vs CNC "
                "%.1f%% (paper: %s)\n",
                mg.algorithm.c_str(), mg.profiles, mg.vs_cc * 100.0,
                mg.paper_vs_cc, mg.vs_cnc * 100.0, mg.paper_vs_cnc);
  for (const std::string& r : led.reasons)
    std::printf("check failed: %s\n", r.c_str());

  std::ostringstream js;
  js << "{\"workload\":\"" << w.name << "\",\"seed\":" << a.seed
     << ",\"default_seed\":" << kDefaultSeed
     << ",\"held_out_seed\":" << kHeldOutSeed << ",\"trace\":" << (a.trace ? 1 : 0)
     << ",\"quick\":" << (a.quick ? "true" : "false") << ",\"workers\":" << workers
     << ",\"threads\":" << threads << ",\"nproc\":" << usable_cpus()
     << ",\"passes\":" << passes << ",\"compiler\":\"" << PERFBENCH_COMPILER
     << "\",\"flags\":\"" << PERFBENCH_FLAGS << "\",\"correct\":"
     << (led.failed == 0 ? "true" : "false") << ",\"attempted\":" << led.attempted
     << ",\"failed\":" << led.failed << ",\"failures\":[";
  for (std::size_t i = 0; i < led.reasons.size(); ++i)
    js << (i ? "," : "") << '"' << json_escape(led.reasons[i]) << '"';
  js << "],\"model_outputs\":[";
  for (std::size_t i = 0; i < margins.size(); ++i) {
    const Margin& mg = margins[i];
    js << (i ? "," : "") << "{\"algorithm\":\"" << mg.algorithm
       << "\",\"profiles\":" << mg.profiles << ",\"disco_vs_cc\":" << num(mg.vs_cc)
       << ",\"disco_vs_cnc\":" << num(mg.vs_cnc) << ",\"paper_disco_vs_cc\":\""
       << mg.paper_vs_cc << "\",\"paper_disco_vs_cnc\":\"" << mg.paper_vs_cnc
       << "\"}";
  }
  js << "],\"metrics\":{";
  bool first = true;
  for (const Metric& x : m.list()) {
    js << (first ? "" : ",") << '"' << x.name << "\":{\"value\":" << num(x.value)
       << ",\"unit\":\"" << x.unit << "\"}";
    first = false;
  }
  js << "}}";
  std::printf("%s\n", js.str().c_str());
  return 0;
}
