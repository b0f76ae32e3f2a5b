#include "workloads.h"

#include <algorithm>
#include <memory>
#include <sstream>
#include <sys/stat.h>

#include "cmp/system.h"
#include "compress/registry.h"
#include "disco/unit.h"
#include "layers.h"
#include "noc/network.h"
#include "sim/json_export.h"
#include "sim/sweep.h"
#include "trace/invariants.h"
#include "workload/synthetic.h"
#include "workload/trace_gen.h"
#include "workload/value_synth.h"

namespace perfbench {

using namespace disco;

namespace {

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001B3ULL;
  }
  return h;
}

double seconds(std::int64_t from, std::int64_t to) {
  return static_cast<double>(to - from) * 1e-9;
}

SystemConfig cell_config(const CellSpec& spec, bool events) {
  SystemConfig cfg;
  cfg.algorithm = spec.algorithm;
  cfg.scheme = spec.scheme;
  cfg.seed = spec.seed;
  if (events) {
    cfg.trace.enabled = true;
    cfg.trace.check_invariants = true;
    cfg.trace.ring_capacity = 1ULL << 18;
  }
  return cfg;
}

sim::RunOptions run_options(const PhaseSizes& sizes) {
  sim::RunOptions opt;
  opt.warmup_ops_per_core = sizes.warmup_ops_per_core;
  opt.warmup_cycles = sizes.warmup_cycles;
  opt.measure_cycles = sizes.measure_cycles;
  return opt;
}

/// The result fields sim::run_cell extracts for a fault-free cell; the
/// invariant summary and trace text stay out so instrumented and plain runs
/// of one cell digest alike.
sim::CellResult extract_result(cmp::CmpSystem& sys, const SystemConfig& cfg,
                               const std::string& workload, Cycle measured) {
  const auto& cs = sys.cache_stats();
  const auto& ns = sys.noc_stats();
  sim::CellResult r;
  r.workload = workload;
  r.algorithm = cfg.algorithm;
  r.scheme = cfg.scheme;
  r.measured_cycles = measured;
  r.core_ops = sys.total_core_ops();
  r.l1_misses = cs.l1_misses;
  r.avg_nuca_latency = cs.nuca_latency.mean();
  r.avg_miss_latency = cs.miss_latency.mean();
  r.avg_dram_latency = cs.dram_latency.mean();
  r.l2_miss_rate = cs.l2_miss_rate();
  r.avg_packet_latency = ns.avg_packet_latency();
  r.avg_stored_ratio = cs.stored_line_bytes.count() > 0
                           ? static_cast<double>(kBlockBytes) /
                                 cs.stored_line_bytes.mean()
                           : 1.0;
  r.link_flits = ns.link_flits;
  r.inflight_compressions = ns.inflight_compressions;
  r.inflight_decompressions = ns.inflight_decompressions;
  r.source_compressions = ns.source_compressions;
  r.compression_aborts = ns.compression_aborts;
  r.decompression_aborts = ns.decompression_aborts;
  r.hidden_decomp_ops = ns.hidden_decomp_ops;
  r.exposed_decomp_cycles = ns.exposed_decomp_cycles;
  r.energy = energy::compute_energy(ns, cs, cfg, measured,
                                    sys.algorithm().hardware_overhead() / 0.023);
  return r;
}

void tally_events(const trace::Tracer& t, LayerCounts& c) {
  const std::vector<trace::TraceEvent> ev = t.snapshot();
  c.events_total += t.total_events();
  if (ev.empty()) return;
  for (const trace::TraceEvent& e : ev)
    ++c.events_in_window[static_cast<std::size_t>(e.event)];
  c.window_cycles += ev.back().cycle - ev.front().cycle + 1;
}

void add_noc_counts(const noc::NocStats& ns, LayerCounts& c) {
  c.link_flits += ns.link_flits;
  c.packets_delivered += ns.packets_ejected;
  c.packet_latency_sum += ns.avg_packet_latency();
  c.engine_starts += ns.engine_starts;
  c.engine_finishes += ns.inflight_compressions + ns.inflight_decompressions;
  c.comp_aborts += ns.compression_aborts;
  c.decomp_aborts += ns.decompression_aborts;
  c.source_compressions += ns.source_compressions;
  c.silent_corruptions += ns.silent_corruptions;
}

}  // namespace

std::string CellSpec::label() const {
  return profile + "/" + algorithm + "/" + to_string(scheme);
}

void LayerCounts::add(const LayerCounts& o) {
  cells += o.cells;
  link_flits += o.link_flits;
  packets_delivered += o.packets_delivered;
  packet_latency_sum += o.packet_latency_sum;
  engine_starts += o.engine_starts;
  engine_finishes += o.engine_finishes;
  comp_aborts += o.comp_aborts;
  decomp_aborts += o.decomp_aborts;
  source_compressions += o.source_compressions;
  l1_misses += o.l1_misses;
  l2_miss_rate_sum += o.l2_miss_rate_sum;
  stored_ratio_sum += o.stored_ratio_sum;
  nuca_latency_sum += o.nuca_latency_sum;
  silent_corruptions += o.silent_corruptions;
  events_total += o.events_total;
  violations += o.violations;
  if (first_violation.empty()) first_violation = o.first_violation;
  for (std::size_t i = 0; i < events_in_window.size(); ++i)
    events_in_window[i] += o.events_in_window[i];
  window_cycles += o.window_cycles;
}

std::uint64_t result_digest(const sim::CellResult& r) {
  std::ostringstream os;
  sim::write_json(os, r);
  return fnv1a(os.str());
}

CellRun run_cmp_cell(const CellSpec& spec, const PhaseSizes& sizes,
                     Instrument inst, SpanRecorder& rec) {
  const SystemConfig cfg = cell_config(spec, inst == Instrument::Events);
  const workload::BenchmarkProfile& profile =
      workload::profile_by_name(spec.profile);

  CellRun out;
  const std::int64_t t0 = now_ns();
  // Declared before the system, which holds pointers to them.
  std::vector<std::unique_ptr<TimedSink>> sinks;
  std::unique_ptr<cmp::CmpSystem> sys;
  {
    Span s(&rec, "cmp.construct");
    sys = std::make_unique<cmp::CmpSystem>(cfg, profile);
  }
  {
    Span s(&rec, "cmp.functional_warmup");
    sys->functional_warmup(sizes.warmup_ops_per_core);
  }
  const std::int64_t t1 = now_ns();

  // Wrappers go in after set-up, so only the timed phases are spanned.
  if (inst == Instrument::Spans) {
    noc::Network& net = sys->network();
    for (NodeId n = 0; n < cfg.noc.num_nodes(); ++n) {
      sinks.push_back(
          std::make_unique<TimedSink>(sys->l1(n), rec, "cache.l1.deliver"));
      net.register_sink(n, UnitKind::Core, sinks.back().get());
      sinks.push_back(
          std::make_unique<TimedSink>(sys->l2(n), rec, "cache.l2.deliver"));
      net.register_sink(n, UnitKind::L2Bank, sinks.back().get());
    }
  }

  const std::uint64_t ops0 = sys->total_core_ops();
  std::int64_t t2 = 0;
  std::int64_t t3 = 0;
  std::uint64_t warm_ops = 0;
  {
    Span s(&rec, "cmp.run");
    t2 = now_ns();
    sys->run(sizes.warmup_cycles);
    warm_ops = sys->total_core_ops() - ops0;
    sys->reset_stats();
    sys->run(sizes.measure_cycles);
    t3 = now_ns();
  }

  out.setup_s = seconds(t0, t1);
  out.run_s = seconds(t2, t3);
  out.cycles = sizes.warmup_cycles + sizes.measure_cycles;
  out.ops = warm_ops + sys->total_core_ops();
  out.result = extract_result(*sys, cfg, profile.name, sizes.measure_cycles);
  out.digest = result_digest(out.result);

  LayerCounts& c = out.counts;
  c.cells = 1;
  add_noc_counts(sys->noc_stats(), c);
  c.l1_misses = out.result.l1_misses;
  c.l2_miss_rate_sum = out.result.l2_miss_rate;
  c.stored_ratio_sum = out.result.avg_stored_ratio;
  c.nuca_latency_sum = out.result.avg_nuca_latency;
  if (const trace::Tracer* t = sys->tracer()) tally_events(*t, c);
  if (const trace::InvariantChecker* chk = sys->invariant_checker()) {
    c.violations = chk->summary().violations;
    c.first_violation = chk->summary().first_violation;
  }
  return out;
}

double cmp_setup_s(const CellSpec& spec, const PhaseSizes& sizes) {
  const std::int64_t t0 = now_ns();
  cmp::CmpSystem sys(cell_config(spec, false),
                     workload::profile_by_name(spec.profile));
  sys.functional_warmup(sizes.warmup_ops_per_core);
  return seconds(t0, now_ns());
}

std::uint64_t reference_cell_digest(const CellSpec& spec,
                                    const PhaseSizes& sizes) {
  return result_digest(sim::run_cell(cell_config(spec, false),
                                     workload::profile_by_name(spec.profile),
                                     run_options(sizes)));
}

namespace {

class CountingSink final : public noc::PacketSink {
 public:
  void deliver(noc::PacketPtr pkt, Cycle now) override {
    ++delivered;
    latency_sum += now - pkt->injected;
  }
  std::uint64_t delivered = 0;
  std::uint64_t latency_sum = 0;
};

}  // namespace

NocRun run_noc_cell(const NocSpec& spec, Instrument inst, SpanRecorder& rec) {
  SpanRecorder* spans = inst == Instrument::Spans ? &rec : nullptr;
  NocConfig cfg;
  cfg.mesh_cols = 8;
  cfg.mesh_rows = 8;
  const DiscoConfig dcfg;
  noc::NocStats stats;

  NocRun out;
  const std::int64_t t0 = now_ns();
  const std::unique_ptr<compress::Algorithm> delta =
      compress::make_algorithm("delta");
  std::unique_ptr<TimedAlgorithm> timed;
  if (spans != nullptr) timed = std::make_unique<TimedAlgorithm>(*delta, rec);
  const compress::Algorithm& algo =
      timed ? static_cast<const compress::Algorithm&>(*timed) : *delta;

  noc::NiPolicy policy;
  policy.algo = &algo;
  policy.decompress_for_raw_consumers = true;
  policy.decomp_cycles = algo.latency().decomp_cycles;
  const noc::Network::ExtensionFactory factory =
      [&](noc::Router& r) -> std::unique_ptr<noc::RouterExtension> {
    auto unit = std::make_unique<core::DiscoUnit>(r, dcfg, algo,
                                                  algo.latency(), stats);
    if (spans == nullptr) return unit;
    return std::make_unique<TimedExtension>(std::move(unit), rec);
  };
  // Everything the network points at is declared before it, so it outlives
  // the network.
  std::vector<CountingSink> sinks(cfg.num_nodes());
  std::unique_ptr<trace::Tracer> tracer;
  std::unique_ptr<trace::InvariantChecker> checker;
  if (inst == Instrument::Events) {
    TraceConfig tc;
    tc.enabled = true;
    tc.check_invariants = true;
    tc.ring_capacity = 1ULL << 18;
    tracer = std::make_unique<trace::Tracer>(tc);
    trace::InvariantParams p;
    p.nodes = cfg.num_nodes();
    p.ports = noc::kNumPorts;
    p.local_port = static_cast<std::uint32_t>(noc::Port::Local);
    p.num_vcs = cfg.num_vcs();
    p.vc_depth = cfg.vc_depth_flits;
    p.max_hops = (cfg.mesh_cols - 1) + (cfg.mesh_rows - 1);
    p.block_flits = 1 + static_cast<std::uint32_t>(kBlockBytes / kFlitBytes);
    p.gamma = dcfg.gamma;
    p.alpha = dcfg.alpha;
    p.beta = dcfg.beta;
    checker = std::make_unique<trace::InvariantChecker>(p);
    tracer->set_checker(checker.get());
  }
  noc::Network net(cfg, policy, stats, factory);
  for (NodeId n = 0; n < cfg.num_nodes(); ++n)
    net.register_sink(n, UnitKind::Core, &sinks[n]);
  if (tracer) net.set_tracer(tracer.get());
  const std::int64_t t1 = now_ns();

  Rng rng(splitmix64(spec.seed, 1));
  workload::TrafficChooser chooser(workload::TrafficPattern::UniformRandom,
                                   cfg.mesh_cols, splitmix64(spec.seed, 2));
  std::uint64_t id = 1;
  Cycle clock = 0;
  auto tick = [&] {
    {
      Span s(spans, "noc.tick");
      net.tick(clock);
    }
    if (checker) checker->end_of_cycle(clock, net.inflight_flits());
  };
  for (; clock < spec.inject_cycles; ++clock) {
    for (NodeId src = 0; src < cfg.num_nodes(); ++src) {
      if (!rng.chance(spec.injection_rate)) continue;
      noc::PacketPtr pkt;
      {
        Span s(spans, "workload.synthetic_packet");
        pkt = workload::make_synthetic_packet(src, chooser.pick(src), id++,
                                              clock, 0.8, rng);
      }
      Span s(spans, "noc.inject");
      net.inject(src, std::move(pkt), clock);
    }
    tick();
  }
  for (Cycle i = 0; i < 100000 && !net.quiescent(); ++i, ++clock) tick();
  const std::int64_t t2 = now_ns();

  out.setup_s = seconds(t0, t1);
  out.run_s = seconds(t1, t2);
  out.cycles = clock;
  out.injected = id - 1;
  std::uint64_t latency_sum = 0;
  for (const CountingSink& s : sinks) {
    out.delivered += s.delivered;
    latency_sum += s.latency_sum;
  }
  out.avg_latency = out.delivered > 0 ? static_cast<double>(latency_sum) /
                                            static_cast<double>(out.delivered)
                                      : 0.0;
  std::ostringstream os;
  os << "cycles=" << clock << " injected=" << out.injected
     << " delivered=" << out.delivered << " latency_sum=" << latency_sum
     << " link_flits=" << stats.link_flits
     << " buffer_writes=" << stats.buffer_writes
     << " engine_starts=" << stats.engine_starts
     << " comp=" << stats.inflight_compressions
     << " decomp=" << stats.inflight_decompressions
     << " comp_aborts=" << stats.compression_aborts
     << " decomp_aborts=" << stats.decompression_aborts
     << " source_comp=" << stats.source_compressions
     << " ni_comp=" << stats.ni_compressions
     << " ni_decomp=" << stats.ni_decompressions
     << " silent=" << stats.silent_corruptions;
  out.digest = fnv1a(os.str());

  LayerCounts& c = out.counts;
  c.cells = 1;
  add_noc_counts(stats, c);
  if (tracer) tally_events(*tracer, c);
  if (checker) {
    c.violations = checker->summary().violations;
    c.first_violation = checker->summary().first_violation;
  }
  return out;
}

SweepRun run_isolated_sweep(const std::vector<CellSpec>& cells,
                            const PhaseSizes& sizes, const std::string& dir,
                            unsigned workers, Cycle snapshot_interval,
                            int kill_cell) {
  std::vector<sim::SweepCell> grid;
  for (const CellSpec& spec : cells)
    grid.push_back({cell_config(spec, false),
                    workload::profile_by_name(spec.profile),
                    run_options(sizes)});

  sim::SweepOptions opt;
  opt.threads = workers;
  opt.reseed_cells = false;  // cells carry their own seeds
  opt.progress = false;
  opt.supervisor.isolate = true;
  opt.supervisor.checkpoint_dir = dir;
  opt.supervisor.snapshot_interval_cycles = snapshot_interval;
  opt.supervisor.retry_backoff_ms = 10;
  opt.supervisor.debug_kill_cell = kill_cell;
  opt.supervisor.debug_kill_cycle = snapshot_interval;

  const std::int64_t t0 = now_ns();
  const sim::SweepResult res = sim::run_sweep(grid, opt);
  SweepRun out;
  out.wall_s = seconds(t0, now_ns());
  for (const sim::SweepCellOutcome& c : res.cells) {
    if (c.ok()) {
      out.ops += c.result.core_ops;
      out.digests.push_back(result_digest(c.result));
      out.results.push_back(c.result);
    } else {
      ++out.failed;
      out.digests.push_back(0);
      out.results.emplace_back();
    }
    if (static_cast<int>(c.index) == kill_cell)
      out.drill_restored = c.ok() && c.attempts >= 2 && c.snap_saved_cycles > 0;
  }
  return out;
}

SnapshotFigures measure_snapshot(const CellSpec& spec, const PhaseSizes& sizes,
                                 const std::string& path, int reps,
                                 SpanRecorder& rec) {
  const SystemConfig cfg = cell_config(spec, false);
  const workload::BenchmarkProfile& profile =
      workload::profile_by_name(spec.profile);
  const std::uint64_t digest = sim::cell_digest(cfg, profile, run_options(sizes));
  const Cycle half = sizes.measure_cycles / 2;

  cmp::CmpSystem first(cfg, profile);
  first.functional_warmup(sizes.warmup_ops_per_core);
  first.run(sizes.warmup_cycles);
  first.reset_stats();
  first.run(half);

  SnapshotFigures f;
  std::vector<double> save_ms;
  std::vector<double> restore_ms;
  for (int i = 0; i < reps; ++i) {
    const std::int64_t t0 = now_ns();
    {
      Span s(&rec, "sim.save_snapshot");
      first.save_snapshot(path, half, digest);
    }
    save_ms.push_back(seconds(t0, now_ns()) * 1e3);
  }
  struct stat st {};
  if (::stat(path.c_str(), &st) == 0)
    f.mb = static_cast<double>(st.st_size) / (1024.0 * 1024.0);

  std::unique_ptr<cmp::CmpSystem> restored;
  Cycle done = 0;
  for (int i = 0; i < reps; ++i) {
    restored = std::make_unique<cmp::CmpSystem>(cfg, profile);
    const std::int64_t t0 = now_ns();
    {
      Span s(&rec, "sim.restore_snapshot");
      done = restored->restore_snapshot(path, digest);
    }
    restore_ms.push_back(seconds(t0, now_ns()) * 1e3);
  }
  restored->run(sizes.measure_cycles - done);
  f.digest = result_digest(
      extract_result(*restored, cfg, profile.name, sizes.measure_cycles));
  f.save_ms = median(save_ms);
  f.restore_ms = median(restore_ms);
  ::unlink(path.c_str());
  return f;
}

WorkloadBlocks profile_blocks(const std::vector<CellSpec>& cells,
                              std::size_t per_profile) {
  constexpr std::size_t kTimedCalls = 20000;
  constexpr std::size_t kTraining = 2048;
  WorkloadBlocks out;
  std::vector<std::pair<std::string, std::uint64_t>> seen;
  for (const CellSpec& c : cells) {
    const std::pair<std::string, std::uint64_t> key{c.profile, c.seed};
    if (std::find(seen.begin(), seen.end(), key) == seen.end())
      seen.push_back(key);
  }
  std::int64_t next_ns = 0;
  std::int64_t block_ns = 0;
  std::size_t calls = 0;
  for (std::size_t p = 0; p < seen.size(); ++p) {
    const workload::BenchmarkProfile& profile =
        workload::profile_by_name(seen[p].first);
    const workload::ValueSynthesizer synth(profile.values, seen[p].second);
    workload::TraceGenerator gen(profile, 0, seen[p].second);

    std::vector<Addr> addrs(kTimedCalls);
    std::int64_t t0 = now_ns();
    for (Addr& a : addrs) a = gen.next().addr / kBlockBytes * kBlockBytes;
    next_ns += now_ns() - t0;

    std::vector<BlockBytes> blocks(kTimedCalls);
    t0 = now_ns();
    for (std::size_t i = 0; i < kTimedCalls; ++i)
      blocks[i] = synth.block_for(addrs[i]);
    block_ns += now_ns() - t0;
    calls += kTimedCalls;

    out.blocks.insert(out.blocks.end(), blocks.begin(),
                      blocks.begin() + static_cast<std::ptrdiff_t>(
                                           std::min(per_profile, blocks.size())));
    // SC2's training sample, drawn as CmpSystem draws it, shared evenly
    // between the workload's profiles.
    for (std::uint64_t i = p; i < kTraining; i += seen.size())
      out.training.push_back(
          synth.block_for(splitmix64(i) % (1ULL << 30) * kBlockBytes));
  }
  if (calls > 0) {
    out.trace_next_ns = static_cast<double>(next_ns) / static_cast<double>(calls);
    out.block_for_ns = static_cast<double>(block_ns) / static_cast<double>(calls);
  }
  return out;
}

std::vector<BlockBytes> synthetic_blocks(std::uint64_t seed, std::size_t count) {
  Rng rng(seed);
  std::vector<BlockBytes> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    out.push_back(
        workload::make_synthetic_packet(0, 1, i + 1, 0, 0.8, rng)->data);
  return out;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

}  // namespace perfbench
