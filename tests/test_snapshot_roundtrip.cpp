// Mid-cell checkpointing: snapshot primitives, per-component roundtrips and
// the full-system determinism contract. The core properties:
//   - save -> restore -> save produces byte-identical snapshots, and
//   - a restored system's next K cycles are trace-identical to the
//     uninterrupted system's,
// so a SIGKILLed-and-resumed cell emits byte-identical metrics, traces and
// invariant summaries versus a run that never died.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "cmp/system.h"
#include "common/crc32.h"
#include "common/rng.h"
#include "common/snapshot.h"
#include "common/stats.h"
#include "fault/fault.h"
#include "noc/router.h"
#include "noc/snapshot.h"
#include "sim/experiment.h"
#include "sim/wire.h"
#include "trace/trace.h"
#include "workload/profile.h"
#include "workload/trace_gen.h"

namespace disco {
namespace {

/// Unique scratch dir per test, removed on destruction.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag)
      : path_(std::filesystem::temp_directory_path() /
              ("disco-snap-" + tag + "-" + std::to_string(::getpid()))) {
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

// ---------------------------------------------------------------------------
// Primitives + envelope
// ---------------------------------------------------------------------------

TEST(SnapshotPrimitives, WriterReaderRoundTrip) {
  snap::Writer w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.i64(-42);
  w.b(true);
  w.b(false);
  w.f64(-0.0);
  w.f64(3.14159);
  const std::vector<std::uint8_t> blob{1, 2, 3, 4, 5};
  w.bytes(blob);
  w.str("hello\0world");
  const std::uint8_t fixed[3] = {9, 8, 7};
  w.raw(std::span<const std::uint8_t>(fixed, 3));

  snap::Reader r(w.data());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_TRUE(r.b());
  EXPECT_FALSE(r.b());
  const double neg_zero = r.f64();
  EXPECT_EQ(neg_zero, 0.0);
  EXPECT_TRUE(std::signbit(neg_zero)) << "bit pattern must survive";
  EXPECT_EQ(r.f64(), 3.14159);
  EXPECT_EQ(r.bytes(), blob);
  EXPECT_EQ(r.str(), "hello\0world");
  std::uint8_t out[3]{};
  r.raw(std::span<std::uint8_t>(out, 3));
  EXPECT_EQ(out[0], 9);
  EXPECT_NO_THROW(r.expect_end());
}

// The archive is little-endian whatever the host: pin the exact bytes of
// each fixed-width field, not just a round trip.
TEST(SnapshotPrimitives, FixedWidthFieldsAreLittleEndian) {
  snap::Writer w;
  w.u16(0x0102);
  w.u32(0x01020304U);
  w.u64(0x0102030405060708ULL);
  w.i64(-2);
  w.f64(1.0);  // bit image 0x3FF0000000000000
  const std::vector<std::uint8_t> want = {
      0x02, 0x01,                                      // u16
      0x04, 0x03, 0x02, 0x01,                          // u32
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  // u64
      0xFE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,  // i64
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF0, 0x3F,  // f64
  };
  EXPECT_EQ(w.data(), want);

  snap::Reader r(want);
  EXPECT_EQ(r.u16(), 0x0102);
  EXPECT_EQ(r.u32(), 0x01020304U);
  EXPECT_EQ(r.u64(), 0x0102030405060708ULL);
  EXPECT_EQ(r.i64(), -2);
  EXPECT_EQ(r.f64(), 1.0);
  EXPECT_NO_THROW(r.expect_end());
}

TEST(SnapshotPrimitives, TruncatedReadThrows) {
  snap::Writer w;
  w.u32(7);
  snap::Reader r(w.data());
  r.u16();
  EXPECT_THROW(r.u32(), snap::SnapshotError);
  EXPECT_THROW(r.expect_end(), snap::SnapshotError);
}

TEST(SnapshotEnvelope, FileRoundTripAndAtomicity) {
  ScratchDir dir("envelope");
  const std::string path = dir.file("s.bin");
  snap::Writer w;
  for (std::uint64_t i = 0; i < 100; ++i) w.u64(i * 0x9E3779B97F4A7C15ull);
  snap::write_snapshot_file(path, w.data());
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"))
      << "tmp file must be renamed away";
  EXPECT_EQ(snap::read_snapshot_file(path), w.data());

  // Overwrite supersedes in place: one good snapshot file, never two.
  snap::Writer w2;
  w2.u64(1);
  snap::write_snapshot_file(path, w2.data());
  EXPECT_EQ(snap::read_snapshot_file(path), w2.data());

  EXPECT_THROW(snap::read_snapshot_file(dir.file("missing.bin")),
               snap::SnapshotError);
}

// The envelope's length field must equal the file size less the header: a
// trailing byte or an edited length is rejected by the envelope check,
// before any payload byte is parsed (and without trusting the length to
// size a buffer).
TEST(SnapshotEnvelope, LengthMustMatchFileSize) {
  ScratchDir dir("envelope-length");
  const std::string path = dir.file("s.bin");
  snap::Writer w;
  for (std::uint64_t i = 0; i < 40; ++i) w.u64(i);
  snap::write_snapshot_file(path, w.data());
  std::vector<std::uint8_t> good;
  {
    std::ifstream in(path, std::ios::binary);
    good.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_EQ(good.size(), 20 + w.size());
  auto rewrite = [&](const std::vector<std::uint8_t>& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  };

  std::vector<std::uint8_t> trailing = good;
  trailing.push_back(0);
  rewrite(trailing);
  EXPECT_THROW(snap::read_snapshot_file(path), snap::SnapshotError);

  constexpr std::size_t kLengthAt = 8;  // after magic and version
  for (const std::uint64_t len :
       {std::uint64_t{w.size() - 1}, std::uint64_t{w.size() + 1},
        ~std::uint64_t{0}}) {
    std::vector<std::uint8_t> edited = good;
    for (std::size_t i = 0; i < 8; ++i)
      edited[kLengthAt + i] = static_cast<std::uint8_t>(len >> (8 * i));
    rewrite(edited);
    EXPECT_THROW(snap::read_snapshot_file(path), snap::SnapshotError)
        << "length field " << len;
  }

  rewrite(good);
  EXPECT_EQ(snap::read_snapshot_file(path), w.data());
}

// ---------------------------------------------------------------------------
// Per-component roundtrips: restored state continues the exact stream
// ---------------------------------------------------------------------------

TEST(ComponentSnapshot, RngStreamContinuesExactly) {
  Rng a(123);
  for (int i = 0; i < 1000; ++i) a.next_u64();

  snap::Writer w;
  for (const std::uint64_t s : a.state()) w.u64(s);
  snap::Reader r(w.data());
  Rng b(999);  // different seed: state must come wholly from the snapshot
  std::array<std::uint64_t, 4> st{};
  for (auto& v : st) v = r.u64();
  b.set_state(st);

  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(ComponentSnapshot, TraceGeneratorStreamContinuesExactly) {
  const auto& profile = workload::profile_by_name("canneal");
  workload::TraceGenerator a(profile, 3, 42);
  for (int i = 0; i < 500; ++i) a.next();

  snap::Writer w;
  a.serialize(w);
  workload::TraceGenerator b(profile, 3, 42);
  snap::Reader r(w.data());
  b.serialize(r);
  EXPECT_NO_THROW(r.expect_end());

  for (int i = 0; i < 500; ++i) {
    const auto oa = a.next();
    const auto ob = b.next();
    EXPECT_EQ(oa.addr, ob.addr);
    EXPECT_EQ(oa.is_store, ob.is_store);
    EXPECT_EQ(oa.gap, ob.gap);
  }
}

TEST(ComponentSnapshot, StatsRoundTripIsByteIdentical) {
  Accumulator acc;
  Histogram h;
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    acc.add(rng.next_double() * 1e6 - 5e5);
    h.add(rng.next_below(1 << 20));
  }
  snap::Writer w1;
  acc.serialize(w1);
  h.serialize(w1);

  Accumulator acc2;
  Histogram h2;
  snap::Reader r(w1.data());
  acc2.serialize(r);
  h2.serialize(r);
  EXPECT_NO_THROW(r.expect_end());

  snap::Writer w2;
  acc2.serialize(w2);
  h2.serialize(w2);
  EXPECT_EQ(w1.data(), w2.data());
  EXPECT_EQ(acc.mean(), acc2.mean());
  EXPECT_EQ(h.approx_quantile(0.9), h2.approx_quantile(0.9));
}

TEST(ComponentSnapshot, TracerRingRoundTrip) {
  TraceConfig cfg;
  cfg.enabled = true;
  cfg.ring_capacity = 64;  // force wrap-around
  trace::Tracer a(cfg);
  for (std::uint64_t i = 0; i < 200; ++i)
    a.emit(i, static_cast<NodeId>(i % 16), trace::Event::BufferWrite, 1, 2,
           0x1000 + i, static_cast<std::int64_t>(i));

  snap::Writer w;
  a.serialize(w);
  trace::Tracer b(cfg);
  snap::Reader r(w.data());
  b.serialize(r);
  EXPECT_NO_THROW(r.expect_end());

  EXPECT_EQ(a.total_events(), b.total_events());
  std::ostringstream ca, cb;
  a.write_canonical(ca);
  b.write_canonical(cb);
  EXPECT_EQ(ca.str(), cb.str());

  // The restored ring keeps rotating identically.
  a.emit(500, 1, trace::Event::NiDeliver, 0, 0, 1, 2);
  b.emit(500, 1, trace::Event::NiDeliver, 0, 0, 1, 2);
  std::ostringstream ca2, cb2;
  a.write_canonical(ca2);
  b.write_canonical(cb2);
  EXPECT_EQ(ca2.str(), cb2.str());
}

TEST(ComponentSnapshot, DisabledTracerRoundTrip) {
  // A checker-only run builds a Tracer that captures nothing (capacity 0);
  // its empty ring and zero head must restore.
  TraceConfig cfg;
  cfg.check_invariants = true;
  trace::Tracer a(cfg);
  a.emit(1, 0, trace::Event::BufferWrite, 0, 0, 1, 0);
  snap::Writer w;
  a.serialize(w);
  trace::Tracer b(cfg);
  snap::Reader r(w.data());
  EXPECT_NO_THROW(b.serialize(r));
  EXPECT_NO_THROW(r.expect_end());
  snap::Writer w2;
  b.serialize(w2);
  EXPECT_EQ(w.data(), w2.data());
}

// A snapshot's CRC catches corruption, not forgery: values a restored
// component later uses as indices are range-checked on load.

TEST(ComponentSnapshot, TracerHeadOutOfRangeIsRejected) {
  TraceConfig cfg;
  cfg.enabled = true;
  cfg.ring_capacity = 64;
  // head_ is the second-to-last u64 of the body (total_ is the last).
  const auto patched_head = [&](std::uint64_t emits, std::uint64_t head) {
    trace::Tracer a(cfg);
    for (std::uint64_t i = 0; i < emits; ++i)
      a.emit(i, 0, trace::Event::BufferWrite, 0, 0, i, 0);
    snap::Writer w;
    a.serialize(w);
    std::vector<std::uint8_t> bytes = w.data();
    for (std::size_t i = 0; i < 8; ++i)
      bytes[bytes.size() - 16 + i] = static_cast<std::uint8_t>(head >> (8 * i));
    return bytes;
  };
  {
    trace::Tracer ok(cfg);
    const std::vector<std::uint8_t> bytes = patched_head(200, 63);
    snap::Reader r(bytes);
    EXPECT_NO_THROW(ok.serialize(r)) << "a full ring's head may be 0..63";
  }
  for (const auto& [emits, head] :
       {std::pair<std::uint64_t, std::uint64_t>{200, 64}, {200, 1000},
        {10, 1}}) {
    trace::Tracer b(cfg);
    const std::vector<std::uint8_t> bytes = patched_head(emits, head);
    snap::Reader r(bytes);
    EXPECT_THROW(b.serialize(r), snap::SnapshotError)
        << emits << " events, head " << head;
  }
}

TEST(ComponentSnapshot, RouterVcOutPortOutOfRangeIsRejected) {
  const noc::MeshShape mesh{4, 4};
  const NocConfig cfg;
  noc::NocStats stats;
  noc::Router a(5, mesh, cfg, stats);
  noc::PacketTable table(mesh.num_nodes());
  snap::Writer w;
  a.serialize(w, table);
  // The first VC leads the body: u64 flit count, u8 stage, u8 out_port.
  std::vector<std::uint8_t> bytes = w.data();
  ASSERT_EQ(bytes[9], static_cast<std::uint8_t>(noc::Port::Local));
  {
    noc::Router ok(5, mesh, cfg, stats);
    snap::Reader r(bytes);
    EXPECT_NO_THROW(ok.serialize(r, table));
  }
  bytes[9] = static_cast<std::uint8_t>(noc::kNumPorts);
  noc::Router b(5, mesh, cfg, stats);
  snap::Reader r(bytes);
  EXPECT_THROW(b.serialize(r, table), snap::SnapshotError);
}

// ---------------------------------------------------------------------------
// Full system: save -> restore -> save byte identity + trace-identical run
// ---------------------------------------------------------------------------

SystemConfig traced_config() {
  SystemConfig cfg;
  cfg.scheme = Scheme::DISCO;
  cfg.seed = 77;
  cfg.trace.enabled = true;
  cfg.trace.check_invariants = true;
  cfg.trace.ring_capacity = 1 << 14;
  // Soft faults exercise the injector RNG, CRC/NACK/retransmit machinery and
  // the NI recovery scans — the states most likely to drift on restore.
  cfg.fault.enabled = true;
  cfg.fault.link_bit_flip_rate = 2e-4;
  cfg.fault.flit_drop_rate = 1e-4;
  return cfg;
}

TEST(SystemSnapshot, SaveRestoreSaveIsByteIdentical) {
  ScratchDir dir("sys-roundtrip");
  const auto& profile = workload::profile_by_name("canneal");
  const SystemConfig cfg = traced_config();

  cmp::CmpSystem sys(cfg, profile);
  sys.functional_warmup(2000);
  sys.run(6000);
  const std::string f1 = dir.file("a.bin");
  sys.save_snapshot(f1, 4000, 0xC0FFEE);

  cmp::CmpSystem restored(cfg, profile);
  EXPECT_EQ(restored.restore_snapshot(f1, 0xC0FFEE), 4000u);
  const std::string f2 = dir.file("b.bin");
  restored.save_snapshot(f2, 4000, 0xC0FFEE);

  EXPECT_EQ(snap::read_snapshot_file(f1), snap::read_snapshot_file(f2))
      << "save -> restore -> save must reproduce identical bytes";
}

TEST(SystemSnapshot, CheckerOnlySystemSaveRestoreSaveIsByteIdentical) {
  // Invariant checking without --trace still builds a (disabled) Tracer.
  ScratchDir dir("sys-checker-only");
  const auto& profile = workload::profile_by_name("canneal");
  SystemConfig cfg = traced_config();
  cfg.trace.enabled = false;

  cmp::CmpSystem sys(cfg, profile);
  ASSERT_NE(sys.tracer(), nullptr);
  sys.functional_warmup(2000);
  sys.run(6000);
  const std::string f1 = dir.file("a.bin");
  sys.save_snapshot(f1, 4000, 0xC0FFEE);

  cmp::CmpSystem restored(cfg, profile);
  EXPECT_EQ(restored.restore_snapshot(f1, 0xC0FFEE), 4000u);
  const std::string f2 = dir.file("b.bin");
  restored.save_snapshot(f2, 4000, 0xC0FFEE);
  EXPECT_EQ(snap::read_snapshot_file(f1), snap::read_snapshot_file(f2));
}

TEST(SystemSnapshot, RestoredRunIsTraceIdenticalForNextKCycles) {
  ScratchDir dir("sys-continue");
  const auto& profile = workload::profile_by_name("swaptions");
  const SystemConfig cfg = traced_config();

  cmp::CmpSystem a(cfg, profile);
  a.functional_warmup(2000);
  a.run(5000);
  const std::string path = dir.file("mid.bin");
  a.save_snapshot(path, 0, 1);

  cmp::CmpSystem b(cfg, profile);
  b.restore_snapshot(path, 1);
  ASSERT_EQ(b.now(), a.now());

  constexpr Cycle kContinue = 4000;
  a.run(kContinue);
  b.run(kContinue);

  EXPECT_EQ(a.total_core_ops(), b.total_core_ops());
  EXPECT_EQ(a.noc_stats().link_flits, b.noc_stats().link_flits);
  std::ostringstream ta, tb;
  a.tracer()->write_canonical(ta);
  b.tracer()->write_canonical(tb);
  EXPECT_EQ(ta.str(), tb.str())
      << "restored system diverged from the uninterrupted one";
  // Soft faults drop flits, and a dropped flit is *supposed* to trip the
  // conservation invariant (see TraceSystem.SeededFaultRunTripsInvariants),
  // so we don't expect clean() here — we expect the restored system to
  // report the exact same violations as the uninterrupted one.
  ASSERT_NE(a.invariant_checker(), nullptr);
  const auto& sa = a.invariant_checker()->summary();
  const auto& sb = b.invariant_checker()->summary();
  EXPECT_EQ(sa.events_checked, sb.events_checked);
  EXPECT_EQ(sa.cycles_checked, sb.cycles_checked);
  EXPECT_EQ(sa.violations, sb.violations);
  EXPECT_EQ(sa.conservation_violations, sb.conservation_violations);
  EXPECT_EQ(sa.credit_violations, sb.credit_violations);
  EXPECT_EQ(sa.first_violation, sb.first_violation);
}

TEST(SystemSnapshot, MismatchedDigestAndGeometryAreRejected) {
  ScratchDir dir("sys-reject");
  const auto& profile = workload::profile_by_name("canneal");
  const SystemConfig cfg = traced_config();
  cmp::CmpSystem sys(cfg, profile);
  sys.functional_warmup(500);
  sys.run(1000);
  const std::string path = dir.file("s.bin");
  sys.save_snapshot(path, 100, 42);

  cmp::CmpSystem other(cfg, profile);
  EXPECT_THROW(other.restore_snapshot(path, 43), snap::SnapshotError)
      << "a snapshot must never restore into a different cell";

  SystemConfig small = cfg;
  small.noc.mesh_cols = 2;
  small.noc.mesh_rows = 2;
  cmp::CmpSystem tiny(small, profile);
  EXPECT_THROW(tiny.restore_snapshot(path, 42), snap::SnapshotError)
      << "geometry mismatches must be rejected, not crash";
}

/// One kill of every component class (the HardFaultSystem schedule) on a
/// traced, invariant-checked DISCO/delta cell.
SystemConfig hard_fault_config() {
  SystemConfig cfg;
  cfg.scheme = Scheme::DISCO;
  cfg.algorithm = "delta";
  cfg.seed = 3;
  cfg.trace.enabled = true;
  cfg.trace.check_invariants = true;
  cfg.trace.ring_capacity = 1 << 14;
  cfg.fault.hard_faults = fault::parse_hard_fault_spec(
      "engine@4000:5,link@6000:9:E,llc@8000:10,router@10000:6");
  return cfg;
}

/// Snapshot payload of `sys` (envelope stripped).
std::vector<std::uint8_t> payload_of(const cmp::CmpSystem& sys,
                                     const ScratchDir& dir) {
  const std::string path = dir.file("pin.bin");
  sys.save_snapshot(path, 0, 1);
  return snap::read_snapshot_file(path);
}

TEST(SystemSnapshot, PayloadBytesArePinned) {
  // Save -> restore -> save only proves self-consistency: a change applied
  // to both directions alike would still pass it. These constants pin the
  // version-1 payload itself; if they move, the on-disk format changed and
  // kSnapshotVersion must be bumped.
  ScratchDir dir("pin");
  const auto& profile = workload::profile_by_name("canneal");
  ASSERT_EQ(snap::kSnapshotVersion, 1u);
  {
    cmp::CmpSystem sys(traced_config(), profile);
    sys.functional_warmup(2000);
    sys.run(6000);
    const auto p = payload_of(sys, dir);
    EXPECT_EQ(crc32(p), 0x5975caafu);
    EXPECT_EQ(p.size(), std::size_t{4106504});
  }
  {
    cmp::CmpSystem sys(hard_fault_config(), profile);
    sys.functional_warmup(2000);
    sys.run(12000);
    ASSERT_EQ(sys.hard_faults_applied(), 4u);
    const auto p = payload_of(sys, dir);
    EXPECT_EQ(crc32(p), 0x1a4df6e4u);
    EXPECT_EQ(p.size(), std::size_t{4302769});
  }
}

TEST(SystemSnapshot, HardFaultedSystemResumesTraceIdentical) {
  // Restoring a degraded system re-applies the kills recorded in the
  // snapshot (topology, severed wires, NI bypass, engine quarantine) and
  // keeps the rest of the schedule pending. Cut with two kills applied and
  // two pending, then with all four applied.
  ScratchDir dir("hard-fault");
  const auto& profile = workload::profile_by_name("canneal");
  const SystemConfig cfg = hard_fault_config();
  for (const Cycle cut : {Cycle{7000}, Cycle{12000}}) {
    SCOPED_TRACE("cut at cycle " + std::to_string(cut));
    cmp::CmpSystem a(cfg, profile);
    a.functional_warmup(2000);
    a.run(cut);
    const std::string f1 = dir.file("a.bin");
    a.save_snapshot(f1, 0, 1);

    cmp::CmpSystem b(cfg, profile);
    b.restore_snapshot(f1, 1);
    ASSERT_EQ(b.now(), a.now());
    ASSERT_EQ(b.hard_faults_applied(), a.hard_faults_applied());
    const std::string f2 = dir.file("b.bin");
    b.save_snapshot(f2, 0, 1);
    EXPECT_EQ(snap::read_snapshot_file(f1), snap::read_snapshot_file(f2))
        << "save -> restore -> save must reproduce identical bytes";

    constexpr Cycle kContinue = 6000;
    a.run(kContinue);
    b.run(kContinue);
    EXPECT_EQ(a.hard_faults_applied(), 4u);
    EXPECT_EQ(b.hard_faults_applied(), 4u);
    EXPECT_EQ(a.total_core_ops(), b.total_core_ops());
    EXPECT_EQ(a.noc_stats().link_flits, b.noc_stats().link_flits);
    std::ostringstream ta, tb;
    a.tracer()->write_canonical(ta);
    b.tracer()->write_canonical(tb);
    EXPECT_EQ(ta.str(), tb.str())
        << "restored degraded system diverged from the uninterrupted one";
    ASSERT_NE(a.invariant_checker(), nullptr);
    const auto& sa = a.invariant_checker()->summary();
    const auto& sb = b.invariant_checker()->summary();
    EXPECT_EQ(sa.events_checked, sb.events_checked);
    EXPECT_EQ(sa.violations, sb.violations);
    EXPECT_EQ(sa.first_violation, sb.first_violation);
  }
}

// ---------------------------------------------------------------------------
// run_cell chunked measurement: identical results, real mid-cell resume
// ---------------------------------------------------------------------------

sim::RunOptions tiny_run() {
  sim::RunOptions opt;
  opt.warmup_ops_per_core = 2000;
  opt.warmup_cycles = 2000;
  opt.measure_cycles = 8000;
  return opt;
}

TEST(ChunkedRunCell, SnapshotIntervalDoesNotChangeResults) {
  ScratchDir dir("chunked");
  const auto& profile = workload::profile_by_name("canneal");
  const SystemConfig cfg = traced_config();

  const sim::CellResult plain = sim::run_cell(cfg, profile, tiny_run());

  sim::RunOptions chunked = tiny_run();
  chunked.snapshot_interval = 2500;  // 4 uneven chunks
  chunked.snapshot_path = dir.file("snap.bin");
  std::uint64_t resumed = 99;
  chunked.resumed_from_cycles = &resumed;
  const sim::CellResult r = sim::run_cell(cfg, profile, chunked);

  EXPECT_EQ(resumed, 0u) << "no prior snapshot: must run from cycle 0";
  EXPECT_EQ(sim::wire::encode_result(plain), sim::wire::encode_result(r))
      << "chunked measurement must be bit-identical to a single run() call";
}

TEST(ChunkedRunCell, ResumesFromSnapshotByteIdentically) {
  ScratchDir dir("resume");
  const auto& profile = workload::profile_by_name("swaptions");
  const SystemConfig cfg = traced_config();

  sim::RunOptions opt = tiny_run();
  opt.snapshot_interval = 3000;
  opt.snapshot_path = dir.file("snap.bin");
  const sim::CellResult first = sim::run_cell(cfg, profile, opt);
  // The run completed, leaving its last mid-cell snapshot (at 6000 of 8000)
  // behind; a rerun must adopt it and still produce identical output.
  ASSERT_TRUE(std::filesystem::exists(opt.snapshot_path));

  std::uint64_t resumed = 0;
  opt.resumed_from_cycles = &resumed;
  const sim::CellResult second = sim::run_cell(cfg, profile, opt);
  EXPECT_EQ(resumed, 6000u);
  EXPECT_EQ(sim::wire::encode_result(first), sim::wire::encode_result(second))
      << "a resumed cell must be byte-identical to the from-zero run";
}

TEST(ChunkedRunCell, ForeignSnapshotFallsBackToFromZeroRun) {
  ScratchDir dir("foreign");
  const auto& profile = workload::profile_by_name("canneal");
  SystemConfig cfg = traced_config();

  sim::RunOptions opt = tiny_run();
  opt.snapshot_interval = 3000;
  opt.snapshot_path = dir.file("snap.bin");
  sim::run_cell(cfg, profile, opt);  // leaves a snapshot for seed 77

  cfg.seed = 78;  // different cell digest now
  const sim::CellResult clean = sim::run_cell(cfg, profile, tiny_run());
  std::uint64_t resumed = 99;
  opt.resumed_from_cycles = &resumed;
  const sim::CellResult r = sim::run_cell(cfg, profile, opt);
  EXPECT_EQ(resumed, 0u) << "digest mismatch must fall back to cycle 0";
  EXPECT_EQ(sim::wire::encode_result(clean), sim::wire::encode_result(r));
}

TEST(ChunkedRunCell, RejectedRestoreFallsBackToCleanRun) {
  // A forged snapshot with a valid envelope and cell digest, rejected by a
  // range check only after the metadata, stats and fault RNG have been
  // read, must leave no trace in the from-zero rerun.
  ScratchDir dir("forged");
  const auto& profile = workload::profile_by_name("canneal");
  const SystemConfig cfg = traced_config();
  sim::RunOptions opt = tiny_run();
  opt.snapshot_interval = 3000;
  opt.snapshot_path = dir.file("snap.bin");

  cmp::CmpSystem sys(cfg, profile);
  sys.functional_warmup(opt.warmup_ops_per_core);
  sys.run(opt.warmup_cycles);
  sys.reset_stats();
  sys.run(3000);
  sys.save_snapshot(opt.snapshot_path, 3000,
                    sim::cell_digest(cfg, profile, opt));

  // Find the tracer body in the payload and push head_ (the second-to-last
  // u64 of the body) past the ring's capacity.
  snap::Writer tw;
  sys.tracer()->serialize(tw);
  const std::vector<std::uint8_t>& body = tw.data();
  std::vector<std::uint8_t> payload =
      snap::read_snapshot_file(opt.snapshot_path);
  const auto at =
      std::search(payload.begin(), payload.end(), body.begin(), body.end());
  ASSERT_NE(at, payload.end());
  const std::size_t head_at =
      static_cast<std::size_t>(at - payload.begin()) + body.size() - 16;
  for (std::size_t i = 0; i < 8; ++i) payload[head_at + i] = 0xFF;
  snap::write_snapshot_file(opt.snapshot_path, payload);

  const sim::CellResult clean = sim::run_cell(cfg, profile, tiny_run());
  std::uint64_t resumed = 99;
  opt.resumed_from_cycles = &resumed;
  const sim::CellResult r = sim::run_cell(cfg, profile, opt);
  EXPECT_EQ(resumed, 0u) << "a rejected restore must fall back to cycle 0";
  EXPECT_EQ(sim::wire::encode_result(clean), sim::wire::encode_result(r))
      << "the fallback run must not inherit partially restored state";
}

TEST(SystemSnapshot, OutOfRangeNodeIdsAreRejected) {
  // Forged snapshots with a valid envelope and cell digest: a packet or a
  // directory entry naming a node outside the 4x4 mesh would index past the
  // per-node routers, NIs and L1s once restored, so the load must reject it.
  ScratchDir dir("nodes");
  const auto& profile = workload::profile_by_name("canneal");
  const SystemConfig cfg = traced_config();
  const auto nodes = static_cast<std::uint16_t>(cfg.noc.num_nodes());
  const std::string path = dir.file("snap.bin");
  cmp::CmpSystem sys(cfg, profile);
  sys.functional_warmup(2000);
  sys.run(6000);
  sys.save_snapshot(path, 0, 0xC0FFEE);
  const std::vector<std::uint8_t> good = snap::read_snapshot_file(path);
  const auto restores = [&](const std::vector<std::uint8_t>& payload) {
    snap::write_snapshot_file(path, payload);
    cmp::CmpSystem fresh(cfg, profile);
    try {
      fresh.restore_snapshot(path, 0xC0FFEE);
    } catch (const snap::SnapshotError&) {
      return false;
    }
    return true;
  };
  ASSERT_TRUE(restores(good));

  // A buffered packet's table record starts with id (u64), src, dst (u16).
  const noc::Packet* pkt = nullptr;
  for (NodeId n = 0; n < nodes && pkt == nullptr; ++n) {
    const noc::Router& router = sys.network().router(n);
    for (std::uint8_t p = 0; p < noc::kNumPorts && pkt == nullptr; ++p) {
      for (std::uint8_t v = 0; v < cfg.noc.num_vcs() && pkt == nullptr; ++v) {
        const auto& buf = router.vc({static_cast<noc::Port>(p), v}).buffer;
        if (!buf.empty()) pkt = buf.front().pkt.get();
      }
    }
  }
  ASSERT_NE(pkt, nullptr) << "no packet in flight to forge";
  snap::Writer rec;
  rec.u64(pkt->id);
  rec.u16(pkt->src);
  rec.u16(pkt->dst);
  const auto at = std::search(good.begin(), good.end(), rec.data().begin(),
                              rec.data().end());
  ASSERT_NE(at, good.end());
  for (const std::size_t field : {std::size_t{8}, std::size_t{10}}) {
    std::vector<std::uint8_t> forged = good;
    const auto pos = static_cast<std::size_t>(at - good.begin()) + field;
    forged[pos] = static_cast<std::uint8_t>(nodes);
    forged[pos + 1] = 0;
    EXPECT_FALSE(restores(forged)) << "packet node field at +" << field;
  }

  // A directory entry: edit one line of a copy of bank 0's array and
  // splice the copy's body over the original's.
  const cache::SegmentedArray& array = sys.l2(0).array();
  snap::Writer body;
  array.serialize(body, nodes);
  const auto body_at = std::search(good.begin(), good.end(),
                                   body.data().begin(), body.data().end());
  ASSERT_NE(body_at, good.end());
  cache::SegmentedArray scan = array;
  const cache::L2Line* line = nullptr;
  for (Addr a = 0; line == nullptr && a < 4096 * kBlockBytes; a += kBlockBytes)
    line = scan.lru_victim(a, ~Addr{0});
  ASSERT_NE(line, nullptr) << "bank 0 holds no valid line";
  const Addr victim = line->addr;
  const auto forged_dir = [&](const std::function<void(cache::DirInfo&)>& edit) {
    cache::SegmentedArray copy = array;
    edit(copy.lookup(victim)->dir);
    snap::Writer w;
    copy.serialize(w, nodes);
    std::vector<std::uint8_t> forged = good;
    std::copy(w.data().begin(), w.data().end(),
              forged.begin() + (body_at - good.begin()));
    return forged;
  };
  EXPECT_TRUE(restores(forged_dir([](cache::DirInfo& d) { d.owner = kInvalidNode; })));
  EXPECT_FALSE(restores(forged_dir([&](cache::DirInfo& d) { d.owner = nodes; })));
  EXPECT_FALSE(restores(forged_dir([&](cache::DirInfo& d) {
    d.sharers |= std::uint64_t{1} << nodes;
  })));
}

}  // namespace
}  // namespace disco
