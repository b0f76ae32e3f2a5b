// Trace record/replay and JSON export tests.
#include <gtest/gtest.h>

#include <sstream>

#include "sim/json_export.h"
#include "workload/profile.h"
#include "workload/trace_io.h"

namespace disco::workload {
namespace {

TEST(TraceIo, RecordWriteReadRoundTrip) {
  const auto& profile = profile_by_name("vips");
  const auto trace = record_trace(profile, 4, 50, 42);
  ASSERT_EQ(trace.size(), 200u);

  std::stringstream ss;
  write_trace(ss, trace);
  const auto back = read_trace(ss);
  ASSERT_EQ(back.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(back[i].core, trace[i].core);
    EXPECT_EQ(back[i].op.addr, trace[i].op.addr);
    EXPECT_EQ(back[i].op.is_store, trace[i].op.is_store);
    EXPECT_EQ(back[i].op.gap, trace[i].op.gap);
  }
}

TEST(TraceIo, RecordingMatchesLiveGenerators) {
  const auto& profile = profile_by_name("dedup");
  const auto trace = record_trace(profile, 2, 30, 7);
  TraceGenerator live0(profile, 0, 7);
  TraceReplayer replay0(trace, 0);
  for (int i = 0; i < 30; ++i) {
    const TraceOp a = live0.next();
    const TraceOp b = replay0.next();
    EXPECT_EQ(a.addr, b.addr);
    EXPECT_EQ(a.is_store, b.is_store);
    EXPECT_EQ(a.gap, b.gap);
  }
}

TEST(TraceIo, ReplayerLoops) {
  std::vector<RecordedOp> trace = {{0, {0x1000, false, 2}}, {0, {0x2000, true, 0}}};
  TraceReplayer r(trace, 0);
  EXPECT_EQ(r.next().addr, 0x1000u);
  EXPECT_EQ(r.next().addr, 0x2000u);
  EXPECT_EQ(r.next().addr, 0x1000u) << "replay wraps around";
}

TEST(TraceIo, RejectsMalformedLines) {
  std::stringstream ss("0 X deadbeef 3\n");
  EXPECT_THROW(read_trace(ss), std::runtime_error);
  std::stringstream ss2("# only a comment\n");
  EXPECT_TRUE(read_trace(ss2).empty());
}

TEST(TraceIo, FiltersPerCore) {
  std::vector<RecordedOp> trace = {
      {0, {0x10, false, 0}}, {1, {0x20, false, 0}}, {0, {0x30, true, 1}}};
  TraceReplayer r0(trace, 0);
  TraceReplayer r1(trace, 1);
  EXPECT_EQ(r0.ops_for_core(), 2u);
  EXPECT_EQ(r1.ops_for_core(), 1u);
  EXPECT_EQ(r1.next().addr, 0x20u);
}

}  // namespace
}  // namespace disco::workload

namespace disco::sim {
namespace {

CellResult sample_result() {
  CellResult r;
  r.workload = "canneal";
  r.algorithm = "delta";
  r.scheme = Scheme::DISCO;
  r.measured_cycles = 1000;
  r.core_ops = 1234;
  r.avg_nuca_latency = 41.5;
  r.energy.noc_dynamic_nj = 10.0;
  r.energy.l2_dynamic_nj = 5.0;
  return r;
}

TEST(JsonExport, SingleObjectHasKeyFields) {
  std::stringstream ss;
  write_json(ss, sample_result());
  const std::string out = ss.str();
  EXPECT_NE(out.find("\"workload\":\"canneal\""), std::string::npos);
  EXPECT_NE(out.find("\"scheme\":\"DISCO\""), std::string::npos);
  EXPECT_NE(out.find("\"avg_nuca_latency\":41.5"), std::string::npos);
  EXPECT_NE(out.find("\"subsystem_nj\":15"), std::string::npos);
}

/// Every field set to a distinct value, every gated group on, non-integer
/// doubles throughout: the input of the pinned-bytes case below.
CellResult full_result() {
  CellResult r;
  r.workload = "canneal";
  r.algorithm = "fpc";
  r.scheme = Scheme::CNC;
  r.measured_cycles = 100001;
  r.core_ops = 100002;
  r.l1_misses = 100003;
  r.avg_nuca_latency = 41.625;
  r.avg_miss_latency = 57.3;
  r.avg_dram_latency = 212.0625;
  r.l2_miss_rate = 0.0375;
  r.avg_packet_latency = 12.34567891;
  r.avg_stored_ratio = 1.0 / 3.0;
  r.link_flits = 100004;
  r.inflight_compressions = 100005;
  r.inflight_decompressions = 100006;
  r.source_compressions = 100007;
  r.compression_aborts = 100008;
  r.decompression_aborts = 100009;
  r.hidden_decomp_ops = 100010;
  r.exposed_decomp_cycles = 100011;
  r.energy.noc_dynamic_nj = 1.5;
  r.energy.noc_leakage_nj = 2.25;
  r.energy.l2_dynamic_nj = 3.125;
  r.energy.l2_leakage_nj = 4.0625;
  r.energy.compressor_dynamic_nj = 5.03125;
  r.energy.compressor_leakage_nj = 6.015625;
  r.energy.dram_nj = 7.0078125;
  FaultSummary& f = r.fault;
  f.enabled = true;
  f.link_bit_flips = 201;
  f.llc_bit_flips = 202;
  f.flit_drops = 203;
  f.flit_duplicates = 204;
  f.engine_stalls = 205;
  f.engine_faults = 206;
  f.crc_checks = 207;
  f.corruptions_detected = 208;
  f.silent_corruptions = 209;
  f.flit_loss_timeouts = 210;
  f.nacks_sent = 211;
  f.retransmissions = 212;
  f.retransmit_deliveries = 213;
  f.backoff_cycles = 214;
  f.duplicate_flits_dropped = 215;
  f.duplicate_retransmissions = 216;
  f.unrecovered_deliveries = 217;
  f.engine_decode_errors = 218;
  f.engines_quarantined = 219;
  f.hard_enabled = true;
  f.hard_faults_applied = 301;
  f.links_killed = 302;
  f.routers_killed = 303;
  f.engines_hard_failed = 304;
  f.banks_killed = 305;
  f.unreachable_drops = 306;
  f.dead_component_drops = 307;
  f.flits_destroyed = 308;
  f.severed_packets = 309;
  f.reroutes = 310;
  f.bypass_retransmits = 311;
  f.synth_completions = 312;
  trace::InvariantSummary& v = r.invariants;
  v.enabled = true;
  v.events_checked = 401;
  v.cycles_checked = 402;
  v.violations = 403;
  v.credit_violations = 404;
  v.conservation_violations = 405;
  v.vc_state_violations = 406;
  v.shadow_violations = 407;
  v.confidence_violations = 408;
  v.eject_violations = 409;
  v.cache_violations = 410;
  v.topology_violations = 411;
  v.first_violation = "VA grant without RC at 77 3 va_grant 1 2 99 0";
  r.trace_text = "7 0 buffer_write 0 0 1 0\n";
  return r;
}

// The exact export text of a fully populated result: any byte that moves
// here changes every results file downstream.
TEST(JsonExport, FullyPopulatedResultBytesArePinned) {
  static constexpr const char* kPinned =
      R"({"workload":"canneal","algorithm":"fpc","scheme":"CNC")"
      R"(,"measured_cycles":100001,"core_ops":100002,"l1_misses":100003)"
      R"(,"avg_nuca_latency":41.625,"avg_miss_latency":57.3)"
      R"(,"avg_dram_latency":212.062,"l2_miss_rate":0.0375)"
      R"(,"avg_packet_latency":12.3457,"avg_stored_ratio":0.333333)"
      R"(,"link_flits":100004,"inflight_compressions":100005)"
      R"(,"inflight_decompressions":100006,"source_compressions":100007)"
      R"(,"compression_aborts":100008,"decompression_aborts":100009)"
      R"(,"hidden_decomp_ops":100010,"energy":{"noc_dynamic_nj":1.5)"
      R"(,"noc_leakage_nj":2.25,"l2_dynamic_nj":3.125)"
      R"(,"l2_leakage_nj":4.0625,"compressor_dynamic_nj":5.03125)"
      R"(,"compressor_leakage_nj":6.01562,"dram_nj":7.00781)"
      R"(,"subsystem_nj":21.9844},"fault":{"link_bit_flips":201)"
      R"(,"llc_bit_flips":202,"flit_drops":203,"flit_duplicates":204)"
      R"(,"engine_stalls":205,"engine_faults":206,"crc_checks":207)"
      R"(,"corruptions_detected":208,"silent_corruptions":209)"
      R"(,"flit_loss_timeouts":210,"nacks_sent":211)"
      R"(,"retransmissions":212,"retransmit_deliveries":213)"
      R"(,"backoff_cycles":214,"duplicate_flits_dropped":215)"
      R"(,"duplicate_retransmissions":216,"unrecovered_deliveries":217)"
      R"(,"engine_decode_errors":218,"engines_quarantined":219})"
      R"(,"hard_fault":{"applied":301,"links_killed":302)"
      R"(,"routers_killed":303,"engines_hard_failed":304)"
      R"(,"banks_killed":305,"unreachable_drops":306)"
      R"(,"dead_component_drops":307,"flits_destroyed":308)"
      R"(,"severed_packets":309,"reroutes":310,"bypass_retransmits":311)"
      R"(,"synth_completions":312},"invariants":{"events_checked":401)"
      R"(,"cycles_checked":402,"violations":403,"credit_violations":404)"
      R"(,"conservation_violations":405,"vc_state_violations":406)"
      R"(,"shadow_violations":407,"confidence_violations":408)"
      R"(,"eject_violations":409,"cache_violations":410)"
      R"(,"first_violation":"VA grant without RC at 77 3 va_grant 1 2 99 0"}})"
      "\n";
  std::stringstream ss;
  write_json(ss, full_result());
  EXPECT_EQ(ss.str(), kPinned);
}

TEST(JsonExport, ArrayBracketsAndCommas) {
  std::stringstream ss;
  write_json(ss, std::vector<CellResult>{sample_result(), sample_result()});
  const std::string out = ss.str();
  EXPECT_EQ(out.front(), '[');
  EXPECT_NE(out.find("},\n"), std::string::npos);
  EXPECT_NE(out.find("]\n"), std::string::npos);
}

}  // namespace
}  // namespace disco::sim
