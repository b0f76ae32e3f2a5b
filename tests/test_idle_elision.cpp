// Idle-elision regression tests. The network skips ticking routers/NIs
// whose state provably cannot change; these tests pin the three ways that
// can go wrong: not skipping enough (telemetry), skipping a component that
// still had timed work (loss-timeout scans must fire on schedule), and not
// waking a sleeping component when new work arrives. The same holds one
// level down, for the router's per-stage work masks and link inbox: state
// written from outside the pipeline (Router::vc(), a snapshot restore) must
// still reach the stages that act on it.
#include <gtest/gtest.h>

#include <vector>

#include "fault/fault.h"
#include "noc/network.h"
#include "noc/snapshot.h"
#include "noc_test_util.h"
#include "trace/trace.h"

namespace disco {
namespace {

using noc::testutil::CollectingSink;
using noc::testutil::make_packet;

/// A tracer on the network turns on the per-cycle elision and work-mask
/// invariant checks (Network::check_elision_invariants).
TraceConfig checked_trace() {
  TraceConfig tc;
  tc.enabled = true;
  tc.ring_capacity = 1 << 12;
  return tc;
}

TEST(IdleElision, QuietNetworkElidesAlmostEveryTick) {
  NocConfig cfg;  // 4x4 default: 16 routers, 16 NIs
  noc::NocStats stats;
  noc::NiPolicy policy;
  noc::Network net(cfg, policy, stats);

  Cycle clock = 0;
  for (Cycle i = 0; i < 100; ++i) net.tick(++clock);

  // Everything starts awake (pessimistic initial flags), then the whole
  // mesh settles to sleep. Allow a few startup cycles of full activity.
  EXPECT_GE(net.router_ticks_elided(), 16u * 97u);
  EXPECT_GE(net.ni_ticks_elided(), 16u * 97u);
}

TEST(IdleElision, SleepingNetworkWakesForLateInjection) {
  NocConfig cfg;
  noc::NocStats stats;
  noc::NiPolicy policy;
  noc::Network net(cfg, policy, stats);
  std::vector<CollectingSink> sinks(16);
  for (NodeId n = 0; n < 16; ++n) net.register_sink(n, UnitKind::Core, &sinks[n]);

  Cycle clock = 0;
  for (Cycle i = 0; i < 200; ++i) net.tick(++clock);  // deep sleep
  const std::uint64_t elided_before = net.router_ticks_elided();
  EXPECT_GT(elided_before, 0u);

  // Inject into a fully sleeping network: the wake flags must bring the
  // whole delivery path (source NI, every router on the route, dst NI)
  // back to life with no external prodding.
  net.inject(0, make_packet(0, 15, VNet::Response, true, clock, 1), clock);
  for (Cycle i = 0; i < 200 && sinks[15].arrivals.empty(); ++i) net.tick(++clock);

  ASSERT_EQ(sinks[15].arrivals.size(), 1u) << "packet lost in a sleeping mesh";
  EXPECT_TRUE(net.quiescent());
  // Off-route routers kept sleeping while the packet moved.
  EXPECT_GT(net.router_ticks_elided(), elided_before);
}

// The loss-timeout scan lives in NI::tick. A dropped body flit leaves the
// network totally idle — no flits move, nothing arrives at the dst — so a
// buggy elision rule would put the dst NI to sleep and the timeout would
// never fire. Recovery completing end-to-end (timeout -> NACK -> retries ->
// ground-truth fallback) proves timed work runs on schedule while the rest
// of the mesh sleeps.
TEST(IdleElision, LossTimeoutsFireWhileTheMeshSleeps) {
  noc::NiPolicy policy;  // raw 8-flit packets: body flits exist to drop
  FaultConfig fc;
  fc.enabled = true;
  fc.flit_drop_rate = 1.0;
  fc.reassembly_timeout_cycles = 64;
  fc.nack_retry_interval = 32;
  fc.max_retries = 2;
  fc.retry_backoff_base = 4;
  fault::FaultInjector injector(fc, 11);

  NocConfig cfg;
  noc::NocStats stats;
  noc::Network net(cfg, policy, stats);
  net.set_fault_injector(&injector);
  std::vector<CollectingSink> sinks(16);
  for (NodeId n = 0; n < 16; ++n) net.register_sink(n, UnitKind::Core, &sinks[n]);

  Cycle clock = 0;
  net.inject(0, make_packet(0, 5, VNet::Response, true, clock, 1), clock);
  for (Cycle i = 0; i < 6000 && !net.quiescent(); ++i) net.tick(++clock);

  ASSERT_TRUE(net.quiescent()) << "recovery stalled: a timeout scan was elided";
  ASSERT_EQ(sinks[5].arrivals.size(), 1u);
  EXPECT_GE(stats.flit_loss_timeouts, 1u);
  EXPECT_EQ(stats.unrecovered_deliveries, 1u);
  // The run spends most of its cycles waiting out timeouts and backoff
  // with only two NIs holding state: elision must still be engaged for the
  // other 14 tiles (and their routers) or it is not doing its job.
  EXPECT_GT(net.router_ticks_elided(), 10u * static_cast<std::uint64_t>(clock) / 2u);
  EXPECT_GT(net.ni_ticks_elided(), 10u * static_cast<std::uint64_t>(clock) / 2u);
}

// A VC written through the mutable Router::vc() — as DISCO engines and
// tests do, outside the pipeline — must still be picked up: a whole packet
// placed straight into an input VC already in VcAlloc (route computed) or
// Active (downstream VC granted) is allocated and forwarded to its sink.
TEST(IdleElision, VcPokedThroughRouterVcIsAllocatedAndForwarded) {
  for (const noc::VcStage stage : {noc::VcStage::VcAlloc, noc::VcStage::Active}) {
    SCOPED_TRACE(stage == noc::VcStage::VcAlloc ? "VcAlloc" : "Active");
    NocConfig cfg;
    noc::NocStats stats;
    noc::NiPolicy policy;
    noc::Network net(cfg, policy, stats);
    trace::Tracer tracer(checked_trace());
    net.set_tracer(&tracer);
    std::vector<CollectingSink> sinks(16);
    for (NodeId n = 0; n < 16; ++n) net.register_sink(n, UnitKind::Core, &sinks[n]);

    Cycle clock = 0;
    for (Cycle i = 0; i < 50; ++i) net.tick(++clock);  // the mesh sleeps

    const noc::PacketPtr pkt = make_packet(0, 15, VNet::Response, true, clock, 1);
    const std::uint32_t flits = pkt->flit_count();
    const auto vc = static_cast<std::uint8_t>(
        static_cast<std::uint32_t>(VNet::Response) * cfg.vcs_per_vnet);
    noc::Router& r = net.router(0);
    noc::VirtualChannel& ch = r.vc({noc::Port::Local, vc});
    for (std::uint32_t i = 0; i < flits; ++i) {
      noc::Flit f;
      f.pkt = pkt;
      f.seq = i;
      f.vc_tag = vc;
      f.arrival = clock;
      ch.buffer.push_back(std::move(f));
    }
    // The flits never took an upstream credit: swallow the ones their pops
    // would return, so the NI's credit count stays exact.
    ch.credit_debt = flits;
    ch.out_port = noc::xy_route(r.mesh(), 0, 15);
    ch.head_arrival = clock;
    ch.stage = stage;
    if (stage == noc::VcStage::Active) ch.out_vc = vc;  // free: no traffic
    net.wake_all();  // out-of-band writes raise no wake flag

    for (Cycle i = 0; i < 200 && sinks[15].arrivals.empty(); ++i) net.tick(++clock);
    ASSERT_EQ(sinks[15].arrivals.size(), 1u) << "poked VC never forwarded";
    EXPECT_EQ(sinks[15].arrivals[0].pkt->id, 1u);
    for (Cycle i = 0; i < 50; ++i) net.tick(++clock);
    EXPECT_TRUE(net.quiescent());
    EXPECT_TRUE(net.credits_quiescent());
  }
}

// A restored router has no record of which input wires were pushed before
// the snapshot: it must still drain flits and credits the snapshot left in
// flight on them, and deliver at the same cycle as the uninterrupted run.
TEST(IdleElision, RestoredRouterConsumesFlitsAndCreditsOnItsInputLinks) {
  NocConfig cfg;
  noc::NiPolicy policy;
  noc::NocStats stats_a;
  noc::Network a(cfg, policy, stats_a);
  std::vector<CollectingSink> sinks_a(16);
  for (NodeId n = 0; n < 16; ++n) a.register_sink(n, UnitKind::Core, &sinks_a[n]);

  Cycle clock = 0;
  a.tick(++clock);
  a.inject(0, make_packet(0, 15, VNet::Response, true, clock, 1), clock);
  // Stop at a cycle boundary with a flit and a credit on inter-router wires.
  const auto wires_busy = [&] {
    bool flit = false;
    bool credit = false;
    for (NodeId n = 0; n < 16; ++n) {
      for (const noc::Port p : {noc::Port::North, noc::Port::South,
                                noc::Port::East, noc::Port::West}) {
        const noc::FlitLink* fl = a.router(n).in_flit_link(p);
        const noc::CreditLink* cl = a.router(n).in_credit_link(p);
        flit |= fl != nullptr && !fl->empty();
        credit |= cl != nullptr && !cl->empty();
      }
    }
    return flit && credit;
  };
  for (Cycle i = 0; i < 50 && !wires_busy(); ++i) a.tick(++clock);
  ASSERT_TRUE(wires_busy()) << "no cycle had a flit and a credit in flight";

  snap::Writer body;
  noc::PacketTable saved(16);
  a.serialize(body, saved);
  snap::Writer file;
  saved.save_table(file);
  file.raw(body.data());

  noc::NocStats stats_b;
  noc::Network b(cfg, policy, stats_b);
  trace::Tracer tracer(checked_trace());
  b.set_tracer(&tracer);
  std::vector<CollectingSink> sinks_b(16);
  for (NodeId n = 0; n < 16; ++n) b.register_sink(n, UnitKind::Core, &sinks_b[n]);
  snap::Reader r{std::span<const std::uint8_t>(file.data())};
  noc::PacketTable loaded(16);
  loaded.load_table(r);
  b.serialize(r, loaded);

  for (Cycle i = 0; i < 200 && sinks_a[15].arrivals.empty(); ++i) {
    ++clock;
    a.tick(clock);
    b.tick(clock);
  }
  ASSERT_EQ(sinks_a[15].arrivals.size(), 1u);
  ASSERT_EQ(sinks_b[15].arrivals.size(), 1u) << "restored mesh lost the packet";
  EXPECT_EQ(sinks_b[15].arrivals[0].when, sinks_a[15].arrivals[0].when);
  for (Cycle i = 0; i < 50; ++i) b.tick(++clock);
  EXPECT_TRUE(b.quiescent());
  EXPECT_TRUE(b.credits_quiescent());
}

}  // namespace
}  // namespace disco
