// Permanent-failure (hard-fault) tests at the component level: the kill
// spec grammar and its round-trip formatter, deterministic seed-derived
// schedule construction, SystemConfig::validate() rejection of degenerate
// meshes and out-of-mesh kill targets, and the live-topology routing model:
// byte-identical XY while routing-healthy, legal terminating up*/down*
// reroutes after router/link deaths, and network-level kill semantics
// (reroute around a dead tile, source-NI drop of unreachable packets).
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "common/config.h"
#include "fault/fault.h"
#include "noc/network.h"
#include "noc/topology.h"
#include "noc_test_util.h"

namespace disco {
namespace {

using noc::Port;
using noc::testutil::CollectingSink;
using noc::testutil::make_packet;
using noc::testutil::run_until_quiescent;

TEST(HardFaultSpec, ParserAcceptsTheFullGrammarAndSortsByCycle) {
  const auto ev = fault::parse_hard_fault_spec(
      "engine@5000:3,link@9000:5:E,router@12000:10,llc@100:0");
  ASSERT_EQ(ev.size(), 4u);
  EXPECT_EQ(ev[0].kind, HardFaultKind::LlcBank);
  EXPECT_EQ(ev[0].at, 100u);
  EXPECT_EQ(ev[0].node, 0u);
  EXPECT_EQ(ev[1].kind, HardFaultKind::DiscoEngine);
  EXPECT_EQ(ev[1].at, 5000u);
  EXPECT_EQ(ev[1].node, 3u);
  EXPECT_EQ(ev[2].kind, HardFaultKind::Link);
  EXPECT_EQ(ev[2].at, 9000u);
  EXPECT_EQ(ev[2].node, 5u);
  EXPECT_EQ(ev[2].dir, static_cast<std::uint8_t>(Port::East));
  EXPECT_EQ(ev[3].kind, HardFaultKind::Router);
  EXPECT_EQ(ev[3].at, 12000u);
  EXPECT_EQ(ev[3].node, 10u);
}

TEST(HardFaultSpec, FormatterRoundTripsThroughTheParser) {
  const auto ev = fault::parse_hard_fault_spec(
      "link@1:0:N,link@2:0:S,link@3:0:E,link@4:0:W,router@5:15,engine@6:7");
  EXPECT_EQ(fault::parse_hard_fault_spec(fault::format_hard_fault_spec(ev)),
            ev);
}

TEST(HardFaultSpec, ParserRejectsMalformedTokens) {
  EXPECT_THROW(fault::parse_hard_fault_spec("bogus@5:1"),
               std::invalid_argument);
  EXPECT_THROW(fault::parse_hard_fault_spec("router@5"),
               std::invalid_argument);
  EXPECT_THROW(fault::parse_hard_fault_spec("router@x:1"),
               std::invalid_argument);
  EXPECT_THROW(fault::parse_hard_fault_spec("link@5:1"),
               std::invalid_argument)
      << "link kills need a direction";
  EXPECT_THROW(fault::parse_hard_fault_spec("link@5:1:Q"),
               std::invalid_argument);
  EXPECT_THROW(fault::parse_hard_fault_spec("engine@5:1:E"),
               std::invalid_argument)
      << "only link kills take a direction";
}

TEST(HardFaultSchedule, IsAPureFunctionOfSeedRateAndMesh) {
  FaultConfig fc;
  fc.hard_fault_rate = 1e-4;
  const auto a = fault::build_hard_fault_schedule(fc, 42, 4, 4, 100000);
  const auto b = fault::build_hard_fault_schedule(fc, 42, 4, 4, 100000);
  EXPECT_EQ(a, b) << "same seed must replay bit-exactly";
  ASSERT_FALSE(a.empty()) << "rate 1e-4 over 100k cycles must draw kills";
  for (std::size_t i = 1; i < a.size(); ++i)
    EXPECT_LE(a[i - 1].at, a[i].at) << "schedule must be sorted by cycle";
  for (const auto& e : a) EXPECT_LT(e.at, 100000u) << "horizon must bound it";
  const auto c = fault::build_hard_fault_schedule(fc, 43, 4, 4, 100000);
  EXPECT_NE(a, c) << "another seed must draw another schedule";
}

TEST(HardFaultSchedule, MergesExplicitEventsAndRespectsTheHorizon) {
  FaultConfig fc;
  fc.hard_faults = fault::parse_hard_fault_spec("router@7000:1,engine@500:2");
  const auto s = fault::build_hard_fault_schedule(fc, 9, 4, 4, 1000000);
  ASSERT_EQ(s.size(), 2u) << "rate 0: only the explicit events";
  EXPECT_EQ(s[0].kind, HardFaultKind::DiscoEngine) << "sorted by cycle";
  EXPECT_EQ(s[1].kind, HardFaultKind::Router);
  EXPECT_TRUE(fault::build_hard_fault_schedule(fc, 9, 4, 4, 400).empty())
      << "events at or past the horizon are discarded";
}

TEST(HardFaultConfig, ValidateRejectsDegenerateSystems) {
  const SystemConfig ok;
  EXPECT_NO_THROW(ok.validate());

  SystemConfig bad = ok;
  bad.noc.mesh_cols = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = ok;
  bad.noc.mesh_rows = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = ok;
  bad.noc.mesh_cols = 1u << 17;
  bad.noc.mesh_rows = 1u << 17;  // cols * rows overflows uint32
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = ok;
  bad.noc.mesh_cols = 9;
  bad.noc.mesh_rows = 8;  // 72 tiles > the 64-bit sharer mask
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = ok;
  bad.noc.vcs_per_vnet = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = ok;
  bad.noc.vcs_per_vnet = 3;  // 9 VCs per port: past the 8-bit VC mask lane
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = ok;
  bad.noc.vcs_per_vnet = 0x55555556u;  // num_vcs() = 3x that wraps to 2
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = ok;
  bad.fault.hard_fault_rate = -0.5;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = ok;
  bad.fault.hard_faults = fault::parse_hard_fault_spec("router@5:99");
  EXPECT_THROW(bad.validate(), std::invalid_argument)
      << "kill target outside the mesh";
  bad = ok;
  bad.fault.hard_faults = {{HardFaultKind::Link, 5, 1, 7}};
  EXPECT_THROW(bad.validate(), std::invalid_argument)
      << "link direction must be N/S/E/W";
}

TEST(HardFaultTopology, HealthyRoutingIsExactlyXY) {
  const noc::MeshShape mesh{4, 4};
  noc::Topology t(mesh);
  EXPECT_TRUE(t.routing_healthy());
  for (NodeId s = 0; s < mesh.num_nodes(); ++s) {
    for (NodeId d = 0; d < mesh.num_nodes(); ++d) {
      std::uint8_t phase = 0;
      EXPECT_EQ(t.route(s, d, phase), noc::xy_route(mesh, s, d))
          << s << "->" << d;
    }
  }
  // Engine and bank deaths leave the wires alone: routing stays on the XY
  // fast path (the golden-trace byte-identity guarantee).
  EXPECT_TRUE(t.kill_engine(3));
  EXPECT_TRUE(t.kill_bank(7));
  EXPECT_TRUE(t.routing_healthy());
  std::uint8_t phase = 0;
  EXPECT_EQ(t.route(0, 15, phase), noc::xy_route(mesh, 0, 15));
  EXPECT_FALSE(t.engine_alive(3));
  EXPECT_FALSE(t.bank_alive(7));
  EXPECT_FALSE(t.unit_alive(7, UnitKind::L2Bank));
  EXPECT_TRUE(t.unit_alive(7, UnitKind::Core));
}

TEST(HardFaultTopology, DegradedRoutesAreLegalAndTerminate) {
  const noc::MeshShape mesh{4, 4};
  noc::Topology t(mesh);
  EXPECT_TRUE(t.kill_router(5));
  EXPECT_FALSE(t.kill_router(5)) << "double kill is a no-op";
  EXPECT_TRUE(t.kill_link(9, Port::East));
  EXPECT_FALSE(t.kill_link(9, Port::East));
  EXPECT_FALSE(t.routing_healthy());
  EXPECT_EQ(t.epoch(), 2u);
  EXPECT_EQ(t.dead_routers(), 1u);
  EXPECT_EQ(t.dead_links(), 1u);
  // A router kill takes the whole tile down.
  EXPECT_FALSE(t.engine_alive(5));
  EXPECT_FALSE(t.bank_alive(5));
  EXPECT_FALSE(t.reachable(0, 5));
  EXPECT_FALSE(t.reachable(5, 5));
  // Every live pair must still be reachable (this cut keeps the mesh
  // connected), and walking the tables must traverse only live links and
  // routers and reach the destination in a bounded number of hops.
  for (NodeId s = 0; s < mesh.num_nodes(); ++s) {
    for (NodeId d = 0; d < mesh.num_nodes(); ++d) {
      if (!t.router_alive(s) || !t.router_alive(d)) continue;
      ASSERT_TRUE(t.reachable(s, d)) << s << "->" << d;
      NodeId here = s;
      std::uint8_t phase = 0;
      int hops = 0;
      while (here != d) {
        const Port p = t.route(here, d, phase);
        ASSERT_NE(p, Port::Local) << s << "->" << d << " stuck at " << here;
        ASSERT_TRUE(t.link_alive(here, p))
            << s << "->" << d << " crosses the dead link at " << here;
        const NodeId next = mesh.neighbor(here, p);
        ASSERT_NE(next, kInvalidNode);
        ASSERT_TRUE(t.router_alive(next))
            << s << "->" << d << " enters the dead router";
        here = next;
        ASSERT_LT(++hops, 32) << s << "->" << d << " does not terminate";
      }
    }
  }
}

TEST(HardFaultTopology, DisconnectionIsDetected) {
  noc::Topology t(noc::MeshShape{2, 2});
  EXPECT_TRUE(t.kill_router(1));
  EXPECT_TRUE(t.kill_router(2));
  EXPECT_TRUE(t.reachable(0, 0));
  EXPECT_TRUE(t.reachable(3, 3));
  EXPECT_FALSE(t.reachable(0, 3)) << "0 and 3 are in separate islands";
  EXPECT_FALSE(t.reachable(3, 0));
}

TEST(HardFaultNetwork, ReroutesAroundADeadTileAndDropsUnreachable) {
  noc::NocStats stats;
  noc::Network net(NocConfig{}, noc::NiPolicy{}, stats);
  std::vector<CollectingSink> sinks(16);
  for (NodeId n = 0; n < 16; ++n)
    net.register_sink(n, UnitKind::Core, &sinks[n]);
  std::vector<std::uint64_t> doomed;
  net.set_unreachable_handler(
      [&doomed](const noc::PacketPtr& p, Cycle) { doomed.push_back(p->id); });
  Cycle clock = 0;

  // Healthy baseline delivery.
  net.inject(0, make_packet(0, 15, VNet::Response, true, clock, 1), clock);
  ASSERT_TRUE(run_until_quiescent(net, clock, 2000));
  ASSERT_EQ(sinks[15].arrivals.size(), 1u);

  const HardFaultEvent kill{HardFaultKind::Router, 0, 5, 0};
  EXPECT_TRUE(net.apply_hard_fault(kill, clock));
  EXPECT_FALSE(net.apply_hard_fault(kill, clock)) << "already dead";
  EXPECT_TRUE(net.node_dead(5));
  EXPECT_FALSE(net.topology().routing_healthy());
  EXPECT_EQ(stats.routers_killed, 1u);

  // 4 -> 7 rides the dead tile under XY (4,5,6,7 share a row): the packet
  // must arrive intact over a detour instead.
  auto pkt = make_packet(4, 7, VNet::Response, true, clock, 2);
  const BlockBytes truth = pkt->data;
  net.inject(4, std::move(pkt), clock);
  ASSERT_TRUE(run_until_quiescent(net, clock, 2000));
  ASSERT_EQ(sinks[7].arrivals.size(), 1u);
  EXPECT_EQ(sinks[7].arrivals[0].pkt->data, truth);
  EXPECT_GT(stats.reroutes, 0u);

  // A packet addressed to the dead tile is dropped at the source NI and
  // resolved through the unreachable handler, never delivered.
  net.inject(0, make_packet(0, 5, VNet::Response, true, clock, 3), clock);
  ASSERT_TRUE(run_until_quiescent(net, clock, 2000));
  EXPECT_TRUE(sinks[5].arrivals.empty());
  EXPECT_EQ(doomed, (std::vector<std::uint64_t>{3}));
  EXPECT_GT(stats.unreachable_drops, 0u);
}

TEST(HardFaultNetwork, EngineKillFlipsTheNiToBypass) {
  noc::NocStats stats;
  noc::Network net(NocConfig{}, noc::NiPolicy{}, stats);
  std::vector<CollectingSink> sinks(16);
  for (NodeId n = 0; n < 16; ++n)
    net.register_sink(n, UnitKind::Core, &sinks[n]);
  Cycle clock = 0;

  EXPECT_TRUE(net.apply_hard_fault({HardFaultKind::DiscoEngine, 0, 6, 0},
                                   clock));
  EXPECT_EQ(stats.engines_hard_failed, 1u);
  EXPECT_FALSE(net.node_dead(6)) << "the tile keeps forwarding traffic";
  EXPECT_TRUE(net.topology().routing_healthy())
      << "engine deaths never perturb routing";
  EXPECT_FALSE(net.topology().engine_alive(6));

  // Raw traffic through and to the bypassed tile still flows.
  auto pkt = make_packet(4, 6, VNet::Response, true, clock, 1);
  const BlockBytes truth = pkt->data;
  net.inject(4, std::move(pkt), clock);
  ASSERT_TRUE(run_until_quiescent(net, clock, 2000));
  ASSERT_EQ(sinks[6].arrivals.size(), 1u);
  EXPECT_EQ(sinks[6].arrivals[0].pkt->data, truth);
}

}  // namespace
}  // namespace disco
