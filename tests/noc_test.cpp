// nexus::noc tests: routing geometry (XY mesh, shortest-way ring, torus
// wraparound) and the precomputed route table, multi-flit serialization
// and flit conservation, link contention, queuing/backpressure behind a
// bottleneck link, hop-count goldens, the placement search, and the subsystem's load-bearing contract
// — the ideal topology reproduces the pre-NoC ("seed") makespans
// bit-identically even with multi-flit accounting, while ring/mesh/torus
// bound them from above.
#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "nexus/common/rng.hpp"
#include "nexus/noc/network.hpp"
#include "nexus/noc/placement.hpp"
#include "nexus/noc/topology.hpp"
#include "nexus/nexuspp/nexuspp.hpp"
#include "nexus/nexussharp/nexussharp.hpp"
#include "nexus/runtime/simulation_driver.hpp"
#include "nexus/telemetry/registry.hpp"
#include "nexus/workloads/workloads.hpp"

namespace nexus {
namespace {

using noc::Network;
using noc::NocConfig;
using noc::Topology;
using noc::TopologyKind;

constexpr Tick kCycle = 10000;  // 10 ns at 100 MHz

// ---------- topology geometry ----------

TEST(Topology, ParseAndToString) {
  TopologyKind k = TopologyKind::kMesh;
  EXPECT_TRUE(noc::parse_topology("ideal", &k));
  EXPECT_EQ(k, TopologyKind::kIdeal);
  EXPECT_TRUE(noc::parse_topology("ring", &k));
  EXPECT_EQ(k, TopologyKind::kRing);
  EXPECT_TRUE(noc::parse_topology("mesh", &k));
  EXPECT_EQ(k, TopologyKind::kMesh);
  EXPECT_TRUE(noc::parse_topology("torus", &k));
  EXPECT_EQ(k, TopologyKind::kTorus);
  EXPECT_FALSE(noc::parse_topology("fat-tree", &k));
  EXPECT_STREQ(noc::to_string(TopologyKind::kRing), "ring");
  EXPECT_STREQ(noc::to_string(TopologyKind::kTorus), "torus");
}

TEST(Topology, IdealHasNoLinksAndUnitHops) {
  const Topology t(TopologyKind::kIdeal, 8);
  EXPECT_EQ(t.link_count(), 0u);
  EXPECT_EQ(t.node_count(), 8u);
  EXPECT_EQ(t.hops(3, 3), 0u);
  EXPECT_EQ(t.hops(0, 7), 1u);
  EXPECT_EQ(t.describe(), "ideal");
}

TEST(Topology, RingShortestWayWithClockwiseTieBreak) {
  const Topology t(TopologyKind::kRing, 6);
  EXPECT_EQ(t.node_count(), 6u);
  EXPECT_EQ(t.link_count(), 12u);  // cw + ccw per node
  EXPECT_EQ(t.hops(0, 1), 1u);
  EXPECT_EQ(t.hops(0, 5), 1u);  // counter-clockwise is shorter
  EXPECT_EQ(t.hops(1, 4), 3u);  // tie: both ways are 3
  EXPECT_EQ(t.describe(), "ring6");

  // Tie-break must route clockwise: 1 -> 2 -> 3 -> 4.
  std::vector<noc::LinkId> route;
  t.route(1, 4, &route);
  ASSERT_EQ(route.size(), 3u);
  EXPECT_EQ(t.link_dst(route[0]), 2u);
  EXPECT_EQ(t.link_dst(route[1]), 3u);
  EXPECT_EQ(t.link_dst(route[2]), 4u);

  // Shortest way wraps: 0 -> 5 uses the single counter-clockwise link.
  t.route(0, 5, &route);
  ASSERT_EQ(route.size(), 1u);
  EXPECT_EQ(t.link_src(route[0]), 0u);
  EXPECT_EQ(t.link_dst(route[0]), 5u);
}

TEST(Topology, TwoNodeRingKeepsOneLinkPerDirection) {
  const Topology t(TopologyKind::kRing, 2);
  EXPECT_EQ(t.link_count(), 2u);
  EXPECT_EQ(t.hops(0, 1), 1u);
  EXPECT_EQ(t.hops(1, 0), 1u);
}

TEST(Topology, MeshAutoGeometryIsNearSquare) {
  // 8 endpoints -> 3x3 router grid (the 9th router is a filler).
  const Topology t(TopologyKind::kMesh, 8);
  EXPECT_EQ(t.cols(), 3u);
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.node_count(), 9u);
  EXPECT_EQ(t.describe(), "mesh3x3");
  // 2D mesh directed links: 2 * (rows*(cols-1) + cols*(rows-1)) = 24.
  EXPECT_EQ(t.link_count(), 24u);

  const Topology wide(TopologyKind::kMesh, 8, /*mesh_cols=*/4);
  EXPECT_EQ(wide.cols(), 4u);
  EXPECT_EQ(wide.rows(), 2u);
  EXPECT_EQ(wide.describe(), "mesh2x4");
}

TEST(Topology, MeshXYRoutingGoldens) {
  //  0 1 2
  //  3 4 5
  //  6 7 8
  const Topology t(TopologyKind::kMesh, 9);
  EXPECT_EQ(t.hops(0, 8), 4u);
  EXPECT_EQ(t.hops(2, 6), 4u);
  EXPECT_EQ(t.hops(4, 4), 0u);

  // XY: exhaust x first, then y — 0 -> 1 -> 2 -> 5 -> 8.
  std::vector<noc::LinkId> route;
  t.route(0, 8, &route);
  ASSERT_EQ(route.size(), 4u);
  EXPECT_EQ(t.link_dst(route[0]), 1u);
  EXPECT_EQ(t.link_dst(route[1]), 2u);
  EXPECT_EQ(t.link_dst(route[2]), 5u);
  EXPECT_EQ(t.link_dst(route[3]), 8u);

  // 8 -> 3: x first (8 -> 7 -> 6), then y (6 -> 3).
  t.route(8, 3, &route);
  ASSERT_EQ(route.size(), 3u);
  EXPECT_EQ(t.link_dst(route[0]), 7u);
  EXPECT_EQ(t.link_dst(route[1]), 6u);
  EXPECT_EQ(t.link_dst(route[2]), 3u);
}

TEST(Topology, TorusWraparoundHopGoldens) {
  // Mirrors MeshXYRoutingGoldens on the same 3x3 grid, now with wraps:
  //  0 1 2
  //  3 4 5    (+ wraparound links in both dimensions)
  //  6 7 8
  const Topology t(TopologyKind::kTorus, 9);
  EXPECT_EQ(t.describe(), "torus3x3");
  EXPECT_EQ(t.node_count(), 9u);
  EXPECT_EQ(t.link_count(), 36u);  // full torus: every node has degree 4
  EXPECT_EQ(t.hops(0, 8), 2u);     // the mesh pays 4 corner-to-corner
  EXPECT_EQ(t.hops(2, 6), 2u);
  EXPECT_EQ(t.hops(0, 2), 1u);  // x wraparound
  EXPECT_EQ(t.hops(0, 6), 1u);  // y wraparound
  EXPECT_EQ(t.hops(4, 4), 0u);
  EXPECT_EQ(t.hops(3, 5), 1u);

  // XY order still holds: 0 -> 8 wraps x first (0 -> 2), then y (2 -> 8).
  std::vector<noc::LinkId> route;
  t.route(0, 8, &route);
  ASSERT_EQ(route.size(), 2u);
  EXPECT_EQ(t.link_dst(route[0]), 2u);
  EXPECT_EQ(t.link_dst(route[1]), 8u);

  // Interior routes do not wrap: 4 -> 0 goes 4 -> 3 -> 0.
  t.route(4, 0, &route);
  ASSERT_EQ(route.size(), 2u);
  EXPECT_EQ(t.link_dst(route[0]), 3u);
  EXPECT_EQ(t.link_dst(route[1]), 0u);
}

TEST(Topology, TorusTieBreaksForwardAndSmallDimsStayMesh) {
  //  0 1 2 3    2 rows x 4 cols: the x dimension has equal-way ties, the
  //  4 5 6 7    y dimension (size 2) is too small to wrap at all.
  const Topology t(TopologyKind::kTorus, 8, /*mesh_cols=*/4);
  EXPECT_EQ(t.describe(), "torus2x4");
  // Mesh links 2*(2*3 + 4*1) = 20, plus x wraps on each row = 4; no y wraps.
  EXPECT_EQ(t.link_count(), 24u);
  EXPECT_EQ(t.hops(0, 2), 2u);  // tie: both ways are 2
  EXPECT_EQ(t.hops(0, 3), 1u);  // wrap is shorter
  // Tie-break routes forward (+x): 0 -> 1 -> 2, mirroring the ring's
  // deterministic clockwise rule.
  std::vector<noc::LinkId> route;
  t.route(0, 2, &route);
  ASSERT_EQ(route.size(), 2u);
  EXPECT_EQ(t.link_dst(route[0]), 1u);
  EXPECT_EQ(t.link_dst(route[1]), 2u);

  // A torus whose dimensions are all <= 2 degenerates to exactly the mesh.
  const Topology small(TopologyKind::kTorus, 4, /*mesh_cols=*/2);
  const Topology mesh(TopologyKind::kMesh, 4, /*mesh_cols=*/2);
  EXPECT_EQ(small.link_count(), mesh.link_count());
  EXPECT_EQ(small.hops(0, 3), mesh.hops(0, 3));
}

TEST(Topology, LinkLabelsAreTelemetryPathSafe) {
  const Topology t(TopologyKind::kRing, 3);
  const std::string label = t.link_label(0);
  EXPECT_EQ(label, "l0_0to1");
  EXPECT_EQ(label.find('/'), std::string::npos);
}

// ---------- route table ----------

/// The routing rule spelled out arithmetically, independent of the
/// Topology's own builder: the neighbour a route from `from` to `to` steps
/// to first.
noc::NodeId expected_next(const Topology& t, noc::NodeId from,
                          noc::NodeId to) {
  const std::uint32_t n = t.node_count();
  if (t.kind() == TopologyKind::kRing) {
    const std::uint32_t cw = (to + n - from) % n;
    const std::uint32_t ccw = (from + n - to) % n;
    return cw <= ccw ? (from + 1) % n : (from + n - 1) % n;  // tie: clockwise
  }
  const std::uint32_t cols = t.cols();
  const std::uint32_t rows = t.rows();
  const std::uint32_t fx = from % cols, fy = from / cols;
  const std::uint32_t tx = to % cols, ty = to / cols;
  // One step along a dimension of size `len` from `f` towards `d`.
  auto step = [&t](std::uint32_t f, std::uint32_t d, std::uint32_t len) {
    if (t.kind() == TopologyKind::kTorus) {
      const std::uint32_t fwd = (d + len - f) % len;
      return fwd <= len - fwd ? (f + 1) % len : (f + len - 1) % len;
    }
    return f < d ? f + 1 : f - 1;
  };
  if (fx != tx) return fy * cols + step(fx, tx, cols);  // x first
  return step(fy, ty, rows) * cols + fx;
}

/// Walk next_link from every node to every other node: each step must
/// leave the current node towards the arithmetic rule's neighbour, and the
/// walk must reach `to` in exactly hops(from, to) steps.
void expect_route_table_matches_rule(const Topology& t) {
  const std::uint32_t n = t.node_count();
  for (noc::NodeId from = 0; from < n; ++from) {
    for (noc::NodeId to = 0; to < n; ++to) {
      if (from == to) continue;
      noc::NodeId at = from;
      std::uint32_t steps = 0;
      while (at != to && steps <= n) {
        const noc::LinkId l = t.next_link(at, to);
        ASSERT_LT(l, t.link_count()) << t.describe() << " " << at << "->" << to;
        ASSERT_EQ(t.link_src(l), at);
        ASSERT_EQ(t.link_dst(l), expected_next(t, at, to))
            << t.describe() << " from " << from << " to " << to << " at " << at;
        at = t.link_dst(l);
        ++steps;
      }
      ASSERT_EQ(at, to) << t.describe() << " " << from << "->" << to;
      ASSERT_EQ(steps, t.hops(from, to))
          << t.describe() << " " << from << "->" << to;
    }
  }
}

TEST(RouteTable, RingsMatchTheShortestWayRule) {
  const Topology one(TopologyKind::kRing, 1);
  EXPECT_EQ(one.node_count(), 1u);
  EXPECT_EQ(one.link_count(), 0u);
  for (const std::uint32_t nodes : {1u, 2u, 3u, 8u}) {
    SCOPED_TRACE(nodes);
    expect_route_table_matches_rule(Topology(TopologyKind::kRing, nodes));
  }
}

TEST(RouteTable, MeshesAndToriMatchTheXYRule) {
  struct Shape {
    std::uint32_t endpoints;
    std::uint32_t mesh_cols;
    std::uint32_t rows;
    std::uint32_t cols;
  };
  const Shape shapes[] = {
      {5, 5, 1, 5},    // 1 x N
      {5, 1, 5, 1},    // N x 1
      {4, 0, 2, 2},    // 2 x 2
      {9, 0, 3, 3},    // 3 x 3
      {33, 0, 6, 6},   // 6 x 6 with three filler routers
      {10, 4, 3, 4},   // explicit mesh_cols, two fillers
  };
  for (const TopologyKind kind : {TopologyKind::kMesh, TopologyKind::kTorus}) {
    for (const Shape& s : shapes) {
      const Topology t(kind, s.endpoints, s.mesh_cols);
      SCOPED_TRACE(t.describe());
      ASSERT_EQ(t.rows(), s.rows);
      ASSERT_EQ(t.cols(), s.cols);
      expect_route_table_matches_rule(t);
      if (HasFatalFailure()) return;
    }
  }
}

// ---------- network dynamics ----------

/// Collects (time, op, a) triples for every delivered payload.
struct Sink final : Component {
  struct Delivery {
    Tick t;
    std::uint32_t op;
    std::uint64_t a;
  };
  std::vector<Delivery> seen;
  void handle(Simulation& sim, const Event& ev) override {
    seen.push_back({sim.now(), ev.op, ev.a});
  }
};

NocConfig cfg_kind(TopologyKind kind, std::int64_t hop = 1,
                   std::int64_t link = 1) {
  NocConfig cfg;
  cfg.kind = kind;
  cfg.hop_cycles = hop;
  cfg.link_cycles = link;
  return cfg;
}

TEST(Network, IdealDeliversAtUniformLatency) {
  Simulation sim;
  Sink sink;
  const std::uint32_t dst = sim.add_component(&sink);
  Network net(cfg_kind(TopologyKind::kIdeal), 4, 100.0,
              /*ideal_latency=*/3 * kCycle);
  net.attach(sim);
  net.send(sim, 0, 0, 3, dst, 7, 42);
  net.send(sim, 0, 0, 3, dst, 7, 43);  // a crossbar never contends
  sim.run();
  ASSERT_EQ(sink.seen.size(), 2u);
  EXPECT_EQ(sink.seen[0].t, 3 * kCycle);
  EXPECT_EQ(sink.seen[1].t, 3 * kCycle);
  EXPECT_EQ(sink.seen[0].a, 42u);
  const Network::Stats s = net.stats();
  EXPECT_EQ(s.messages, 2u);
  EXPECT_EQ(s.delivered, 2u);
  EXPECT_EQ(s.total_hops, 2u);
  EXPECT_EQ(s.blocked_flits, 0u);
}

TEST(Network, LinkSerializesOneFlitPerLinkCycles) {
  // Two nodes, four same-instant messages on the one 0->1 link: arrivals
  // separate by link_cycles (1 cycle) — this is the contention the ideal
  // crossbar cannot see.
  Simulation sim;
  Sink sink;
  const std::uint32_t dst = sim.add_component(&sink);
  Network net(cfg_kind(TopologyKind::kRing, /*hop=*/1, /*link=*/1), 2, 100.0, 0);
  net.attach(sim);
  for (std::uint64_t i = 0; i < 4; ++i) net.send(sim, 0, 0, 1, dst, 0, i);
  sim.run();
  ASSERT_EQ(sink.seen.size(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(sink.seen[i].a, i) << "FIFO order must hold on one link";
    EXPECT_EQ(sink.seen[i].t, static_cast<Tick>(i + 1) * kCycle);
  }
  const Network::Stats s = net.stats();
  EXPECT_EQ(s.blocked_flits, 3u);                      // msgs 1..3 waited
  EXPECT_EQ(s.stall_ticks, (1 + 2 + 3) * kCycle);      // 1+2+3 cycles
  EXPECT_EQ(s.link_flits[0], 4u);
  EXPECT_EQ(s.link_busy[0], 4 * kCycle);
  EXPECT_EQ(s.max_in_flight, 4u);
}

TEST(Network, BottleneckLinkBacksUpUpstreamTraffic) {
  // 1x3 mesh (0 - 1 - 2): a burst from node 0 and a burst from node 1 both
  // need link 1->2. The later-injected flits from node 0 queue behind
  // node 1's at the shared link — their delivery times stretch out even
  // though their first hop (0->1) was uncontended.
  Simulation sim;
  Sink sink;
  const std::uint32_t dst = sim.add_component(&sink);
  NocConfig cfg = cfg_kind(TopologyKind::kMesh, /*hop=*/1, /*link=*/1);
  cfg.mesh_cols = 3;  // force the 1x3 row (auto geometry would pick 2x2)
  Network net(cfg, 3, 100.0, 0);
  ASSERT_EQ(net.topology().rows(), 1u);
  net.attach(sim);
  for (std::uint64_t i = 0; i < 3; ++i) net.send(sim, 0, 1, 2, dst, 1, i);
  net.send(sim, 0, 0, 2, dst, 0, 99);  // two hops, shares link 1->2
  sim.run();
  ASSERT_EQ(sink.seen.size(), 4u);
  // Node 1's burst serializes at cycles 1, 2, 3; the 0->2 message reaches
  // node 1 at cycle 1 but finds the shared link owned until cycle 3, so it
  // arrives at cycle 4 instead of the uncontended 2.
  EXPECT_EQ(sink.seen.back().a, 99u);
  EXPECT_EQ(sink.seen.back().t, 4 * kCycle);
  EXPECT_GT(net.stats().stall_ticks, 0);
}

TEST(Network, HopCountGoldensAcrossTheMesh) {
  // 3x3 mesh: corner-to-corner message records 4 hops; neighbours 1.
  Simulation sim;
  Sink sink;
  const std::uint32_t dst = sim.add_component(&sink);
  Network net(cfg_kind(TopologyKind::kMesh, /*hop=*/2, /*link=*/1), 9, 100.0, 0);
  net.attach(sim);
  net.send(sim, 0, 0, 8, dst, 0, 1);
  net.send(sim, 0, 3, 4, dst, 0, 2);
  sim.run();
  const Network::Stats s = net.stats();
  EXPECT_EQ(s.delivered, 2u);
  EXPECT_EQ(s.total_hops, 5u);
  // Uncontended latency = hops * hop_cycles.
  ASSERT_EQ(sink.seen.size(), 2u);
  EXPECT_EQ(sink.seen[0].a, 2u);
  EXPECT_EQ(sink.seen[0].t, 1 * 2 * kCycle);  // 1 hop * 2 cycles
  EXPECT_EQ(sink.seen[1].t, 4 * 2 * kCycle);  // 4 hops * 2 cycles
}

TEST(Network, FlitsForMatchesTheHeaderPlusPayloadFormula) {
  Network net(cfg_kind(TopologyKind::kRing), 2, 100.0, 0);
  EXPECT_EQ(net.flits_for(0), 1u);   // bare record: header only
  EXPECT_EQ(net.flits_for(1), 2u);
  EXPECT_EQ(net.flits_for(8), 2u);   // one parameter
  EXPECT_EQ(net.flits_for(9), 3u);
  EXPECT_EQ(net.flits_for(32), 5u);  // four parameters
}

TEST(Network, MultiFlitMessageOccupiesTheLinkForItsWholeTrain) {
  // Two nodes, hop=1, link=1, flit_bytes=8. A 16-byte message is 3 flits:
  // the head emerges after the hop cycle, the tail 2 link cycles later, so
  // delivery lands at cycle 3 and the link stays busy for 3 cycles. A
  // second identical message injected at the same instant queues behind
  // the whole train (3 stall cycles), not just behind one flit.
  Simulation sim;
  Sink sink;
  const std::uint32_t dst = sim.add_component(&sink);
  Network net(cfg_kind(TopologyKind::kRing, /*hop=*/1, /*link=*/1), 2, 100.0, 0);
  net.attach(sim);
  net.send(sim, 0, 0, 1, dst, 0, 1, 0, /*payload_bytes=*/16);
  net.send(sim, 0, 0, 1, dst, 0, 2, 0, /*payload_bytes=*/16);
  sim.run();
  ASSERT_EQ(sink.seen.size(), 2u);
  EXPECT_EQ(sink.seen[0].t, 3 * kCycle);
  EXPECT_EQ(sink.seen[1].t, 6 * kCycle);
  const Network::Stats s = net.stats();
  EXPECT_EQ(s.injected_flits, 6u);
  EXPECT_EQ(s.delivered_flits, 6u);
  EXPECT_EQ(s.link_flits[0], 6u);
  EXPECT_EQ(s.link_busy[0], 6 * kCycle);
  EXPECT_EQ(s.blocked_flits, 1u);
  EXPECT_EQ(s.stall_ticks, 3 * kCycle);
}

TEST(Network, FlitConservationAcrossTopologies) {
  // Property: after a drained run of seeded pseudo-random traffic, every
  // message was delivered and the delivered flit count equals the sum of
  // the per-message flit counts (= the injected count, = the traffic-matrix
  // total) on every topology — nothing is lost, duplicated or re-split.
  for (const TopologyKind kind :
       {TopologyKind::kIdeal, TopologyKind::kRing, TopologyKind::kMesh,
        TopologyKind::kTorus}) {
    Simulation sim;
    Sink sink;
    const std::uint32_t dst = sim.add_component(&sink);
    Network net(cfg_kind(kind, /*hop=*/2, /*link=*/1), 9, 100.0, 3 * kCycle);
    net.attach(sim);
    Xoshiro256 rng(2026);
    std::uint64_t expected_flits = 0;
    constexpr std::uint64_t kMsgs = 200;
    for (std::uint64_t i = 0; i < kMsgs; ++i) {
      const auto src = static_cast<noc::NodeId>(rng.below(9));
      const auto to = static_cast<noc::NodeId>(rng.below(9));
      const auto payload = static_cast<std::uint32_t>(rng.below(40));
      expected_flits += net.flits_for(payload);
      net.send(sim, sim.now(), src, to, dst, 0, i, 0, payload);
    }
    sim.run();
    const Network::Stats s = net.stats();
    EXPECT_EQ(sink.seen.size(), kMsgs) << noc::to_string(kind);
    EXPECT_EQ(s.messages, kMsgs) << noc::to_string(kind);
    EXPECT_EQ(s.delivered, kMsgs) << noc::to_string(kind);
    EXPECT_EQ(s.injected_flits, expected_flits) << noc::to_string(kind);
    EXPECT_EQ(s.delivered_flits, expected_flits) << noc::to_string(kind);
    EXPECT_EQ(std::accumulate(s.traffic.begin(), s.traffic.end(),
                              std::uint64_t{0}),
              expected_flits)
        << noc::to_string(kind);
  }
}

TEST(Network, TelemetryMatchesStats) {
  telemetry::MetricRegistry reg;
  Simulation sim;
  Sink sink;
  const std::uint32_t dst = sim.add_component(&sink);
  Network net(cfg_kind(TopologyKind::kRing), 2, 100.0, 0);
  sim.bind({.metrics = &reg});
  net.attach(sim);
  for (std::uint64_t i = 0; i < 3; ++i) net.send(sim, 0, 0, 1, dst, 0, i);
  sim.run();
  const telemetry::Snapshot snap = reg.snapshot();
  const Network::Stats s = net.stats();
  EXPECT_EQ(snap.counter_at("noc/messages"), s.messages);
  EXPECT_EQ(snap.counter_at("noc/delivered"), s.delivered);
  EXPECT_EQ(snap.counter_at("noc/flits"), s.injected_flits);
  EXPECT_EQ(snap.counter_at("noc/delivered_flits"), s.delivered_flits);
  EXPECT_EQ(snap.counter_at("noc/blocked_flits"), s.blocked_flits);
  EXPECT_EQ(snap.counter_at("noc/stall_ps"),
            static_cast<std::uint64_t>(s.stall_ticks));
  EXPECT_EQ(snap.counter_at("noc/link/l0_0to1/flits"), s.link_flits[0]);
  const telemetry::MetricValue* hops = snap.find("noc/hops");
  ASSERT_NE(hops, nullptr);
  EXPECT_EQ(hops->hist.count, s.delivered);
  EXPECT_EQ(hops->hist.sum, s.total_hops);
}

// ---------- placement ----------

TEST(Placement, CostTracksWeightedHopDistance) {
  //  0 - 1 - 2  (1x3 mesh row): all traffic between endpoints 0 and 2.
  const Topology t(TopologyKind::kMesh, 3, /*mesh_cols=*/3);
  noc::TrafficMatrix m(3);
  m.add(0, 2, 10);
  m.add(2, 0, 10);
  const std::vector<std::uint32_t> identity{0, 1, 2};
  EXPECT_EQ(noc::placement_cost(t, identity, m), 40u);  // 2 hops x 20 flits
  const std::vector<std::uint32_t> adjacent{0, 2, 1};   // 1 gets out of the way
  EXPECT_EQ(noc::placement_cost(t, adjacent, m), 20u);
}

TEST(Placement, SearchFindsTheAdjacentLayout) {
  const Topology t(TopologyKind::kMesh, 3, /*mesh_cols=*/3);
  noc::TrafficMatrix m(3);
  m.add(0, 2, 10);
  m.add(2, 0, 10);
  const noc::PlacementResult r = noc::optimize_placement(t, m);
  EXPECT_EQ(r.initial_cost, 40u);
  EXPECT_EQ(r.cost, 20u);
  EXPECT_EQ(noc::placement_cost(t, r.assignment, m), r.cost);
  EXPECT_EQ(t.hops(r.assignment[0], r.assignment[2]), 1u);
  EXPECT_GE(r.greedy_swaps, 1u);
}

TEST(Placement, IdealTopologyReturnsTheIdentity) {
  const Topology t(TopologyKind::kIdeal, 4);
  noc::TrafficMatrix m(4);
  m.add(0, 3, 100);
  const noc::PlacementResult r = noc::optimize_placement(t, m);
  EXPECT_EQ(r.assignment, (std::vector<std::uint32_t>{0, 1, 2, 3}));
  EXPECT_EQ(r.cost, r.initial_cost);
}

TEST(Placement, SearchMayUseFillerTiles) {
  // 3 endpoints on a 2x2 grid (tile 3 is a filler): heavy 0<->1<->2 chain
  // traffic. The search is free to park an endpoint on the filler.
  const Topology t(TopologyKind::kMesh, 3, /*mesh_cols=*/2);
  ASSERT_EQ(t.node_count(), 4u);
  noc::TrafficMatrix m(3);
  m.add(0, 1, 5);
  m.add(1, 2, 5);
  m.add(2, 0, 5);
  const noc::PlacementResult r = noc::optimize_placement(t, m);
  EXPECT_LE(r.cost, r.initial_cost);
  // Whatever layout wins, it must stay a valid injection into the grid.
  std::vector<bool> used(t.node_count(), false);
  for (const std::uint32_t tile : r.assignment) {
    ASSERT_LT(tile, t.node_count());
    EXPECT_FALSE(used[tile]);
    used[tile] = true;
  }
}

TEST(Placement, NetworkAppliesThePlacement) {
  // 1x3 mesh, endpoints 0 and 2 talk. Under the identity they pay 2 hops;
  // placed adjacently ({0, 2, 1}) the same logical send pays 1 — and the
  // traffic matrix still records the *logical* pair, so a measured matrix
  // is placement-independent.
  Simulation sim;
  Sink sink;
  const std::uint32_t dst = sim.add_component(&sink);
  NocConfig cfg = cfg_kind(TopologyKind::kMesh, /*hop=*/1, /*link=*/1);
  cfg.mesh_cols = 3;
  cfg.placement = {0, 2, 1};
  cfg.placement_name = "swap12";
  Network net(cfg, 3, 100.0, 0);
  net.attach(sim);
  EXPECT_EQ(net.tile_of(1), 2u);
  net.send(sim, 0, 0, 2, dst, 0, 7);
  sim.run();
  ASSERT_EQ(sink.seen.size(), 1u);
  EXPECT_EQ(sink.seen[0].t, 1 * kCycle);  // one hop instead of two
  const Network::Stats s = net.stats();
  EXPECT_EQ(s.total_hops, 1u);
  EXPECT_EQ(s.traffic[0 * 3 + 2], 1u) << "traffic keyed by logical endpoint";
}

// ---------- whole-stack contracts ----------

NexusSharpConfig sharp_cfg(std::uint32_t tgs, double mhz,
                           TopologyKind kind = TopologyKind::kIdeal) {
  NexusSharpConfig cfg;
  cfg.num_task_graphs = tgs;
  if (mhz > 0.0) cfg.freq_mhz = mhz;
  cfg.noc.kind = kind;
  return cfg;
}

// Pre-NoC ("seed") makespans, captured on the commit before this subsystem
// landed. The default ideal topology must reproduce them bit-identically:
// attaching the Network may not perturb a single event.
constexpr Tick kSeedSharp4Gauss120W16 = 868065000;
constexpr Tick kSeedSharp6Gauss120W16 = 1562408195;
constexpr Tick kSeedNppGauss120W8 = 1300582000;

TEST(NocIntegration, IdealTopologyReproducesSeedMakespans) {
  const Trace tr = workloads::make_gaussian({.n = 120});
  {
    NexusSharp mgr(sharp_cfg(4, 100.0));
    EXPECT_EQ(run_trace(tr, mgr, RuntimeConfig{.workers = 16}).makespan,
              kSeedSharp4Gauss120W16);
  }
  {
    NexusSharp mgr;  // default config: 6 TGs, ideal NoC
    EXPECT_EQ(run_trace(tr, mgr, RuntimeConfig{.workers = 16}).makespan,
              kSeedSharp6Gauss120W16);
  }
  {
    NexusPP mgr;
    EXPECT_EQ(run_trace(tr, mgr, RuntimeConfig{.workers = 8}).makespan,
              kSeedNppGauss120W8);
  }
}

TEST(NocIntegration, IdealNetworkWithTelemetryDoesNotPerturb) {
  // The no-perturbation contract, end to end: binding a registry (which
  // also instruments every NoC) and explicitly setting the ideal topology
  // on both the manager and the host changes no makespan.
  const Trace tr = workloads::make_gaussian({.n = 120});
  telemetry::MetricRegistry reg;
  NexusSharp mgr(sharp_cfg(4, 100.0, TopologyKind::kIdeal));
  RuntimeConfig rc;
  rc.workers = 16;
  rc.noc.kind = TopologyKind::kIdeal;
  rc.metrics = &reg;
  EXPECT_EQ(run_trace(tr, mgr, rc).makespan, kSeedSharp4Gauss120W16);
  // The ideal interconnect still observes its traffic.
  const telemetry::Snapshot snap = reg.snapshot();
  EXPECT_GT(snap.counter_at("nexus#/noc/messages"), 0u);
  EXPECT_EQ(snap.counter_at("nexus#/noc/blocked_flits"), 0u);
}

TEST(NocIntegration, RingMeshAndTorusBoundIdealFromAbove) {
  const Trace tr = workloads::make_gaussian({.n = 120});
  Tick ideal = 0;
  Tick mesh = 0;
  for (const TopologyKind kind :
       {TopologyKind::kIdeal, TopologyKind::kRing, TopologyKind::kMesh,
        TopologyKind::kTorus}) {
    NexusSharp mgr(sharp_cfg(6, 0.0, kind));
    RuntimeConfig rc;
    rc.workers = 16;
    rc.noc.kind = kind;
    const Tick makespan = run_trace(tr, mgr, rc).makespan;
    if (kind == TopologyKind::kIdeal) {
      ideal = makespan;
      EXPECT_EQ(makespan, kSeedSharp6Gauss120W16);
    } else {
      EXPECT_GT(makespan, ideal)
          << noc::to_string(kind)
          << " must pay distance + contention over the ideal crossbar";
      const Network::Stats s = mgr.network().stats();
      EXPECT_GT(s.blocked_flits, 0u);
      EXPECT_GT(s.stall_ticks, 0);
      EXPECT_GT(s.total_hops, s.delivered);  // mean hop count > 1
      // Conservation holds across the whole drained run.
      EXPECT_EQ(s.delivered, s.messages);
      EXPECT_EQ(s.delivered_flits, s.injected_flits);
      if (kind == TopologyKind::kMesh) mesh = makespan;
      if (kind == TopologyKind::kTorus) {
        // Wraparound shortens routes; same grid, same traffic.
        EXPECT_LT(makespan, mesh);
      }
    }
  }
}

TEST(NocIntegration, IdealMultiFlitAccountingDoesNotPerturb) {
  // The satellite contract: enabling multi-flit accounting (payloads are
  // attached to every send) must leave the ideal topology bit-identical to
  // the pinned seed makespans — the crossbar counts flits but never
  // charges them.
  const Trace tr = workloads::make_gaussian({.n = 120});
  NexusSharp mgr(sharp_cfg(4, 100.0));
  EXPECT_EQ(run_trace(tr, mgr, RuntimeConfig{.workers = 16}).makespan,
            kSeedSharp4Gauss120W16);
  const Network::Stats s = mgr.network().stats();
  EXPECT_EQ(s.delivered, s.messages);
  EXPECT_GT(s.injected_flits, s.messages)
      << "parameter payloads should make most messages multi-flit";
  EXPECT_EQ(s.delivered_flits, s.injected_flits);
  EXPECT_EQ(std::accumulate(s.traffic.begin(), s.traffic.end(),
                            std::uint64_t{0}),
            s.injected_flits);
}

TEST(NocIntegration, MeshRunDrainsAndStaysLive) {
  // The reordering a real topology introduces (records overtaking each
  // other on different routes) must not wedge the arbiter's gather logic.
  const Trace tr = workloads::make_workload("h264dec-8x8-10f");
  NexusSharp mgr(sharp_cfg(6, 0.0, TopologyKind::kMesh));
  RuntimeConfig rc;
  rc.workers = 32;
  rc.noc.kind = TopologyKind::kMesh;
  const RunResult r = run_trace(tr, mgr, rc);
  EXPECT_EQ(r.tasks, tr.num_tasks());
  const NexusSharp::Stats s = mgr.stats();
  EXPECT_EQ(s.sim_tasks_live, 0u);
  EXPECT_EQ(s.tasks_in, tr.num_tasks());
  EXPECT_EQ(s.ready_out, tr.num_tasks());
}

TEST(NocIntegration, HostNocChargesDispatchAndNotifyDistance) {
  // A single task on one worker: the host mesh adds the manager->core and
  // core->manager traversals around the execution interval.
  Trace tr("t");
  tr.submit(0, us(5), {{0x40, Dir::kOut}});
  tr.taskwait();
  const auto run_with = [&tr](TopologyKind kind) {
    NexusSharp mgr(sharp_cfg(2, 100.0));
    RuntimeConfig rc;
    rc.workers = 4;
    rc.noc.kind = kind;
    return run_trace(tr, mgr, rc).makespan;
  };
  const Tick ideal = run_with(TopologyKind::kIdeal);
  const Tick ring = run_with(TopologyKind::kRing);
  // Worker 0 sits at host node 1: one hop out, one hop back = 2 hops of 3
  // cycles each at the host NoC's 100 MHz clock. The dispatch carries a
  // parameter-sized payload (task id + fn ptr), so its tail flit adds one
  // more link cycle; the bare finish notification stays a single flit.
  EXPECT_EQ(ring, ideal + (2 * 3 + 1) * kCycle);
}

TEST(NocIntegration, NexusPPRingSerializesTheOneLinkPair) {
  const Trace tr = workloads::make_gaussian({.n = 120});
  NexusPPConfig cfg;
  cfg.noc.kind = TopologyKind::kRing;
  NexusPP mgr(cfg);
  const Tick makespan = run_trace(tr, mgr, RuntimeConfig{.workers = 8}).makespan;
  EXPECT_GT(makespan, kSeedNppGauss120W8);
  const Network::Stats s = mgr.network().stats();
  EXPECT_EQ(s.delivered, s.messages);
  EXPECT_EQ(s.total_hops, s.delivered);  // every route is the single hop
}

}  // namespace
}  // namespace nexus
