// nexus::noc — topology-aware interconnect model for distributed traffic.
//
// The paper's Nexus# spreads dependency tracking across task graph units,
// but every core<->TGU and TGU<->arbiter message in the baseline model costs
// a flat FIFO visibility latency, which makes the cost of distribution — the
// central trade-off of a *distributed* hardware task manager — invisible.
// This layer provides the geometry half of the interconnect model: a
// Topology maps endpoint ids to nodes on an ideal crossbar, a bidirectional
// ring, a 2D mesh, or a 2D torus (the mesh plus wraparound links), and
// computes deterministic hop routes (XY routing on the mesh, shortest-way
// XY with wraparound on the torus, shortest-way with a clockwise tie-break
// on the ring), tabulated once per topology so a hop is one table load. The Network (network.hpp) carries messages over those
// routes with per-hop latency and per-link serialization.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "nexus/common/assert.hpp"

namespace nexus::noc {

enum class TopologyKind : std::uint8_t {
  kIdeal = 0,  ///< single-hop crossbar, uniform latency, no contention
  kRing = 1,   ///< bidirectional ring, shortest-way routing
  kMesh = 2,   ///< 2D mesh, dimension-ordered (XY) routing
  kTorus = 3,  ///< 2D torus: mesh + wraparound, shortest-way XY routing
};

const char* to_string(TopologyKind k);

/// Parse "ideal" / "ring" / "mesh" / "torus" (case-sensitive). False on
/// anything else.
bool parse_topology(std::string_view name, TopologyKind* out);

using NodeId = std::uint32_t;
using LinkId = std::uint32_t;

/// Payload bytes one task parameter contributes to a message: a 48-bit
/// address crosses the interconnect as two 32-bit packets (the same
/// granularity as the recv_per_param cycle counts).
inline constexpr std::uint32_t kParamBytes = 8;

/// Interconnect configuration embedded in a block's config (NexusSharpConfig,
/// NexusPPConfig, RuntimeConfig). The default — ideal topology — reproduces
/// the legacy uniform-FIFO-latency behaviour bit-identically.
struct NocConfig {
  TopologyKind kind = TopologyKind::kIdeal;

  /// Mesh/torus columns; 0 picks a near-square geometry
  /// (ceil(sqrt(endpoints))).
  std::uint32_t mesh_cols = 0;

  /// Per-hop router + wire traversal latency, in interconnect clock cycles.
  /// The default matches the legacy FIFO visibility latency, so a one-hop
  /// route costs the same as the ideal crossbar.
  std::int64_t hop_cycles = 3;

  /// Per-link serialization: a link accepts one flit every `link_cycles`
  /// cycles. This is where contention and queuing come from.
  std::int64_t link_cycles = 1;

  /// Link width: one flit carries this many payload bytes. A message is one
  /// header flit plus ceil(payload_bytes / flit_bytes) payload flits, so
  /// large-argument messages occupy every link on their route longer.
  std::uint32_t flit_bytes = 8;

  /// Endpoint -> tile assignment (see noc/placement.hpp). Empty means the
  /// identity layout (endpoint e on router e); otherwise it must be a
  /// size-`endpoints` injection into the topology's router grid — filler
  /// routers of a mesh/torus are legal tiles too.
  std::vector<std::uint32_t> placement;

  /// Report/perfdiff label of the placement ("default" for the identity
  /// layout); benches installing an optimized assignment set it so the two
  /// layouts stay distinct rows in the BENCH trajectory.
  std::string placement_name = "default";

  [[nodiscard]] bool ideal() const { return kind == TopologyKind::kIdeal; }
};

/// Node/link geometry and routing. Endpoints 0..endpoints-1 attach to the
/// first `endpoints` routers by default (the Network applies a placement on
/// top); a mesh/torus may have extra filler routers so the grid is
/// rectangular (they route traffic but host no endpoint).
class Topology {
 public:
  Topology(TopologyKind kind, std::uint32_t endpoints,
           std::uint32_t mesh_cols = 0);

  [[nodiscard]] TopologyKind kind() const { return kind_; }
  [[nodiscard]] std::uint32_t endpoints() const { return endpoints_; }
  [[nodiscard]] std::uint32_t node_count() const { return nodes_; }
  [[nodiscard]] std::uint32_t link_count() const {
    return static_cast<std::uint32_t>(links_.size());
  }
  /// Mesh/torus geometry (both 0 for ideal/ring).
  [[nodiscard]] std::uint32_t rows() const { return rows_; }
  [[nodiscard]] std::uint32_t cols() const { return cols_; }

  /// Hop count of the deterministic route (0 iff from == to; 1 for any
  /// ideal-crossbar traversal).
  [[nodiscard]] std::uint32_t hops(NodeId from, NodeId to) const;

  /// First link of the route from `from` towards `to`: one load from the
  /// route table the constructor builds. Precondition: from != to and the
  /// topology is not ideal (the crossbar has no links).
  [[nodiscard]] LinkId next_link(NodeId from, NodeId to) const {
    NEXUS_DCHECK(from != to && from < nodes_ && to < nodes_);
    NEXUS_DCHECK(kind_ != TopologyKind::kIdeal);
    return next_[static_cast<std::size_t>(from) * nodes_ + to];
  }

  [[nodiscard]] NodeId link_src(LinkId l) const { return links_[l].src; }
  [[nodiscard]] NodeId link_dst(LinkId l) const { return links_[l].dst; }

  /// Full route as a link sequence (empty when from == to or ideal).
  void route(NodeId from, NodeId to, std::vector<LinkId>* out) const;

  /// Telemetry-path-safe link label, e.g. "l4_2to5".
  [[nodiscard]] std::string link_label(LinkId l) const;

  /// Human/report label: "ideal", "ring8", "mesh3x3", "torus3x3".
  [[nodiscard]] std::string describe() const;

 private:
  struct Link {
    NodeId src = 0;
    NodeId dst = 0;
  };

  /// The routing rule: the neighbour the route from `from` to `to` steps
  /// to first. Only the route-table builder calls it.
  [[nodiscard]] NodeId next_node(NodeId from, NodeId to) const;
  void add_link(NodeId src, NodeId dst) { links_.push_back(Link{src, dst}); }
  void build_route_table();

  TopologyKind kind_;
  std::uint32_t endpoints_;
  std::uint32_t rows_ = 0;
  std::uint32_t cols_ = 0;
  std::uint32_t nodes_;
  std::vector<Link> links_;
  /// Dense route table, row-major nodes x nodes: next_[from * nodes + to]
  /// is next_link(from, to) (empty for the ideal crossbar).
  std::vector<LinkId> next_;
};

}  // namespace nexus::noc
