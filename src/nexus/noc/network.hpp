// The interconnect simulation component: typed messages over a Topology.
//
// A Network carries (component, op, a, b) payloads between logical
// endpoints; a placement (NocConfig::placement) maps each endpoint to its
// router tile, so the same traffic can be laid out differently on the same
// fabric. Under the ideal topology every send is delivered directly after
// the uniform latency — no intermediate events, so wiring a Network into a
// block is provably perturbation-free (the legacy fixed-latency FIFO
// behaviour, bit-identical, is a tested contract). Under ring/mesh/torus
// each message hops link by link as a worm of `1 + ceil(payload_bytes /
// flit_bytes)` flits: a link accepts one flit every `link_cycles`
// (serialization => real contention and queuing; a saturated link backs
// later flits up behind it, and a long message occupies each link for its
// whole flit train), and each hop adds `hop_cycles` of router+wire latency
// before the tail clears the next router. Per-link utilization, hop
// histograms, flit counts, in-flight depth and contention stalls are
// exported through the telemetry registry and are timeline-samplable like
// every other component's metrics; a per-endpoint-pair traffic matrix feeds
// the placement search (noc/placement.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "nexus/noc/topology.hpp"
#include "nexus/sim/simulation.hpp"
#include "nexus/telemetry/fwd.hpp"
#include "nexus/telemetry/metrics.hpp"

namespace nexus::noc {

class Network final : public Component {
 public:
  /// `default_mhz` clocks the interconnect when cfg.freq_mhz is 0 (the
  /// owning block's domain); `ideal_latency` is the uniform delivery delay
  /// under the ideal topology (the legacy FIFO visibility latency). `name`
  /// is both the metric prefix and the trace network label (e.g.
  /// "nexus#/noc"); `op_names` spells the op codes for trace messages and
  /// per-kind profile nodes alike (unknown ops fall back to "op<N>").
  Network(const NocConfig& cfg, std::uint32_t endpoints, double default_mhz,
          Tick ideal_latency, std::string name = "noc",
          std::vector<std::string> op_names = {});

  /// Register with the simulation and pick up its observers. Metrics under
  /// the network's name: messages/delivered counters, hop + in-flight
  /// histograms, contention stalls, and per-link flit counts and busy time.
  /// Trace: every send becomes a message, delivered ones get an arrival
  /// stamp, and routed topologies add one link-occupancy span per hop.
  /// Profile: send() time accumulates into per-op-kind "send:<label>"
  /// children of this component's node, separating injection cost by
  /// message kind from the hop/delivery time handled under the node itself.
  /// Call after the owning block's own components so their ids (and
  /// telemetry labels) keep their positions.
  void attach(Simulation& sim);

  [[nodiscard]] const Topology& topology() const { return topo_; }
  [[nodiscard]] bool ideal() const { return cfg_.ideal(); }
  [[nodiscard]] const NocConfig& config() const { return cfg_; }

  /// Router tile hosting logical endpoint `e` (identity without a
  /// configured placement).
  [[nodiscard]] NodeId tile_of(NodeId e) const {
    return cfg_.placement.empty() ? e : cfg_.placement[e];
  }

  /// Flits of a message with `payload_bytes` of payload: one header flit
  /// plus ceil(payload_bytes / flit_bytes).
  [[nodiscard]] std::uint32_t flits_for(std::uint32_t payload_bytes) const {
    return 1 + (payload_bytes + cfg_.flit_bytes - 1) / cfg_.flit_bytes;
  }

  /// Deliver (comp, op, a, b) after traversing endpoint src -> dst,
  /// departing at `depart` (>= sim.now()). Ideal: one event at depart +
  /// ideal_latency (depart exactly, when src == dst). Ring/mesh/torus: the
  /// message hops tile to tile with per-link serialization — every link on
  /// the route is occupied for the message's whole flit train, so
  /// `payload_bytes` (a parameter list, a descriptor) directly stretches
  /// link occupancy and queuing behind it.
  void send(Simulation& sim, Tick depart, NodeId src, NodeId dst,
            std::uint32_t comp, std::uint32_t op, std::uint64_t a = 0,
            std::uint64_t b = 0, std::uint32_t payload_bytes = 0);

  /// A record the ideal crossbar carries on a free side-band: under the
  /// ideal topology, one uncounted event at `depart` exactly (the legacy
  /// zero-cost path, kept so ideal runs stay bit-identical); on a real
  /// topology, routed traffic exactly like send().
  void send_sideband(Simulation& sim, Tick depart, NodeId src, NodeId dst,
                     std::uint32_t comp, std::uint32_t op, std::uint64_t a,
                     std::uint32_t payload_bytes) {
    if (ideal()) {
      sim.schedule(depart, comp, op, a);
    } else {
      send(sim, depart, src, dst, comp, op, a, 0, payload_bytes);
    }
  }

  // Component
  void handle(Simulation& sim, const Event& ev) override;
  [[nodiscard]] const char* telemetry_label() const override { return "noc"; }

  // --- introspection for tests and reports ---
  struct Stats {
    std::uint64_t messages = 0;   ///< send() calls
    std::uint64_t delivered = 0;  ///< messages that reached their endpoint
    std::uint64_t total_hops = 0;
    std::uint64_t injected_flits = 0;   ///< summed per-message flit counts
    std::uint64_t delivered_flits = 0;  ///< flits of delivered messages
    std::uint64_t blocked_flits = 0;  ///< hop acquisitions that had to wait
    Tick stall_ticks = 0;             ///< summed link-wait time
    std::uint64_t max_in_flight = 0;
    std::vector<std::uint64_t> link_flits;  ///< per link
    std::vector<Tick> link_busy;            ///< per link, serialization time
    /// Flit-weighted traffic between logical endpoints, row-major
    /// endpoints() x endpoints() — the measured input of the placement
    /// search (placement-independent: recorded before the tile mapping).
    std::vector<std::uint64_t> traffic;
  };
  [[nodiscard]] Stats stats() const;

 private:
  enum Op : std::uint32_t {
    kHop = 0,  ///< a = message slot
  };

  struct Msg {
    NodeId at = 0;
    NodeId dst = 0;
    std::uint32_t comp = 0;
    std::uint32_t op = 0;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    std::uint32_t hops = 0;
    std::uint32_t flits = 1;
    std::uint32_t tmsg = 0;  ///< TraceRecorder message handle (trace_ set)
  };

  [[nodiscard]] Tick cycles(std::int64_t n) const { return clk_.cycles(n); }
  void hop(Simulation& sim, std::uint32_t slot);
  [[nodiscard]] std::string_view op_label(std::uint32_t op);
  [[nodiscard]] std::uint32_t prof_send_node(std::uint32_t op);

  /// Everything a hop touches about one link, in one cache line: the
  /// serialization horizon, the stats mirrors, and the telemetry pointers.
  /// The old layout spread these over five parallel vectors, so a single
  /// link acquisition paid up to five cache misses — this bookkeeping
  /// dominates large-fabric runs, where hops outnumber messages ~6:1.
  struct LinkState {
    Tick free_at = 0;           ///< serialization horizon
    Tick busy = 0;              ///< accumulated serialization time
    std::uint64_t flits = 0;    ///< flits that crossed this link
    telemetry::Counter* m_flits = nullptr;
    telemetry::Counter* m_busy = nullptr;  ///< picoseconds
  };

  NocConfig cfg_;
  Topology topo_;
  ClockDomain clk_;
  Tick ideal_latency_;
  std::uint32_t self_ = 0;

  std::vector<Msg> msgs_;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t in_flight_ = 0;
  std::vector<LinkState> links_;  ///< per-link horizon + mirrors, hot

  // --- stats mirrors (always on; cheap integer updates) ---
  std::uint64_t messages_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t total_hops_ = 0;
  std::uint64_t injected_flits_ = 0;
  std::uint64_t delivered_flits_ = 0;
  std::uint64_t blocked_flits_ = 0;
  Tick stall_ticks_ = 0;
  std::uint64_t max_in_flight_ = 0;
  std::vector<std::uint64_t> traffic_;  ///< endpoints x endpoints, flits

  telemetry::Profiler* prof_ = nullptr;
  std::uint32_t prof_parent_ = 0;
  std::vector<std::uint32_t> prof_send_;  ///< per-op nodes, grown on demand

  std::string name_;              ///< metric prefix and trace label
  std::vector<std::string> ops_;  ///< op-code labels (grown on demand)

  telemetry::TraceRecorder* trace_ = nullptr;
  std::vector<std::string> trace_links_;  ///< cached per-link labels

  telemetry::Counter* m_messages_ = nullptr;
  telemetry::Counter* m_delivered_ = nullptr;
  telemetry::Counter* m_flits_ = nullptr;           ///< injected flits
  telemetry::Counter* m_delivered_flits_ = nullptr;
  telemetry::Counter* m_blocked_ = nullptr;
  telemetry::Counter* m_stall_ticks_ = nullptr;     ///< picoseconds
  telemetry::Histogram* m_hops_ = nullptr;          ///< per delivered message
  telemetry::Histogram* m_in_flight_ = nullptr;     ///< depth at each inject
};

}  // namespace nexus::noc
