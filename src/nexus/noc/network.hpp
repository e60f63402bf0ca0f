// The interconnect simulation component: typed messages over a Topology.
//
// A Network carries (component, op, a, b) payloads between logical
// endpoints; a placement (NocConfig::placement) maps each endpoint to its
// router tile. Under the ideal topology every send is delivered directly
// after the uniform latency, bit-identical to the legacy fixed-latency
// FIFOs (a tested contract). Under ring/mesh/torus a message is a worm of
// `1 + ceil(payload_bytes / flit_bytes)` flits, modelled per transaction:
// send() walks the route once, puts the whole flit train (`link_cycles`
// per flit) in each link's earliest free gap at or after the head's
// arrival there, and schedules the one delivery event at the final
// arrival. The tail clears each router `hop_cycles` + the train's
// serialization beyond the head flit after its start, so later traffic
// queues behind earlier reservations (contention, backpressure). A
// later-sent train that reaches a link first but does not fit the gap
// ahead of an earlier reservation waits behind it: the one departure from
// per-hop arbitration in arrival order (tests/noc_reference.hpp keeps that
// model as the oracle; docs/METRICS.md has the envelope). Link use, hops,
// flits, in-flight depth and stalls are counted only in the telemetry
// registry (a detached run counts nothing); a per-endpoint-pair traffic
// matrix feeds the placement search.
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
  /// `mhz` clocks the interconnect (the owning block's clock domain);
  /// `ideal_latency` is the uniform delivery delay under the ideal topology
  /// (the legacy FIFO visibility latency). `name` is both the metric prefix
  /// and the trace network label (e.g. "nexus#/noc"); `op_names` spells the
  /// op codes for trace messages and per-kind profile nodes alike (unknown
  /// ops fall back to "op<N>").
  Network(const NocConfig& cfg, std::uint32_t endpoints, double mhz,
          Tick ideal_latency, std::string name = "noc",
          std::vector<std::string> op_names = {});

  /// Register with the simulation and pick up its observers. Metrics under
  /// the network's name: message and flit counters, hop + in-flight
  /// histograms, contention stalls, and per-link flit counts and busy time.
  /// Trace: every send becomes a message with its arrival stamp, and
  /// routed topologies add one link-occupancy span per hop — all recorded
  /// at send, when the route is reserved. Profile: send() time accumulates
  /// into per-op-kind "send:<label>" children of this component's node.
  /// The Network schedules no events of its own, but it stays a registered
  /// component: call attach() after the owning block's own components so
  /// their ids (and telemetry labels) keep their positions.
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
  /// route is reserved link by link now and one event is scheduled at the
  /// final arrival — every link is occupied for the message's whole flit
  /// train, so `payload_bytes` (a parameter list, a descriptor) directly
  /// stretches link occupancy and queuing behind it.
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

  // Component (never called: deliveries go straight to their endpoint)
  void handle(Simulation& sim, const Event& ev) override;
  [[nodiscard]] const char* telemetry_label() const override { return "noc"; }

  /// Flit-weighted traffic between logical endpoints, row-major
  /// endpoints() x endpoints(): the measured input of the placement search
  /// (placement-independent: recorded before the tile mapping).
  [[nodiscard]] const std::vector<std::uint64_t>& traffic() const {
    return traffic_;
  }
  /// Peak reservations held on one link at once (bounded by the messages
  /// in flight: reservation pruning keeps the interval lists short).
  [[nodiscard]] std::uint64_t max_link_intervals() const {
    return max_link_intervals_;
  }

 private:
  [[nodiscard]] Tick cycles(std::int64_t n) const { return clk_.cycles(n); }
  [[nodiscard]] std::string_view op_name(std::uint32_t op);
  [[nodiscard]] std::uint32_t prof_send_node(std::uint32_t op);

  struct Interval {
    Tick start;
    Tick end;
  };

  /// Everything a reservation touches about one link, kept together.
  struct LinkState {
    /// Sorted, disjoint, non-touching [start, end) reservations; each
    /// reservation first prunes those ending at or before now() (no future
    /// arrival can precede now()).
    std::vector<Interval> reserved;
    telemetry::Counter* m_flits = nullptr;
    telemetry::Counter* m_busy = nullptr;  ///< picoseconds
  };

  /// Reserve tile `at` -> `to` for a train departing at `depart`; returns
  /// the delivery tick and sets `*hops`.
  Tick route(Tick now, Tick depart, NodeId at, NodeId to, std::uint32_t flits,
             std::uint32_t tmsg, std::uint32_t* hops);
  /// Reserve `ser` ticks on `link` in the earliest gap at or after
  /// `arrive`; returns the start.
  Tick reserve(LinkState& link, Tick now, Tick arrive, Tick ser);

  NocConfig cfg_;
  Topology topo_;
  ClockDomain clk_;
  Tick ideal_latency_;
  std::uint32_t self_ = 0;

  std::vector<LinkState> links_;  ///< per-link reservations + counters, hot
  /// Min-heap of routed delivery ticks not yet known to be past; kept only
  /// while the in_flight histogram is bound.
  std::vector<Tick> in_flight_;
  std::uint64_t max_link_intervals_ = 0;
  std::vector<std::uint64_t> traffic_;  ///< endpoints x endpoints, flits

  telemetry::Profiler* prof_ = nullptr;
  std::uint32_t prof_parent_ = 0;
  std::vector<std::uint32_t> prof_send_;  ///< per-op nodes, grown on demand

  std::string name_;              ///< metric prefix and trace label
  std::vector<std::string> ops_;  ///< op-code labels (grown on demand)

  telemetry::TraceRecorder* trace_ = nullptr;
  std::vector<std::string> trace_links_;  ///< cached per-link labels

  telemetry::Counter* m_messages_ = nullptr;
  telemetry::Counter* m_flits_ = nullptr;           ///< injected flits
  telemetry::Counter* m_blocked_ = nullptr;
  telemetry::Counter* m_stall_ticks_ = nullptr;     ///< picoseconds
  telemetry::Histogram* m_hops_ = nullptr;          ///< per delivered message
  telemetry::Histogram* m_in_flight_ = nullptr;     ///< depth at each inject
};

}  // namespace nexus::noc
