// Hop-by-hop reference interconnect for differential tests of
// noc::Network. It models the same flit-train worm on the same Topology,
// but the way the network did before it reserved routes at send: one DES
// event per hop, each link granted in arrival (event) order to whichever
// train reaches it next, starting when the link's single serialization
// horizon frees. Tests drive it and a noc::Network with the same injection
// schedule and compare delivery ticks, contention totals and in-flight
// depth. Test-only: nothing in the library links it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "nexus/noc/topology.hpp"
#include "nexus/sim/simulation.hpp"
#include "nexus/sim/time.hpp"

namespace nexus::noc {

class HopByHopNetwork final : public Component {
 public:
  HopByHopNetwork(const NocConfig& cfg, std::uint32_t endpoints, double mhz)
      : cfg_(cfg),
        topo_(cfg.kind, endpoints, cfg.mesh_cols),
        clk_(mhz),
        free_at_(topo_.link_count(), 0),
        grants_(topo_.link_count()) {
    NEXUS_ASSERT(!cfg.ideal() && cfg.placement.empty());
  }

  void attach(Simulation& sim) { self_ = sim.add_component(this); }

  /// Same contract as Network::send on a routed topology; messages are
  /// numbered in send order (the ids grants() reports).
  void send(Simulation& sim, Tick depart, NodeId src, NodeId dst,
            std::uint32_t comp, std::uint32_t op, std::uint64_t a = 0,
            std::uint64_t b = 0, std::uint32_t payload_bytes = 0) {
    const std::uint32_t flits =
        1 + (payload_bytes + cfg_.flit_bytes - 1) / cfg_.flit_bytes;
    const auto id = static_cast<std::uint32_t>(msgs_.size());
    msgs_.push_back({src, dst, comp, op, a, b, flits});
    ++in_flight_;
    max_in_flight_ = std::max(max_in_flight_, in_flight_);
    in_flight_at_inject_.push_back(in_flight_);
    sim.schedule(depart, self_, 0, id);
  }

  void handle(Simulation& sim, const Event& ev) override {
    const auto id = static_cast<std::uint32_t>(ev.a);
    Msg& m = msgs_[id];
    const Tick now = sim.now();
    if (m.at == m.dst) {
      --in_flight_;
      sim.schedule(now, m.comp, m.op, m.a, m.b);
      return;
    }
    const LinkId l = topo_.next_link(m.at, m.dst);
    const Tick start = std::max(now, free_at_[l]);
    if (start > now) {
      ++blocked_flits_;
      stall_ticks_ += start - now;
    }
    free_at_[l] = start + clk_.cycles(cfg_.link_cycles * m.flits);
    grants_[l].push_back(id);
    m.at = topo_.link_dst(l);
    sim.schedule(start + clk_.cycles(cfg_.hop_cycles +
                                     cfg_.link_cycles * (m.flits - 1)),
                 self_, 0, id);
  }

  [[nodiscard]] std::uint64_t blocked_flits() const { return blocked_flits_; }
  [[nodiscard]] Tick stall_ticks() const { return stall_ticks_; }
  [[nodiscard]] std::uint64_t max_in_flight() const { return max_in_flight_; }
  /// In-flight depth (the new message included) at each send, in order.
  [[nodiscard]] const std::vector<std::uint64_t>& in_flight_at_inject() const {
    return in_flight_at_inject_;
  }
  /// Per link, the message ids it was granted to, in grant order.
  [[nodiscard]] const std::vector<std::vector<std::uint32_t>>& grants() const {
    return grants_;
  }

 private:
  struct Msg {
    NodeId at;
    NodeId dst;
    std::uint32_t comp;
    std::uint32_t op;
    std::uint64_t a;
    std::uint64_t b;
    std::uint32_t flits;
  };

  NocConfig cfg_;
  Topology topo_;
  ClockDomain clk_;
  std::uint32_t self_ = 0;
  std::vector<Msg> msgs_;
  std::vector<Tick> free_at_;
  std::vector<std::vector<std::uint32_t>> grants_;
  std::uint64_t in_flight_ = 0;
  std::uint64_t max_in_flight_ = 0;
  std::vector<std::uint64_t> in_flight_at_inject_;
  std::uint64_t blocked_flits_ = 0;
  Tick stall_ticks_ = 0;
};

}  // namespace nexus::noc
