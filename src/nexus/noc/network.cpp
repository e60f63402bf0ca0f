#include "nexus/noc/network.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "nexus/telemetry/profiler.hpp"
#include "nexus/telemetry/registry.hpp"
#include "nexus/telemetry/trace.hpp"

namespace nexus::noc {

Network::Network(const NocConfig& cfg, std::uint32_t endpoints,
                 double default_mhz, Tick ideal_latency, std::string name,
                 std::vector<std::string> op_names)
    : cfg_(cfg),
      topo_(cfg.kind, endpoints, cfg.mesh_cols),
      clk_(cfg.freq_mhz > 0.0 ? cfg.freq_mhz : default_mhz),
      ideal_latency_(ideal_latency),
      links_(topo_.link_count()),
      traffic_(static_cast<std::size_t>(endpoints) * endpoints, 0),
      name_(std::move(name)),
      ops_(std::move(op_names)) {
  NEXUS_ASSERT_MSG(cfg.hop_cycles >= 0 && cfg.link_cycles >= 1,
                   "noc needs hop_cycles >= 0 and link_cycles >= 1");
  NEXUS_ASSERT_MSG(cfg.flit_bytes >= 1, "noc needs flit_bytes >= 1");
  if (!cfg_.placement.empty()) {
    NEXUS_ASSERT_MSG(cfg_.placement.size() == endpoints,
                     "placement must assign every endpoint a tile");
    std::vector<bool> used(topo_.node_count(), false);
    for (const std::uint32_t tile : cfg_.placement) {
      NEXUS_ASSERT_MSG(tile < topo_.node_count(),
                       "placement tile outside the router grid");
      NEXUS_ASSERT_MSG(!used[tile], "placement maps two endpoints to a tile");
      used[tile] = true;
    }
  }
}

void Network::attach(Simulation& sim) {
  self_ = sim.add_component(this);
  const telemetry::Observers& obs = sim.observers();
  if (obs.metrics != nullptr) {
    telemetry::MetricRegistry& reg = *obs.metrics;
    m_messages_ = &reg.counter(telemetry::path_join(name_, "messages"));
    m_delivered_ = &reg.counter(telemetry::path_join(name_, "delivered"));
    m_flits_ = &reg.counter(telemetry::path_join(name_, "flits"));
    m_delivered_flits_ =
        &reg.counter(telemetry::path_join(name_, "delivered_flits"));
    m_blocked_ = &reg.counter(telemetry::path_join(name_, "blocked_flits"));
    m_stall_ticks_ = &reg.counter(telemetry::path_join(name_, "stall_ps"));
    m_hops_ = &reg.histogram(telemetry::path_join(name_, "hops"));
    m_in_flight_ = &reg.histogram(telemetry::path_join(name_, "in_flight"));
    for (LinkId l = 0; l < topo_.link_count(); ++l) {
      const std::string link =
          telemetry::path_join(name_, "link/" + topo_.link_label(l));
      links_[l].m_flits = &reg.counter(link + "/flits");
      links_[l].m_busy = &reg.counter(link + "/busy_ps");
    }
  }
  trace_ = obs.trace;
  if (trace_ != nullptr) {
    trace_links_.clear();
    trace_links_.reserve(topo_.link_count());
    for (LinkId l = 0; l < topo_.link_count(); ++l)
      trace_links_.push_back(topo_.link_label(l));
  }
  prof_ = obs.profiler;
  if (prof_ != nullptr) prof_parent_ = sim.profiler_component_node(self_);
  prof_send_.clear();
}

std::uint32_t Network::prof_send_node(std::uint32_t op) {
  while (prof_send_.size() <= op) {
    const auto next = static_cast<std::uint32_t>(prof_send_.size());
    prof_send_.push_back(
        prof_->node(prof_parent_, "send:" + std::string(op_label(next))));
  }
  return prof_send_[op];
}

std::string_view Network::op_label(std::uint32_t op) {
  // Fallback labels are grown on demand and kept, so the recorder's string
  // interner always sees a stable spelling for a given op code.
  while (ops_.size() <= op) ops_.push_back("op" + std::to_string(ops_.size()));
  return ops_[op];
}

void Network::send(Simulation& sim, Tick depart, NodeId src, NodeId dst,
                   std::uint32_t comp, std::uint32_t op, std::uint64_t a,
                   std::uint64_t b, std::uint32_t payload_bytes) {
  NEXUS_DCHECK(depart >= sim.now());
  NEXUS_DCHECK(src < topo_.endpoints() && dst < topo_.endpoints());
  telemetry::ProfScope prof_scope(prof_,
                                  prof_ != nullptr ? prof_send_node(op) : 0);
  const std::uint32_t flits = flits_for(payload_bytes);
  ++messages_;
  injected_flits_ += flits;
  traffic_[static_cast<std::size_t>(src) * topo_.endpoints() + dst] += flits;
  telemetry::inc(m_messages_);
  telemetry::inc(m_flits_, flits);
  std::uint32_t tmsg = 0;
  if (trace_ != nullptr) {
    tmsg = trace_->noc_send(name_, src, dst, op_label(op), flits,
                            static_cast<telemetry::TraceTick>(depart));
  }
  if (cfg_.ideal() || src == dst) {
    // Direct delivery: scheduling here — from the same call site, with the
    // same timestamp arithmetic as the legacy fixed-latency FIFOs — keeps
    // event issue order (and therefore tie-breaking) bit-identical. The
    // crossbar has no links, so the flit train occupies nothing: payload
    // size is accounted (flit counters) but never charged.
    const std::uint32_t h = src == dst ? 0 : 1;
    total_hops_ += h;
    ++delivered_;
    delivered_flits_ += flits;
    telemetry::record(m_hops_, h);
    telemetry::inc(m_delivered_);
    telemetry::inc(m_delivered_flits_, flits);
    const Tick deliver = depart + (src == dst ? 0 : ideal_latency_);
    if (trace_ != nullptr)
      trace_->noc_deliver(tmsg, static_cast<telemetry::TraceTick>(deliver));
    sim.schedule(deliver, comp, op, a, b);
    return;
  }

  std::uint32_t slot = 0;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    msgs_[slot] = Msg{};
  } else {
    slot = static_cast<std::uint32_t>(msgs_.size());
    msgs_.emplace_back();
  }
  Msg& m = msgs_[slot];
  m.at = tile_of(src);
  m.dst = tile_of(dst);
  m.comp = comp;
  m.op = op;
  m.a = a;
  m.b = b;
  m.flits = flits;
  m.tmsg = tmsg;
  ++in_flight_;
  max_in_flight_ = std::max(max_in_flight_, in_flight_);
  telemetry::record(m_in_flight_, in_flight_);
  sim.schedule(depart, self_, kHop, slot);
}

void Network::handle(Simulation& sim, const Event& ev) {
  switch (ev.op) {
    case kHop:
      hop(sim, static_cast<std::uint32_t>(ev.a));
      break;
    default:
      NEXUS_ASSERT_MSG(false, "unknown Network op");
  }
}

void Network::hop(Simulation& sim, std::uint32_t slot) {
  Msg& m = msgs_[slot];
  const Tick now = sim.now();
  if (m.at == m.dst) {
    // Arrived: hand the payload to its endpoint component at this time (a
    // same-time event keeps delivery in deterministic issue order).
    ++delivered_;
    total_hops_ += m.hops;
    delivered_flits_ += m.flits;
    telemetry::inc(m_delivered_);
    telemetry::inc(m_delivered_flits_, m.flits);
    telemetry::record(m_hops_, m.hops);
    if (trace_ != nullptr)
      trace_->noc_deliver(m.tmsg, static_cast<telemetry::TraceTick>(now));
    sim.schedule(now, m.comp, m.op, m.a, m.b);
    NEXUS_DCHECK(in_flight_ > 0);
    --in_flight_;
    free_slots_.push_back(slot);
    return;
  }

  // One flit per link per `link_cycles`: wait for the output link, occupy
  // it for the whole flit train, and emerge at the next router once the
  // tail has crossed (hop latency + the train's serialization beyond the
  // head flit). Later messages queue behind earlier ones (FIFO in
  // deterministic event order), which is exactly the serialization and
  // backpressure an overloaded link produces — and a large-payload message
  // now really owns each link `flits` times longer than a bare record.
  const LinkId l = topo_.next_link(m.at, m.dst);
  LinkState& link = links_[l];
  const Tick start = std::max(now, link.free_at);
  if (start > now) {
    ++blocked_flits_;
    stall_ticks_ += start - now;
    telemetry::inc(m_blocked_);
    telemetry::inc(m_stall_ticks_, static_cast<std::uint64_t>(start - now));
  }
  const Tick ser = cycles(cfg_.link_cycles * m.flits);
  if (trace_ != nullptr) {
    trace_->noc_link(m.tmsg, trace_links_[l],
                     static_cast<telemetry::TraceTick>(start),
                     static_cast<telemetry::TraceTick>(ser));
  }
  link.free_at = start + ser;
  link.busy += ser;
  link.flits += m.flits;
  if (link.m_flits != nullptr) {
    link.m_flits->inc(m.flits);
    link.m_busy->inc(static_cast<std::uint64_t>(ser));
  }
  ++m.hops;
  m.at = topo_.link_dst(l);
  sim.schedule(start + cycles(cfg_.hop_cycles + cfg_.link_cycles *
                                                    (m.flits - 1)),
               self_, kHop, slot);
}

Network::Stats Network::stats() const {
  Stats s;
  s.messages = messages_;
  s.delivered = delivered_;
  s.total_hops = total_hops_;
  s.injected_flits = injected_flits_;
  s.delivered_flits = delivered_flits_;
  s.blocked_flits = blocked_flits_;
  s.stall_ticks = stall_ticks_;
  s.max_in_flight = max_in_flight_;
  s.link_flits.reserve(links_.size());
  s.link_busy.reserve(links_.size());
  for (const LinkState& l : links_) {
    s.link_flits.push_back(l.flits);
    s.link_busy.push_back(l.busy);
  }
  s.traffic = traffic_;
  return s;
}

}  // namespace nexus::noc
