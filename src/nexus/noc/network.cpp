#include "nexus/noc/network.hpp"

#include <algorithm>
#include <functional>
#include <string>
#include <utility>

#include "nexus/telemetry/profiler.hpp"
#include "nexus/telemetry/registry.hpp"
#include "nexus/telemetry/trace.hpp"

namespace nexus::noc {

Network::Network(const NocConfig& cfg, std::uint32_t endpoints,
                 double mhz, Tick ideal_latency, std::string name,
                 std::vector<std::string> op_names)
    : cfg_(cfg),
      topo_(cfg.kind, endpoints, cfg.mesh_cols),
      clk_(mhz),
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
    m_flits_ = &reg.counter(telemetry::path_join(name_, "flits"));
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
        prof_->node(prof_parent_, "send:" + std::string(op_name(next))));
  }
  return prof_send_[op];
}

std::string_view Network::op_name(std::uint32_t op) {
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
  traffic_[static_cast<std::size_t>(src) * topo_.endpoints() + dst] += flits;
  telemetry::inc(m_messages_);
  telemetry::inc(m_flits_, flits);
  std::uint32_t tmsg = 0;
  if (trace_ != nullptr) {
    tmsg = trace_->noc_send(name_, src, dst, op_name(op), flits,
                            static_cast<telemetry::TraceTick>(depart));
  }
  // Ideal crossbar or a local send: direct delivery, scheduled from the
  // same call site with the same timestamp arithmetic as the legacy
  // fixed-latency FIFOs, so event issue order (and therefore tie-breaking)
  // stays bit-identical. The crossbar has no links, so the flit train
  // occupies nothing: payload size is accounted but never charged. A
  // routed send reserves its route instead and is delivered at its end.
  std::uint32_t hops = src == dst ? 0 : 1;
  Tick deliver = depart + (src == dst ? 0 : ideal_latency_);
  if (!cfg_.ideal() && src != dst)
    deliver = route(sim.now(), depart, tile_of(src), tile_of(dst), flits, tmsg, &hops);
  telemetry::record(m_hops_, hops);
  if (trace_ != nullptr)
    trace_->noc_deliver(tmsg, static_cast<telemetry::TraceTick>(deliver));
  sim.schedule(deliver, comp, op, a, b);
}

Tick Network::route(Tick now, Tick depart, NodeId at, NodeId to,
                    std::uint32_t flits, std::uint32_t tmsg, std::uint32_t* hops) {
  // Each link takes the whole flit train in the earliest gap at or after
  // the head's arrival there; the tail clears the next router hop latency
  // + the train's serialization beyond the head flit after it starts.
  const Tick ser = cycles(cfg_.link_cycles * flits);
  const Tick hop = cycles(cfg_.hop_cycles + cfg_.link_cycles * (flits - 1));
  Tick arrive = depart;
  for (*hops = 0; at != to; ++*hops) {
    const LinkId l = topo_.next_link(at, to);
    LinkState& link = links_[l];
    const Tick start = reserve(link, now, arrive, ser);
    if (start > arrive) {
      telemetry::inc(m_blocked_);
      telemetry::inc(m_stall_ticks_, static_cast<std::uint64_t>(start - arrive));
    }
    if (trace_ != nullptr) {
      trace_->noc_link(tmsg, trace_links_[l],
                       static_cast<telemetry::TraceTick>(start),
                       static_cast<telemetry::TraceTick>(ser));
    }
    if (link.m_flits != nullptr) {
      link.m_flits->inc(flits);
      link.m_busy->inc(static_cast<std::uint64_t>(ser));
    }
    arrive = start + hop;
    at = topo_.link_dst(l);
  }
  // In flight: routed messages whose delivery tick is still ahead of now.
  if (m_in_flight_ != nullptr) {
    const auto later = std::greater<>();
    while (!in_flight_.empty() && in_flight_.front() <= now) {
      std::pop_heap(in_flight_.begin(), in_flight_.end(), later);
      in_flight_.pop_back();
    }
    in_flight_.push_back(arrive);
    std::push_heap(in_flight_.begin(), in_flight_.end(), later);
    m_in_flight_->record(in_flight_.size());
  }
  return arrive;
}

Tick Network::reserve(LinkState& link, Tick now, Tick arrive, Tick ser) {
  // Whether reservation r leaves the link free from t on ([start, end) is
  // half-open). The prune at now() and the search at the arrival share this
  // one boundary. Only the prune can observe it, in max_link_intervals()
  // (Network.ReservationEndingAtNowIsPrunedBeforeTheNext): an interval
  // ending exactly at the arrival, had the walk below begun at it, would
  // only set start to its end, which is the arrival.
  const auto ended_by = [](const Interval& r, Tick t) { return r.end <= t; };
  std::vector<Interval>& iv = link.reserved;
  auto live = iv.begin();
  while (live != iv.end() && ended_by(*live, now)) ++live;
  iv.erase(iv.begin(), live);
  // Skip every reservation the train would overlap, starting from the
  // first one that ends after the arrival; at or past the horizon that is
  // none, and the train appends without a search.
  auto next = iv.end();
  Tick start = arrive;
  if (!iv.empty() && !ended_by(iv.back(), arrive)) {
    next = std::partition_point(iv.begin(), iv.end(), [&](const Interval& r) {
      return ended_by(r, arrive);
    });
    for (; next != iv.end() && next->start < start + ser; ++next)
      start = next->end;
  }
  // Insert [start, end), merging with a reservation it touches.
  const Tick end = start + ser;
  const bool join_prev = next != iv.begin() && std::prev(next)->end == start;
  const bool join_next = next != iv.end() && next->start == end;
  if (join_prev) {
    std::prev(next)->end = join_next ? next->end : end;
    if (join_next) iv.erase(next);
  } else if (join_next) {
    next->start = start;
  } else {
    iv.insert(next, Interval{start, end});
  }
  max_link_intervals_ = std::max<std::uint64_t>(max_link_intervals_, iv.size());
  return start;
}

void Network::handle(Simulation& /*sim*/, const Event& /*ev*/) {
  NEXUS_ASSERT_MSG(false, "Network schedules no events of its own");
}

}  // namespace nexus::noc
