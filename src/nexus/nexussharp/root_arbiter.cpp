#include "nexus/nexussharp/root_arbiter.hpp"

#include <algorithm>

#include "nexus/telemetry/registry.hpp"
#include "nexus/telemetry/trace.hpp"

namespace nexus::detail {

RootArbiter::RootArbiter(const NexusSharpConfig& cfg, noc::Network* net)
    : cfg_(cfg), net_(net), clk_(cfg.freq_mhz) {
  NEXUS_ASSERT(net != nullptr);
  NEXUS_ASSERT(cfg.arbiter_clusters >= 2);
  // One ready queue per tenant under WRR; the FIFO baseline (and the
  // tenancy-disabled case) collapses to a single arrival-order queue.
  const std::uint32_t nq =
      cfg.tenancy.enabled() && cfg.tenancy.weighted ? cfg.tenancy.tenants : 1;
  queues_.resize(nq);
}

void RootArbiter::attach(Simulation& sim, RuntimeHost* host) {
  host_ = host;
  self_ = sim.add_component(this);
  const telemetry::Observers& obs = sim.observers();
  trace_ = obs.trace;
  if (obs.metrics == nullptr) return;
  telemetry::MetricRegistry& reg = *obs.metrics;
  m_grants_ = &reg.counter("nexus#/root/grants");
  m_merges_ = &reg.counter("nexus#/root/merges");
  m_ready_depth_ = &reg.histogram("nexus#/root/ready_q_depth");
  if (queues_.size() > 1) {
    m_tenant_grants_.assign(queues_.size(), nullptr);
    for (std::uint32_t t = 0; t < queues_.size(); ++t)
      m_tenant_grants_[t] = &reg.counter(telemetry::path_join(
          telemetry::path_join(
              "nexus#/root",
              telemetry::indexed_path(
                  "tenant", t, static_cast<std::uint32_t>(queues_.size()))),
          "grants"));
  }
}

void RootArbiter::handle(Simulation& sim, const Event& ev) {
  switch (ev.op) {
    case kMeta: {
      const auto id = static_cast<TaskId>(ev.a & 0xFFFFFFFF);
      SimTask& st = sim_tasks_[id];
      st.nclusters = static_cast<std::uint32_t>((ev.a >> 32) & 0xFFFF);
      st.tenant = static_cast<std::uint16_t>(ev.a >> 48);
      st.meta_arrived = true;
      if (st.seen >= st.nclusters) {
        // Every cluster report overtook the descriptor on the interconnect
        // (or a zero-parameter task participates in no cluster at all).
        const std::uint16_t tenant = st.tenant;
        sim_tasks_.erase(id);
        enqueue_ready(sim, id, tenant);
      }
      break;
    }
    case kWbDone:
      ++delivered_;
      host_->task_ready(sim, static_cast<TaskId>(ev.a));
      break;
    case kPump:
      pump_pending_ = false;
      pump(sim);
      break;
    default:
      NEXUS_ASSERT_MSG(false, "unknown RootArbiter op");
  }
}

void RootArbiter::cluster_ready(Simulation& sim, TaskId id) {
  SimTask& st = sim_tasks_[id];
  ++st.seen;
  telemetry::inc(m_merges_);
  if (st.meta_arrived && st.seen >= st.nclusters) {
    NEXUS_ASSERT_MSG(st.seen == st.nclusters,
                     "more cluster reports than participating clusters");
    const std::uint16_t tenant = st.tenant;
    sim_tasks_.erase(id);
    enqueue_ready(sim, id, tenant);
  }
}

void RootArbiter::enqueue_ready(Simulation& sim, TaskId id,
                                std::uint16_t tenant) {
  const std::size_t q = queues_.size() > 1 ? tenant : 0;
  NEXUS_ASSERT(q < queues_.size());
  queues_[q].push_back(id);
  ++queued_;
  telemetry::record(m_ready_depth_, queued_);
  pump(sim);
}

void RootArbiter::pump(Simulation& sim) {
  const Tick now = sim.now();
  if (now < port_free_) {
    if (!pump_pending_) {
      pump_pending_ = true;
      sim.schedule(port_free_, self_, kPump);
    }
    return;
  }
  if (queued_ == 0) return;

  std::uint32_t t = 0;
  if (queues_.size() > 1) {
    // Weighted round-robin: the current tenant keeps the grant while it has
    // both work and burst credits; otherwise advance to the next tenant
    // with queued work and refill its credits from the configured weight.
    if (queues_[cur_tenant_].empty() || credits_ == 0) {
      std::uint32_t c = cur_tenant_;
      do {
        c = (c + 1) % static_cast<std::uint32_t>(queues_.size());
      } while (queues_[c].empty());
      cur_tenant_ = c;
      credits_ = cfg_.tenancy.weight(c);
    }
    t = cur_tenant_;
    --credits_;
  }

  const TaskId id = queues_[t].front();
  queues_[t].pop_front();
  --queued_;
  const Tick cost = cycles(cfg_.root_grant_cycles);
  telemetry::inc(m_grants_);
  if (!m_tenant_grants_.empty()) telemetry::inc(m_tenant_grants_[t]);
  if (trace_ != nullptr)
    trace_->unit_span("sharp/root", "grant", id, now, cost);
  to_writeback(sim, now + cost, id);

  port_free_ = now + cost;
  busy_ += cost;
  if (queued_ > 0 && !pump_pending_) {
    pump_pending_ = true;
    sim.schedule(port_free_, self_, kPump);
  }
}

void RootArbiter::to_writeback(Simulation& sim, Tick from, TaskId id) {
  // Same internal-FIFO + Write-Back stage as the flat arbiter; the stamp
  // here is the *global* resolution (supersedes the per-cluster one).
  if (trace_ != nullptr) trace_->on_resolved(id, from);
  const Tick start = std::max(from + cycles(cfg_.fifo_latency), sim.now());
  const Tick done = wb_.acquire(start, cycles(cfg_.writeback_cycles));
  net_->send_sideband(
      sim, done, sharp_root_node(cfg_.num_task_graphs, cfg_.arbiter_clusters),
      sharp_io_node(), self_, kWbDone, id, noc::kParamBytes);
}

}  // namespace nexus::detail
