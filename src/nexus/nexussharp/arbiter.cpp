#include "nexus/nexussharp/arbiter.hpp"

#include <algorithm>

#include "nexus/telemetry/registry.hpp"
#include "nexus/telemetry/trace.hpp"

namespace nexus {

const char* to_string(ArbiterPolicy p) {
  switch (p) {
    case ArbiterPolicy::kReadyFirst: return "ready-first";
    case ArbiterPolicy::kDepFirst: return "dep-first";
    case ArbiterPolicy::kRoundRobin: return "round-robin";
  }
  return "?";
}

namespace detail {

SharpArbiter::SharpArbiter(const NexusSharpConfig& cfg, ArbiterPolicy policy,
                           noc::Network* net, std::int64_t self_node,
                           std::int64_t dst_node)
    : cfg_(cfg), policy_(policy), net_(net),
      self_node_(self_node < 0 ? sharp_arbiter_node(cfg.num_task_graphs)
                               : static_cast<noc::NodeId>(self_node)),
      dst_node_(dst_node < 0 ? sharp_io_node()
                             : static_cast<noc::NodeId>(dst_node)),
      clk_(cfg.freq_mhz), dep_q_(cfg.num_task_graphs) {
  NEXUS_ASSERT(net != nullptr);
  if (cfg.tenancy.enabled()) depcounts_.configure_tenancy(cfg.tenancy.tenants);
}

bool SharpArbiter::dep_pending() const {
  for (const auto& q : dep_q_)
    if (!q.empty()) return true;
  return false;
}

void SharpArbiter::attach(Simulation& sim, RuntimeHost* host,
                          std::string_view prefix) {
  host_ = host;
  self_ = sim.add_component(this);
  const telemetry::Observers& obs = sim.observers();
  depcounts_.bind(obs, telemetry::path_join(prefix, "dep_counts"),
                  "nexus#/dep_counts");
  trace_ = obs.trace;
  if (obs.metrics == nullptr) return;
  telemetry::MetricRegistry& reg = *obs.metrics;
  m_grants_ready_ = &reg.counter(telemetry::path_join(prefix, "grants_ready"));
  m_grants_wait_ = &reg.counter(telemetry::path_join(prefix, "grants_wait"));
  m_grants_dep_ = &reg.counter(telemetry::path_join(prefix, "grants_dep"));
  m_conflicts_ = &reg.counter(telemetry::path_join(prefix, "conflicts"));
  m_retries_ = &reg.counter(telemetry::path_join(prefix, "retries"));
  m_meta_parks_ = &reg.counter(telemetry::path_join(prefix, "meta_parks"));
  m_ready_depth_ = &reg.histogram(telemetry::path_join(prefix, "ready_q_depth"));
  m_wait_depth_ = &reg.histogram(telemetry::path_join(prefix, "wait_q_depth"));
}

void SharpArbiter::handle(Simulation& sim, const Event& ev) {
  switch (ev.op) {
    case kReady: {
      const auto id = static_cast<TaskId>(ev.a);
      SimTask& st = sim_tasks_[id];
      if (st.meta_arrived) {
        // A single-param ready record supersedes any gathering state.
        ready_q_.push_back(id);
        sim_tasks_.erase(id);
        telemetry::record(m_ready_depth_, ready_q_.size());
      } else {
        // The ready record overtook its descriptor on the interconnect:
        // park it — forwarding now would let the host dispatch a task whose
        // Task Pool entry the write-back path cannot yet resolve.
        st.ready_parked = true;
        ++meta_parks_;
        telemetry::inc(m_meta_parks_);
        peak_sim_tasks_ =
            std::max<std::uint64_t>(peak_sim_tasks_, sim_tasks_.size());
      }
      pump(sim);
      break;
    }
    case kWait:
      wait_q_.push_back(static_cast<TaskId>(ev.a));
      telemetry::record(m_wait_depth_, wait_q_.size());
      pump(sim);
      break;
    case kDep:
      NEXUS_DCHECK(ev.b < dep_q_.size());
      dep_q_[ev.b].push_back(ev.a);
      pump(sim);
      break;
    case kMeta: {
      const auto id = static_cast<TaskId>(ev.a & 0xFFFFFFFF);
      const auto nparams = static_cast<std::uint32_t>((ev.a >> 32) & 0xFFFF);
      SimTask& st = sim_tasks_[id];
      st.nparams = nparams;
      st.tenant = static_cast<std::uint16_t>(ev.a >> 48);
      st.meta_arrived = true;
      peak_sim_tasks_ = std::max<std::uint64_t>(peak_sim_tasks_, sim_tasks_.size());
      if (st.ready_parked) {
        // Release the ready record that overtook this descriptor: the task
        // bypasses gathering (single-param short-circuit) now that the
        // write-back path can resolve it.
        ready_q_.push_back(id);
        sim_tasks_.erase(id);
        telemetry::record(m_ready_depth_, ready_q_.size());
      } else {
        conclude_if_complete(sim, id, st, sim.now());
      }
      pump(sim);
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
      NEXUS_ASSERT_MSG(false, "unknown SharpArbiter op");
  }
}

void SharpArbiter::pump(Simulation& sim) {
  const Tick now = sim.now();
  if (now < port_free_) {
    telemetry::inc(m_retries_);
    if (!pump_pending_) {
      pump_pending_ = true;
      sim.schedule(port_free_, self_, kPump);
    }
    return;
  }

  // Grant one buffer class according to the configured priority policy.
  enum Class { kClsReady, kClsWait, kClsDep, kClsNone };
  Class pick = kClsNone;
  switch (policy_) {
    case ArbiterPolicy::kReadyFirst:
      pick = !ready_q_.empty()  ? kClsReady
             : !wait_q_.empty() ? kClsWait
             : dep_pending()    ? kClsDep
                                : kClsNone;
      break;
    case ArbiterPolicy::kDepFirst:
      pick = dep_pending()       ? kClsDep
             : !wait_q_.empty()  ? kClsWait
             : !ready_q_.empty() ? kClsReady
                                 : kClsNone;
      break;
    case ArbiterPolicy::kRoundRobin:
      for (std::uint32_t i = 0; i < 3 && pick == kClsNone; ++i) {
        const std::uint32_t cls = (rr_next_ + i) % 3;
        if (cls == 0 && !ready_q_.empty()) pick = kClsReady;
        if (cls == 1 && !wait_q_.empty()) pick = kClsWait;
        if (cls == 2 && dep_pending()) pick = kClsDep;
      }
      rr_next_ = (rr_next_ + 1) % 3;
      break;
  }
  if (pick == kClsNone) return;

  // A conflict: more than one buffer class competed for this grant — the
  // contention the service-priority policy (and its ablation) is about.
  const int pending = (ready_q_.empty() ? 0 : 1) + (wait_q_.empty() ? 0 : 1) +
                      (dep_pending() ? 1 : 0);
  if (pending > 1) telemetry::inc(m_conflicts_);

  Tick cost = 0;
  switch (pick) {
    case kClsReady: {
      const TaskId id = ready_q_.front();
      ready_q_.pop_front();
      cost = cycles(cfg_.arb_ready_cycles);
      telemetry::inc(m_grants_ready_);
      if (trace_ != nullptr)
        trace_->unit_span("sharp/arbiter", "ready", id, now, cost);
      to_writeback(sim, now + cost, id);
      break;
    }
    case kClsWait: {
      // "Decrements the dependence counts of those waiting tasks one by
      // one" (Section IV-C).
      const TaskId id = wait_q_.front();
      wait_q_.pop_front();
      cost = cycles(cfg_.arb_wait_cycles);
      telemetry::inc(m_grants_wait_);
      if (trace_ != nullptr)
        trace_->unit_span("sharp/arbiter", "wait", id, now, cost);
      const auto it = sim_tasks_.find(id);
      if (it != sim_tasks_.end()) {
        // Kick raced ahead of (or into) the gathering phase: absorb it in
        // the Sim Tasks buffer (Section IV-C's "simultaneous" case).
        ++it->second.pending_dec;
        conclude_if_complete(sim, id, it->second, now + cost);
      } else if (depcounts_.decrement(id, now + cost)) {
        to_writeback(sim, now + cost, id);
      }
      break;
    }
    case kClsDep: {
      // One gather grant reads a record from every nonempty Dep. Counts
      // buffer in parallel: "the arbiter consumes only two cycles, to
      // collect the results of all the task graphs" (Section IV-D).
      cost = cycles(cfg_.arb_dep_cycles);
      telemetry::inc(m_grants_dep_);
      if (trace_ != nullptr)
        trace_->unit_span("sharp/arbiter", "gather", 0, now, cost);
      for (auto& q : dep_q_) {
        if (q.empty()) continue;
        const std::uint64_t rec = q.front();
        q.pop_front();
        const auto id = static_cast<TaskId>(rec & 0xFFFFFFFF);
        const auto contributes = static_cast<std::uint32_t>(rec >> 32);
        SimTask& st = sim_tasks_[id];
        ++st.seen;
        st.total += contributes;
        peak_sim_tasks_ =
            std::max<std::uint64_t>(peak_sim_tasks_, sim_tasks_.size());
        conclude_if_complete(sim, id, st, now + cost);
      }
      break;
    }
    case kClsNone:
      break;
  }
  port_free_ = now + cost;
  busy_ += cost;
  if (!ready_q_.empty() || !wait_q_.empty() || dep_pending()) {
    if (!pump_pending_) {
      pump_pending_ = true;
      sim.schedule(port_free_, self_, kPump);
    }
  }
}

void SharpArbiter::conclude_if_complete(Simulation& sim, TaskId id, SimTask& st,
                                        Tick at) {
  if (!st.meta_arrived || st.seen < st.nparams) return;  // still gathering
  NEXUS_ASSERT_MSG(st.seen == st.nparams, "gathered more records than params");
  NEXUS_ASSERT_MSG(st.pending_dec <= st.total, "kick without a queued param");
  const std::uint32_t remaining = st.total - st.pending_dec;
  const std::uint16_t tenant = st.tenant;
  sim_tasks_.erase(id);  // invalidates st
  if (remaining == 0) {
    to_writeback(sim, at, id);
  } else {
    depcounts_.set(id, remaining, at, tenant);
  }
}

void SharpArbiter::to_writeback(Simulation& sim, Tick from, TaskId id) {
  // Internal Ready Tasks FIFO (3 cycles) then the Write-Back stage
  // (3 cycles: reads the Function Pointers table, forwards to Nexus IO).
  if (trace_ != nullptr) trace_->on_resolved(id, from);
  const Tick start = std::max(from + cycles(cfg_.fifo_latency), sim.now());
  const Tick done = wb_.acquire(start, cycles(cfg_.writeback_cycles));
  // The ready record (id + function pointer, one parameter-sized payload)
  // returns to its consumer: the IO tile in flat mode, the root arbiter in
  // clustered mode. The ideal crossbar folds the forward into
  // writeback_cycles.
  net_->send_sideband(sim, done, self_node_, dst_node_, self_, kWbDone, id,
                      noc::kParamBytes);
}

}  // namespace detail
}  // namespace nexus
