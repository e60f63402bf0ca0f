#include "nexus/nexussharp/arbiter.hpp"

#include <algorithm>
#include <bit>

#include "nexus/telemetry/registry.hpp"
#include "nexus/telemetry/trace.hpp"

namespace nexus::detail {

SharpArbiter::SharpArbiter(const NexusSharpConfig& cfg, noc::Network* net,
                           noc::NodeId self_node, noc::NodeId dst_node)
    : cfg_(cfg), net_(net), self_node_(self_node), dst_node_(dst_node),
      clk_(cfg.freq_mhz), dep_q_(cfg.num_task_graphs) {
  NEXUS_ASSERT(net != nullptr);
  NEXUS_ASSERT(cfg.num_task_graphs <= 64);
  if (cfg.tenancy.enabled()) depcounts_.configure_tenancy(cfg.tenancy.tenants);
}

void SharpArbiter::attach(Simulation& sim, RuntimeHost* host,
                          std::string_view prefix) {
  host_ = host;
  self_ = sim.add_component(this);
  port_.bind(self_);
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
        ready_q_.push(id);
        sim_tasks_.erase(id);
        telemetry::record(m_ready_depth_, ready_q_.size());
      } else {
        // The ready record overtook its descriptor on the interconnect:
        // park it — forwarding now would let the host dispatch a task whose
        // Task Pool entry the write-back path cannot yet resolve.
        st.ready_parked = true;
        telemetry::inc(m_meta_parks_);
      }
      pump(sim);
      break;
    }
    case kWait:
      wait_q_.push(static_cast<TaskId>(ev.a));
      telemetry::record(m_wait_depth_, wait_q_.size());
      pump(sim);
      break;
    case kDep:
      NEXUS_DCHECK(ev.b < dep_q_.size());
      dep_q_[ev.b].push(ev.a);
      dep_pending_ |= std::uint64_t{1} << ev.b;
      pump(sim);
      break;
    case kMeta: {
      const auto id = static_cast<TaskId>(ev.a & 0xFFFFFFFF);
      const auto nparams = static_cast<std::uint32_t>((ev.a >> 32) & 0xFFFF);
      SimTask& st = sim_tasks_[id];
      st.nparams = nparams;
      st.tenant = static_cast<std::uint16_t>(ev.a >> 48);
      st.meta_arrived = true;
      if (st.ready_parked) {
        // Release the ready record that overtook this descriptor: the task
        // bypasses gathering (single-param short-circuit) now that the
        // write-back path can resolve it.
        ready_q_.push(id);
        sim_tasks_.erase(id);
        telemetry::record(m_ready_depth_, ready_q_.size());
      } else {
        conclude_if_complete(sim, id, st, sim.now());
      }
      pump(sim);
      break;
    }
    case kWbDone:
      host_->task_ready(sim, static_cast<TaskId>(ev.a));
      break;
    case kPump:
      port_.woken();
      pump(sim);
      break;
    default:
      NEXUS_ASSERT_MSG(false, "unknown SharpArbiter op");
  }
}

void SharpArbiter::pump(Simulation& sim) {
  if (!port_.claim(sim)) {
    telemetry::inc(m_retries_);
    return;
  }
  const Tick now = sim.now();

  // Grant one buffer class in the paper's priority order (Section IV-D).
  enum Class { kClsReady, kClsWait, kClsDep, kClsNone };
  const Class pick = !ready_q_.empty()   ? kClsReady
                     : !wait_q_.empty()  ? kClsWait
                     : dep_pending_ != 0 ? kClsDep
                                         : kClsNone;
  if (pick == kClsNone) return;

  // A conflict: more than one buffer class competed for this grant — the
  // contention the service priority is about.
  const int pending = (ready_q_.empty() ? 0 : 1) + (wait_q_.empty() ? 0 : 1) +
                      (dep_pending_ != 0 ? 1 : 0);
  if (pending > 1) telemetry::inc(m_conflicts_);

  Tick cost = 0;
  switch (pick) {
    case kClsReady: {
      const TaskId id = ready_q_.pop();
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
      const TaskId id = wait_q_.pop();
      cost = cycles(cfg_.arb_wait_cycles);
      telemetry::inc(m_grants_wait_);
      if (trace_ != nullptr)
        trace_->unit_span("sharp/arbiter", "wait", id, now, cost);
      if (SimTask* st = sim_tasks_.find(id)) {
        // Kick raced ahead of (or into) the gathering phase: absorb it in
        // the Sim Tasks buffer (Section IV-C's "simultaneous" case).
        ++st->pending_dec;
        conclude_if_complete(sim, id, *st, now + cost);
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
      for (std::uint64_t bits = dep_pending_; bits != 0; bits &= bits - 1) {
        const auto tg = static_cast<std::uint32_t>(std::countr_zero(bits));
        FixedRing<std::uint64_t>& q = dep_q_[tg];
        const std::uint64_t rec = q.pop();
        if (q.empty()) dep_pending_ &= ~(std::uint64_t{1} << tg);
        const auto id = static_cast<TaskId>(rec & 0xFFFFFFFF);
        const auto contributes = static_cast<std::uint32_t>(rec >> 32);
        SimTask& st = sim_tasks_[id];
        ++st.seen;
        st.total += contributes;
        conclude_if_complete(sim, id, st, now + cost);
      }
      break;
    }
    case kClsNone:
      break;
  }
  port_.occupy(now, cost);
  port_.rearm(sim, !ready_q_.empty() || !wait_q_.empty() || dep_pending_ != 0);
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

}  // namespace nexus::detail
