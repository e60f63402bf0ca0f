#include "nexus/nexussharp/task_graph_unit.hpp"

#include "nexus/telemetry/registry.hpp"
#include "nexus/telemetry/trace.hpp"

namespace nexus::detail {

TaskGraphUnit::TaskGraphUnit(const NexusSharpConfig& cfg, std::uint32_t index,
                             SharpArbiter* arbiter, noc::Network* net,
                             noc::NodeId arb_node, const hw::TaskPool& pool)
    : cfg_(cfg), index_(index), arbiter_(arbiter), net_(net),
      arb_node_(arb_node), pool_(pool),
      clk_(cfg.freq_mhz), table_(cfg.table) {
  NEXUS_ASSERT(arbiter != nullptr && net != nullptr);
  if (cfg.tenancy.enabled()) table_.configure_tenancy(cfg.tenancy.tenants);
}

void TaskGraphUnit::attach(Simulation& sim) {
  self_ = sim.add_component(this);
  port_.bind(self_);
  const telemetry::Observers& obs = sim.observers();
  const std::string prefix = "nexus#/tg" + std::to_string(index_);
  table_.bind(obs, telemetry::path_join(prefix, "table"));
  trace_ = obs.trace;
  if (trace_ != nullptr) trace_track_ = "sharp/tg" + std::to_string(index_);
  if (obs.metrics == nullptr) return;
  telemetry::MetricRegistry& reg = *obs.metrics;
  m_new_depth_ = &reg.histogram(telemetry::path_join(prefix, "new_q_depth"));
  m_fin_depth_ = &reg.histogram(telemetry::path_join(prefix, "fin_q_depth"));
  m_args_ = &reg.counter(telemetry::path_join(prefix, "args"));
  m_kicks_ = &reg.counter(telemetry::path_join(prefix, "kicks"));
}

std::uint64_t TaskGraphUnit::pack(const Arg& a) {
  return static_cast<std::uint64_t>(a.task) |
         (static_cast<std::uint64_t>(a.is_writer) << 32) |
         (static_cast<std::uint64_t>(a.single_param) << 33) |
         (static_cast<std::uint64_t>(a.tenant) << 34);
}

TaskGraphUnit::Arg TaskGraphUnit::unpack(std::uint64_t meta, Addr addr) {
  Arg a;
  a.task = static_cast<TaskId>(meta & 0xFFFFFFFF);
  a.is_writer = (meta >> 32) & 1;
  a.single_param = (meta >> 33) & 1;
  a.tenant = static_cast<std::uint16_t>((meta >> 34) & 0xFFFF);
  a.addr = addr;
  return a;
}

void TaskGraphUnit::handle(Simulation& sim, const Event& ev) {
  switch (ev.op) {
    case kNewArg:
      new_q_.push(unpack(ev.a, ev.b));
      telemetry::record(m_new_depth_, new_q_.size());
      pump(sim);
      break;
    case kFinishedArg:
      fin_q_.push(unpack(ev.a, ev.b));
      telemetry::record(m_fin_depth_, fin_q_.size());
      pump(sim);
      break;
    case kPump:
      port_.woken();
      pump(sim);
      break;
    default:
      NEXUS_ASSERT_MSG(false, "unknown TaskGraphUnit op");
  }
}

void TaskGraphUnit::pump(Simulation& sim) {
  if (!port_.claim(sim)) return;

  Tick cost = 0;
  if (!fin_q_.empty()) {
    // Finished args first: they release table space (deadlock freedom) and
    // have "potential ready tasks" behind them (Section IV-D priorities).
    const Arg a = fin_q_.pop();
    cost = serve_finished(sim, a);
  } else if (!new_q_.empty()) {
    if (!serve_new(sim, &cost)) return;  // stalled: retried at the next grant
  } else {
    return;
  }

  telemetry::inc(m_args_);
  port_.occupy(sim.now(), cost);
  port_.rearm(sim, !fin_q_.empty() || !new_q_.empty());
}

Tick TaskGraphUnit::serve_finished(Simulation& sim, const Arg& a) {
  kicked_scratch_.clear();
  const std::uint32_t chain_hops =
      table_.finish(a.addr, a.task, &kicked_scratch_);
  const Tick cost =
      cycles(cfg_.tg_finish_per_param +
             cfg_.chain_hop_cycles * static_cast<std::int64_t>(chain_hops) +
             cfg_.kick_enqueue_cycles *
                 static_cast<std::int64_t>(kicked_scratch_.size()));
  const Tick done = sim.now() + cost;
  // Kicked waiters land in the Waiting Tasks buffer; the arbiter sees them
  // once the record crosses the interconnect (ideal: the FIFO visibility
  // latency; ring/mesh: the tg->arbiter route).
  telemetry::inc(m_kicks_, kicked_scratch_.size());
  if (trace_ != nullptr) {
    trace_->unit_span(trace_track_, "finish", a.task, sim.now(), cost);
    for (const auto& w : kicked_scratch_) trace_->on_dep(a.task, w.task, done);
  }
  for (const auto& w : kicked_scratch_) {
    net_->send(sim, done, sharp_tg_node(index_), arb_node_,
               arbiter_->component_id(), SharpArbiter::kWait, w.task);
  }
  return cost;
}

bool TaskGraphUnit::serve_new(Simulation& sim, Tick* cost) {
  NEXUS_ASSERT(!new_q_.empty());
  const Arg a = new_q_.front();
  const auto res = table_.insert(a.addr, a.task, a.is_writer, a.tenant);
  if (res.kind == hw::TaskGraphTable::InsertKind::kNoSpace) {
    // "The task graph must then wait until one task finishes, which its
    // parameters share the same line" (Section IV-D), unless the only task
    // that could free the set is this one. The IO tile sends a task's
    // parameters in list order and one route never reorders them, so its
    // earlier parameters that map here are already inserted.
    const TaskDescriptor& task = pool_.get(a.task);
    std::size_t index = 0;
    while (task.params[index].addr != a.addr) ++index;
    table_.check_self_stall("nexus#", task, index);
    return false;
  }
  new_q_.pop();
  *cost =
      cycles(cfg_.tg_insert_per_param +
             cfg_.chain_hop_cycles * static_cast<std::int64_t>(res.chain_hops));
  const Tick done = sim.now() + *cost;
  if (trace_ != nullptr)
    trace_->unit_span(trace_track_, "insert", a.task, sim.now(), *cost);
  const bool runs_now = res.kind == hw::TaskGraphTable::InsertKind::kRunsNow;
  if (runs_now && a.single_param) {
    // Immediately-ready single-parameter task: skip the gather step via the
    // Ready Tasks buffer (Section IV-C's short-circuit).
    net_->send(sim, done, sharp_tg_node(index_), arb_node_,
               arbiter_->component_id(), SharpArbiter::kReady, a.task);
  } else {
    // Dep. Counts buffer record: task id + whether this parameter blocks;
    // the source graph index selects the arbiter's per-graph buffer.
    const std::uint64_t rec =
        static_cast<std::uint64_t>(a.task) |
        (static_cast<std::uint64_t>(runs_now ? 0 : 1) << 32);
    net_->send(sim, done, sharp_tg_node(index_), arb_node_,
               arbiter_->component_id(), SharpArbiter::kDep, rec, index_);
  }
  return true;
}

}  // namespace nexus::detail
