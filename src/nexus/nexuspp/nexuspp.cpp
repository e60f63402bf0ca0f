#include "nexus/nexuspp/nexuspp.hpp"

#include <algorithm>

#include "nexus/telemetry/registry.hpp"
#include "nexus/telemetry/trace.hpp"

namespace nexus {

NexusPP::NexusPP(const NexusPPConfig& cfg)
    : cfg_(cfg), clk_(cfg.freq_mhz), pool_(cfg.pool_capacity), table_(cfg.table) {
  net_ = std::make_unique<noc::Network>(
      cfg_.noc, npp_noc_endpoints(), cfg.freq_mhz, clk_.cycles(cfg.fifo_latency),
      "nexus++/noc",
      std::vector<std::string>{"insert", "finish", "pump", "ready", "wb"});
}

void NexusPP::attach(Simulation& sim, RuntimeHost* host) {
  NEXUS_ASSERT(host != nullptr);
  host_ = host;
  self_ = sim.add_component(this);
  port_.bind(self_);
  net_->attach(sim);  // after self_, keeping the pre-NoC component id
  const telemetry::Observers& obs = sim.observers();
  pool_.bind(obs, "nexus++/pool");
  table_.bind(obs, "nexus++/table");
  depcounts_.bind(obs, "nexus++/dep_counts", "nexus++/dep_counts");
  trace_ = obs.trace;
  if (obs.metrics == nullptr) return;
  m_tasks_in_ = &obs.metrics->counter("nexus++/tasks_in");
  m_ready_out_ = &obs.metrics->counter("nexus++/ready_out");
}

Tick NexusPP::submit(Simulation& sim, const TaskDescriptor& task) {
  if (pool_.full()) {
    master_blocked_ = true;
    return kSubmitBlocked;
  }
  telemetry::inc(m_tasks_in_);
  pool_.insert(task, sim.now());
  // Input Parser: the whole task must be received before the insert stage
  // sees it (header + two packets per address), then crosses the stage FIFO.
  const Tick recv_done = io_.acquire(
      sim.now(), cycles(cfg_.header_cycles +
                        cfg_.recv_per_param *
                            static_cast<std::int64_t>(task.num_params())));
  // The submission crosses the NoC with its whole parameter list as
  // payload: large-argument tasks occupy the link for more flits.
  net_->send(sim, recv_done, npp_io_node(), npp_manager_node(), self_,
             kInsertArrived, task.id, 0,
             noc::kParamBytes * static_cast<std::uint32_t>(task.num_params()));
  return recv_done;
}

Tick NexusPP::notify_finished(Simulation& sim, TaskId id) {
  // Finish notifications share the host IO port with submissions.
  const Tick recv_done = io_.acquire(sim.now(), cycles(cfg_.finish_receive));
  net_->send(sim, recv_done, npp_io_node(), npp_manager_node(), self_,
             kFinishArrived, id);
  return recv_done;
}

void NexusPP::handle(Simulation& sim, const Event& ev) {
  switch (ev.op) {
    case kInsertArrived:
      insert_queue_.push(static_cast<TaskId>(ev.a));
      pump(sim);
      break;
    case kFinishArrived:
      finish_queue_.push(static_cast<TaskId>(ev.a));
      pump(sim);
      break;
    case kPump:
      port_.woken();
      pump(sim);
      break;
    case kReadyDelivered:
      telemetry::inc(m_ready_out_);
      host_->task_ready(sim, static_cast<TaskId>(ev.a));
      break;
    case kWbArrived: {
      // Non-ideal topologies only: the ready record reached the IO tile;
      // the Write-Back stage serializes from its arrival.
      const Tick done = wb_.acquire(sim.now(), cycles(cfg_.writeback_cycles));
      sim.schedule(done, self_, kReadyDelivered, ev.a);
      break;
    }
    default:
      NEXUS_ASSERT_MSG(false, "unknown NexusPP op");
  }
}

void NexusPP::pump(Simulation& sim) {
  // Single-ported table: serve one work item at a time. Finished tasks have
  // priority (they free resources). A stalled insert is retried at every
  // grant of the port; each finish served re-arms the next grant, so room a
  // finish makes (a freed way, chain slot or kick-off-list place) is seen.
  if (!port_.claim(sim)) return;
  const Tick now = sim.now();
  if (!finish_queue_.empty()) {
    process_finish(sim, finish_queue_.pop());
  } else if (active_insert_) {
    const std::size_t resumed_at = active_insert_->next_param;
    if (continue_insert(sim)) {
      active_insert_.reset();
    } else if (active_insert_->next_param == resumed_at) {
      return;  // stalled again before inserting a parameter: nothing served
    }
  } else if (!insert_queue_.empty()) {
    active_insert_ = InsertJob{insert_queue_.pop(), 0, 0, now};
    port_.occupy(now, cycles(cfg_.insert_base));
    if (continue_insert(sim)) active_insert_.reset();
  } else {
    return;
  }
  port_.rearm(sim, !finish_queue_.empty() || active_insert_ ||
                       !insert_queue_.empty());
}

bool NexusPP::continue_insert(Simulation& sim) {
  InsertJob& job = *active_insert_;
  const TaskDescriptor& task = pool_.get(job.id);
  while (job.next_param < task.num_params()) {
    const Param& p = task.params[job.next_param];
    const auto res = table_.insert(p.addr, job.id, is_write(p.dir));
    if (res.kind == hw::TaskGraphTable::InsertKind::kNoSpace) {
      // "The task graph must then wait until one task finishes" (IV-D),
      // unless the only tasks that could free the set are this one.
      table_.check_self_stall("nexus++", task, job.next_param);
      return false;
    }
    const Tick step = cycles(cfg_.insert_per_param +
                             cfg_.chain_hop_cycles *
                                 static_cast<std::int64_t>(res.chain_hops));
    port_.extend(step);
    if (res.kind == hw::TaskGraphTable::InsertKind::kQueued) ++job.deps;
    ++job.next_param;
  }
  const Tick done = port_.free_at();
  if (trace_ != nullptr)
    trace_->unit_span("npp/table", "insert", job.id, job.started, done - job.started);
  if (job.deps == 0) {
    deliver_ready(sim, done, job.id);
  } else {
    depcounts_.set(job.id, job.deps, done);
  }
  return true;
}

void NexusPP::process_finish(Simulation& sim, TaskId id) {
  const TaskDescriptor task = pool_.get(id);  // copy: erased below
  kicked_scratch_.clear();
  std::int64_t hop_cycles = 0;
  for (const auto& p : task.params)
    hop_cycles += table_.finish(p.addr, id, &kicked_scratch_);
  const Tick cost =
      cycles(cfg_.finish_per_param * static_cast<std::int64_t>(task.num_params()) +
             cfg_.kick_cycles * static_cast<std::int64_t>(kicked_scratch_.size()) +
             cfg_.chain_hop_cycles * hop_cycles);
  port_.occupy(sim.now(), cost);
  const Tick done = port_.free_at();
  if (trace_ != nullptr) {
    trace_->unit_span("npp/table", "finish", id, sim.now(), cost);
    for (const auto& w : kicked_scratch_) trace_->on_dep(id, w.task, done);
  }

  for (const auto& w : kicked_scratch_) {
    // A kicked waiter can belong to the in-flight (possibly stalled) insert
    // whose total has not been parked in the dep-counts table yet; its
    // running tally absorbs the decrement (the "simultaneous" case Nexus#
    // handles with the Sim-Tasks buffer).
    if (active_insert_ && active_insert_->id == w.task) {
      NEXUS_ASSERT(active_insert_->deps > 0);
      --active_insert_->deps;
      continue;
    }
    if (depcounts_.decrement(w.task, done)) deliver_ready(sim, done, w.task);
  }
  pool_.erase(id, sim.now());

  if (master_blocked_) {
    master_blocked_ = false;
    host_->master_resume(sim);
  }
}

void NexusPP::deliver_ready(Simulation& sim, Tick not_before, TaskId id) {
  if (trace_ != nullptr) trace_->on_resolved(id, not_before);
  if (net_->ideal()) {
    // Write-Back: 3 cycles per ready task through the output FIFO. Kept as
    // the synchronous legacy path so the default config stays bit-identical
    // (the WB server is acquired in call order, not record-arrival order).
    const Tick wb_start =
        std::max(not_before + cycles(cfg_.fifo_latency), sim.now());
    const Tick done = wb_.acquire(wb_start, cycles(cfg_.writeback_cycles));
    sim.schedule(done, self_, kReadyDelivered, id);
    return;
  }
  // The output FIFO crossing becomes a manager-tile -> IO-tile traversal
  // (ready id + function pointer, one parameter-sized payload); the WB
  // stage serializes records in their arrival order (kWbArrived).
  net_->send(sim, not_before, npp_manager_node(), npp_io_node(), self_,
             kWbArrived, id, 0, noc::kParamBytes);
}

}  // namespace nexus
