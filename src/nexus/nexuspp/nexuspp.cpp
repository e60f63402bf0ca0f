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
  ++tasks_in_;
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
      insert_queue_.push_back(static_cast<TaskId>(ev.a));
      pump(sim);
      break;
    case kFinishArrived:
      finish_queue_.push_back(static_cast<TaskId>(ev.a));
      pump(sim);
      break;
    case kPump:
      pump_pending_ = false;
      pump(sim);
      break;
    case kReadyDelivered:
      ++ready_out_;
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
  // priority (they free resources); a stalled insert parks until a finish
  // frees space in its set.
  const Tick now = sim.now();
  if (now < port_free_) {
    if (!pump_pending_) {
      pump_pending_ = true;
      sim.schedule(port_free_, self_, kPump);
    }
    return;
  }

  if (!finish_queue_.empty()) {
    const TaskId id = finish_queue_.front();
    finish_queue_.pop_front();
    process_finish(sim, id);
    if (!pump_pending_ && port_free_ > now &&
        (!finish_queue_.empty() || active_insert_ || !insert_queue_.empty())) {
      pump_pending_ = true;
      sim.schedule(port_free_, self_, kPump);
    }
    return;
  }

  if (active_insert_ && insert_stalled_) return;  // wait for a finish

  if (!active_insert_ && !insert_queue_.empty()) {
    active_insert_ = InsertJob{insert_queue_.front(), 0, 0, now};
    insert_queue_.pop_front();
    port_free_ = now + cycles(cfg_.insert_base);
    insert_busy_ += cycles(cfg_.insert_base);
  }
  if (active_insert_) {
    if (continue_insert(sim)) {
      active_insert_.reset();
    }
    if (!pump_pending_ && port_free_ > sim.now() &&
        (!insert_queue_.empty() || active_insert_ || !finish_queue_.empty())) {
      pump_pending_ = true;
      sim.schedule(port_free_, self_, kPump);
    }
  }
}

bool NexusPP::continue_insert(Simulation& sim) {
  InsertJob& job = *active_insert_;
  const TaskDescriptor& task = pool_.get(job.id);
  while (job.next_param < task.num_params()) {
    const Param& p = task.params[job.next_param];
    const auto res = table_.insert(p.addr, job.id, is_write(p.dir));
    if (res.kind == hw::TaskGraphTable::InsertKind::kNoSpace) {
      // "The task graph must then wait until one task finishes" (IV-D).
      insert_stalled_ = true;
      return false;
    }
    const Tick step = cycles(cfg_.insert_per_param +
                             cfg_.chain_hop_cycles *
                                 static_cast<std::int64_t>(res.chain_hops));
    port_free_ += step;
    insert_busy_ += step;
    if (res.kind == hw::TaskGraphTable::InsertKind::kQueued) ++job.deps;
    ++job.next_param;
  }
  insert_stalled_ = false;
  if (trace_ != nullptr) {
    trace_->unit_span("npp/table", "insert", job.id, job.started,
                      port_free_ - job.started);
  }
  if (job.deps == 0) {
    deliver_ready(sim, port_free_, job.id);
  } else {
    depcounts_.set(job.id, job.deps, port_free_);
  }
  return true;
}

void NexusPP::process_finish(Simulation& sim, TaskId id) {
  const TaskDescriptor task = pool_.get(id);  // copy: erased below
  kicked_scratch_.clear();
  std::int64_t hop_cycles = 0;
  bool freed_entry = false;
  for (const auto& p : task.params) {
    const auto res = table_.finish(p.addr, id, &kicked_scratch_);
    hop_cycles += res.chain_hops;
    freed_entry |= res.entry_freed;
  }
  const Tick cost =
      cycles(cfg_.finish_per_param * static_cast<std::int64_t>(task.num_params()) +
             cfg_.kick_cycles * static_cast<std::int64_t>(kicked_scratch_.size()) +
             cfg_.chain_hop_cycles * hop_cycles);
  port_free_ = sim.now() + cost;
  insert_busy_ += cost;
  if (trace_ != nullptr) {
    trace_->unit_span("npp/table", "finish", id, sim.now(), cost);
    for (const auto& w : kicked_scratch_) trace_->on_dep(id, w.task, port_free_);
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
    if (depcounts_.decrement(w.task, port_free_))
      deliver_ready(sim, port_free_, w.task);
  }
  pool_.erase(id, sim.now());

  if (freed_entry && insert_stalled_) insert_stalled_ = false;
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

NexusPP::Stats NexusPP::stats() const {
  Stats s;
  s.tasks_in = tasks_in_;
  s.ready_out = ready_out_;
  s.table_stalls = table_.total_stalls();
  s.pool_peak = pool_.peak();
  s.insert_busy = insert_busy_;
  return s;
}

}  // namespace nexus
