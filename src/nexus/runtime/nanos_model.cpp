#include "nexus/runtime/nanos_model.hpp"

#include "nexus/telemetry/trace.hpp"

namespace nexus {

void NanosModel::attach(Simulation& sim, RuntimeHost* host) {
  NEXUS_ASSERT(host != nullptr);
  host_ = host;
  self_ = sim.add_component(this);
  trace_ = sim.observers().trace;
  tracker_ = DependencyTracker{};
  lock_.reset();
}

Tick NanosModel::submit(Simulation& sim, const TaskDescriptor& task) {
  // Creation runs lock-free on the master; dependence insertion serializes
  // on the runtime lock with every other runtime operation.
  const Tick insert_start = sim.now() + cfg_.create_cost;
  const Tick insert_cost =
      cfg_.insert_per_param * static_cast<Tick>(task.params.size());
  const Tick done = lock_.acquire(insert_start, insert_cost);
  const bool ready = tracker_.submit(task) == 0;
  if (ready) {
    if (trace_ != nullptr) trace_->on_resolved(task.id, done);
    // Visible to idle workers once the insertion critical section ends.
    sim.schedule(done, self_, kDeliverReady, task.id);
  }
  return done;
}

Tick NanosModel::notify_finished(Simulation& sim, TaskId id) {
  const Tick done = lock_.acquire(sim.now(), cfg_.finish_cs);
  ready_scratch_.clear();
  tracker_.finish(id, &ready_scratch_);
  for (const TaskId t : ready_scratch_) {
    if (trace_ != nullptr) {
      trace_->on_dep(id, t, done);
      trace_->on_resolved(t, done);
    }
    sim.schedule(done, self_, kDeliverReady, t);
  }
  return done;  // the worker runs the completion section itself
}

Tick NanosModel::dispatch_time(Simulation& sim) {
  // Idle worker takes the scheduler lock to pop the ready queue.
  return lock_.acquire(sim.now(), cfg_.dispatch_cs);
}

void NanosModel::handle(Simulation& sim, const Event& ev) {
  switch (ev.op) {
    case kDeliverReady:
      host_->task_ready(sim, static_cast<TaskId>(ev.a));
      break;
    default:
      NEXUS_ASSERT_MSG(false, "unknown NanosModel op");
  }
}

}  // namespace nexus
