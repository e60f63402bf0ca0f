#include "nexus/runtime/ideal_manager.hpp"

#include "nexus/telemetry/trace.hpp"

namespace nexus {

void IdealManager::attach(Simulation& sim, RuntimeHost* host) {
  NEXUS_ASSERT(host != nullptr);
  host_ = host;
  trace_ = sim.observers().trace;
  tracker_ = DependencyTracker{};
}

Tick IdealManager::submit(Simulation& sim, const TaskDescriptor& task) {
  if (tracker_.submit(task) == 0) {
    if (trace_ != nullptr) trace_->on_resolved(task.id, sim.now());
    host_->task_ready(sim, task.id);
  }
  return sim.now();
}

Tick IdealManager::notify_finished(Simulation& sim, TaskId id) {
  ready_scratch_.clear();
  tracker_.finish(id, &ready_scratch_);
  for (const TaskId t : ready_scratch_) {
    if (trace_ != nullptr) {
      trace_->on_dep(id, t, sim.now());
      trace_->on_resolved(t, sim.now());
    }
    host_->task_ready(sim, t);
  }
  return sim.now();
}

}  // namespace nexus
