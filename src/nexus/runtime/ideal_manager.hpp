// "No Overhead" manager: instantaneous dependency resolution.
//
// Reproduces the paper's ideal-scalability curves (Section V-B): "the
// simulation time does not advance while dependencies are resolved. Only the
// execution time of the tasks is taken into account." The remaining limits
// are the application's own parallelism and the worker count.
#pragma once

#include <vector>

#include "nexus/depgraph/dependency_tracker.hpp"
#include "nexus/runtime/manager.hpp"

namespace nexus {

class IdealManager final : public TaskManagerModel {
 public:
  void attach(Simulation& sim, RuntimeHost* host) override;
  Tick submit(Simulation& sim, const TaskDescriptor& task) override;
  Tick notify_finished(Simulation& sim, TaskId id) override;
  [[nodiscard]] const char* name() const override { return "ideal"; }

 private:
  RuntimeHost* host_ = nullptr;
  DependencyTracker tracker_;
  std::vector<TaskId> ready_scratch_;
  telemetry::TraceRecorder* trace_ = nullptr;
};

}  // namespace nexus
