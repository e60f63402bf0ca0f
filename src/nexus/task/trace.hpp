// A trace is the master thread's recorded behaviour: an ordered stream of
// task submissions and barrier pragmas, plus the task descriptors themselves.
//
// This mirrors the paper's evaluation method (Section V-B): traces collected
// from benchmark runs are replayed against the simulated task managers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nexus/task/task.hpp"

namespace nexus {

enum class TraceOp : std::uint8_t {
  kSubmit = 0,      ///< submit task (payload: task id)
  kTaskwait = 1,    ///< #pragma omp taskwait — wait for all submitted tasks
  kTaskwaitOn = 2,  ///< #pragma omp taskwait on(addr) — wait for addr's producer
};

/// One master-thread action in one 64-bit word: the op in the low byte and
/// a 56-bit payload above it, the task id of a kSubmit or the 48-bit address
/// of a kTaskwaitOn (0 for a kTaskwait).
class TraceEvent {
 public:
  static TraceEvent submit(TaskId id) { return {TraceOp::kSubmit, id}; }
  static TraceEvent taskwait() { return {TraceOp::kTaskwait, 0}; }
  static TraceEvent taskwait_on(Addr a) {
    NEXUS_ASSERT_MSG((a & ~kAddrMask) == 0, "taskwait_on address wider than 48 bits");
    return {TraceOp::kTaskwaitOn, a};
  }

  [[nodiscard]] TraceOp op() const { return static_cast<TraceOp>(word_ & 0xFF); }
  [[nodiscard]] TaskId task() const {
    NEXUS_DCHECK(op() == TraceOp::kSubmit);
    return static_cast<TaskId>(word_ >> 8);
  }
  [[nodiscard]] Addr addr() const {
    NEXUS_DCHECK(op() == TraceOp::kTaskwaitOn);
    return word_ >> 8;
  }

  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;

 private:
  TraceEvent(TraceOp kind, std::uint64_t payload)
      : word_(payload << 8 | static_cast<std::uint64_t>(kind)) {}

  std::uint64_t word_;
};
static_assert(sizeof(TraceEvent) == 8);

class Trace {
 public:
  Trace() = default;
  explicit Trace(std::string name) : name_(std::move(name)) {}

  [[nodiscard]] const std::string& name() const { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }

  /// Append a task submission; assigns and returns the task id.
  TaskId submit(std::uint32_t fn, Tick duration, const ParamList& params);

  void taskwait();
  /// Aborts on an address wider than kAddrMask, as a Param does.
  void taskwait_on(Addr addr);

  /// Patch a task's duration after submission. Generators build the trace
  /// structure first, then assign durations rescaled to an exact total.
  void set_duration(TaskId id, Tick d) {
    NEXUS_DCHECK(id < tasks_.size());
    NEXUS_ASSERT_MSG(d > 0, "duration must be positive");
    total_work_ += d - tasks_[id].duration;
    tasks_[id].duration = d;
  }

  [[nodiscard]] std::size_t num_tasks() const { return tasks_.size(); }
  [[nodiscard]] std::size_t num_events() const { return events_.size(); }
  [[nodiscard]] const TaskDescriptor& task(TaskId id) const {
    NEXUS_DCHECK(id < tasks_.size());
    return tasks_[id];
  }
  [[nodiscard]] const std::vector<TaskDescriptor>& tasks() const { return tasks_; }
  [[nodiscard]] const std::vector<TraceEvent>& events() const { return events_; }

  /// Total execution time over all tasks (kept up to date, O(1)).
  [[nodiscard]] Tick total_work() const { return total_work_; }
  /// Whether any event is a kTaskwaitOn.
  [[nodiscard]] bool has_taskwait_on() const { return has_taskwait_on_; }

  /// Structural validation: every task valid, submit events reference
  /// existing tasks exactly once each, taskwait_on addresses were written by
  /// some previously submitted task.
  [[nodiscard]] bool validate(std::string* error = nullptr) const;

  void reserve(std::size_t n_tasks) {
    tasks_.reserve(n_tasks);
    events_.reserve(n_tasks + n_tasks / 16 + 8);
  }

 private:
  std::string name_;
  std::vector<TaskDescriptor> tasks_;
  std::vector<TraceEvent> events_;
  Tick total_work_ = 0;
  bool has_taskwait_on_ = false;
};

}  // namespace nexus
