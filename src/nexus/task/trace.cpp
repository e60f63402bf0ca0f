#include "nexus/task/trace.hpp"

#include <unordered_set>

namespace nexus {

TaskId Trace::submit(std::uint32_t fn, Tick duration, const ParamList& params) {
  const auto id = static_cast<TaskId>(tasks_.size());
  TaskDescriptor& t = tasks_.emplace_back();
  t.id = id;
  t.fn = fn;
  t.duration = duration;
  t.params = params;
  NEXUS_ASSERT_MSG(validate_task(t), "invalid task descriptor");
  events_.push_back(TraceEvent::submit(id));
  total_work_ += duration;
  return id;
}

void Trace::taskwait() { events_.push_back(TraceEvent::taskwait()); }

void Trace::taskwait_on(Addr addr) {
  events_.push_back(TraceEvent::taskwait_on(addr));
  has_taskwait_on_ = true;
}

bool Trace::validate(std::string* error) const {
  auto fail = [&](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  std::vector<bool> seen(tasks_.size(), false);
  std::unordered_set<Addr> written;
  std::size_t submits = 0;
  for (const auto& ev : events_) {
    switch (ev.op()) {
      case TraceOp::kSubmit: {
        const TaskId id = ev.task();
        if (id >= tasks_.size()) return fail("submit of unknown task");
        if (seen[id]) return fail("task submitted twice");
        seen[id] = true;
        ++submits;
        const auto& t = tasks_[id];
        if (!validate_task(t)) return fail("invalid task descriptor");
        for (const auto& p : t.params)
          if (is_write(p.dir)) written.insert(p.addr);
        break;
      }
      case TraceOp::kTaskwait:
        break;
      case TraceOp::kTaskwaitOn:
        if (written.find(ev.addr()) == written.end())
          return fail("taskwait_on address never written");
        break;
    }
  }
  if (submits != tasks_.size()) return fail("not all tasks submitted");
  return true;
}

}  // namespace nexus
