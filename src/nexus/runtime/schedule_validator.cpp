#include "nexus/runtime/schedule_validator.hpp"

#include <algorithm>
#include <map>
#include <unordered_map>

namespace nexus {

bool validate_schedule(const Trace& trace, const std::vector<ScheduleEntry>& schedule,
                       std::string* error) {
  auto fail = [&](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return false;
  };

  // Index: every task executed exactly once, with its declared duration.
  if (schedule.size() != trace.num_tasks())
    return fail("executed " + std::to_string(schedule.size()) + " of " +
                std::to_string(trace.num_tasks()) + " tasks");
  std::vector<const ScheduleEntry*> by_task(trace.num_tasks(), nullptr);
  for (const auto& e : schedule) {
    if (e.task >= trace.num_tasks()) return fail("unknown task in schedule");
    if (by_task[e.task] != nullptr)
      return fail("task " + std::to_string(e.task) + " executed twice");
    if (e.end - e.start != trace.task(e.task).duration)
      return fail("task " + std::to_string(e.task) + " has the wrong duration");
    by_task[e.task] = &e;
  }

  // No overlap on a worker.
  std::map<std::uint32_t, std::vector<const ScheduleEntry*>> per_worker;
  for (const auto& e : schedule) per_worker[e.worker].push_back(&e);
  for (auto& [w, v] : per_worker) {
    std::sort(v.begin(), v.end(),
              [](const auto* a, const auto* b) { return a->start < b->start; });
    for (std::size_t i = 1; i < v.size(); ++i) {
      if (v[i]->start < v[i - 1]->end)
        return fail("worker " + std::to_string(w) + " overlaps tasks " +
                    std::to_string(v[i - 1]->task) + " and " +
                    std::to_string(v[i]->task));
    }
  }

  // Hazard ordering in submission order, with actual completion times.
  struct Chain {
    Tick writer_end = 0;
    Tick readers_end = 0;
  };
  std::unordered_map<Addr, Chain> chains;
  std::unordered_map<Addr, TaskId> last_writer;
  Tick fence = 0;
  Tick all_end = 0;
  for (const auto& ev : trace.events()) {
    switch (ev.op()) {
      case TraceOp::kSubmit: {
        const TaskId id = ev.task();
        const TaskDescriptor& t = trace.task(id);
        const ScheduleEntry& e = *by_task[id];
        Tick min_start = fence;
        for (const auto& p : t.params) {
          const Chain& c = chains[p.addr];
          min_start = std::max(min_start, is_write(p.dir)
                                              ? std::max(c.writer_end, c.readers_end)
                                              : c.writer_end);
        }
        if (e.start < min_start)
          return fail("task " + std::to_string(id) + " started at " +
                      std::to_string(e.start) + " before its dependences (" +
                      std::to_string(min_start) + ")");
        for (const auto& p : t.params) {
          Chain& c = chains[p.addr];
          if (is_write(p.dir)) {
            c.writer_end = e.end;
            c.readers_end = 0;
            last_writer[p.addr] = id;
          } else {
            c.readers_end = std::max(c.readers_end, e.end);
          }
        }
        all_end = std::max(all_end, e.end);
        break;
      }
      case TraceOp::kTaskwait:
        fence = std::max(fence, all_end);
        break;
      case TraceOp::kTaskwaitOn: {
        const auto it = last_writer.find(ev.addr());
        if (it != last_writer.end())
          fence = std::max(fence, by_task[it->second]->end);
        break;
      }
    }
  }
  return true;
}

}  // namespace nexus
