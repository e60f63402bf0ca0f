#include "nexus/task/trace_stats.hpp"

#include <algorithm>
#include <limits>
#include <unordered_set>

namespace nexus {

TraceStats compute_stats(const Trace& trace) {
  TraceStats s;
  s.num_tasks = trace.num_tasks();
  s.total_work = trace.total_work();
  s.min_params = std::numeric_limits<std::size_t>::max();
  std::unordered_set<Addr> addrs;
  for (const auto& t : trace.tasks()) {
    s.min_params = std::min(s.min_params, t.params.size());
    s.max_params = std::max(s.max_params, t.params.size());
    ++s.params_histogram[t.params.size()];
    for (const auto& p : t.params) addrs.insert(p.addr);
  }
  if (s.num_tasks == 0) s.min_params = 0;
  s.avg_task = s.num_tasks > 0 ? s.total_work / static_cast<Tick>(s.num_tasks) : 0;
  s.distinct_addresses = addrs.size();
  for (const auto& ev : trace.events()) {
    if (ev.op() == TraceOp::kTaskwait) ++s.num_taskwaits;
    if (ev.op() == TraceOp::kTaskwaitOn) ++s.num_taskwait_ons;
  }
  return s;
}

}  // namespace nexus
