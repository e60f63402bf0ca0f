#include "nexus/runtime/list_scheduler.hpp"

#include <algorithm>
#include <deque>
#include <queue>
#include <unordered_map>
#include <vector>

#include "nexus/common/assert.hpp"
#include "nexus/depgraph/dependency_tracker.hpp"

namespace nexus {
namespace {

struct Occurrence {
  Tick t;
  std::uint64_t seq;
  bool is_done;  // false = task became ready, true = task finished
  TaskId id;
};

struct Later {
  bool operator()(const Occurrence& a, const Occurrence& b) const {
    if (a.t != b.t) return a.t > b.t;
    return a.seq > b.seq;
  }
};

class ListScheduler {
 public:
  ListScheduler(const Trace& trace, std::uint32_t workers)
      : trace_(trace), finished_(trace.num_tasks(), false), free_workers_(workers) {}

  Tick run() {
    NEXUS_ASSERT(trace_.num_tasks() > 0);
    advance_master(0);
    Tick last = 0;
    while (!occ_.empty()) {
      const Occurrence o = occ_.top();
      occ_.pop();
      if (o.is_done) {
        last = o.t;
        on_done(o.t, o.id);
      } else {
        on_ready(o.t, o.id);
      }
    }
    NEXUS_ASSERT_MSG(outstanding_ == 0 && next_event_ == trace_.events().size(),
                     "list scheduler deadlocked (invalid trace?)");
    return last;
  }

 private:
  void push(Tick t, bool done, TaskId id) { occ_.push({t, seq_++, done, id}); }

  void advance_master(Tick now) {
    while (next_event_ < trace_.events().size()) {
      const TraceEvent& ev = trace_.events()[next_event_];
      if (ev.op() == TraceOp::kSubmit) {
        ++next_event_;
        ++outstanding_;
        const TaskDescriptor& task = trace_.task(ev.task());
        for (const auto& p : task.params)
          if (is_write(p.dir)) last_writer_[p.addr] = task.id;
        if (tracker_.submit(task) == 0) push(now, false, task.id);
      } else if (ev.op() == TraceOp::kTaskwait) {
        ++next_event_;
        if (outstanding_ > 0) {
          barrier_ = true;
          return;
        }
      } else {  // kTaskwaitOn (supported natively in the ideal model)
        const auto it = last_writer_.find(ev.addr());
        if (it != last_writer_.end() && !finished_[it->second]) {
          wait_task_ = it->second;
          return;  // do not consume the event until the producer finishes
        }
        ++next_event_;
      }
    }
  }

  void on_ready(Tick t, TaskId id) {
    if (free_workers_ > 0) {
      --free_workers_;
      push(t + trace_.task(id).duration, true, id);
    } else {
      waiting_.push_back(id);
    }
  }

  void on_done(Tick t, TaskId id) {
    finished_[id] = true;
    NEXUS_ASSERT(outstanding_ > 0);
    --outstanding_;
    ++free_workers_;
    if (!waiting_.empty()) {
      const TaskId next = waiting_.front();
      waiting_.pop_front();
      --free_workers_;
      push(t + trace_.task(next).duration, true, next);
    }
    ready_scratch_.clear();
    tracker_.finish(id, &ready_scratch_);
    for (const TaskId r : ready_scratch_) push(t, false, r);

    if (barrier_ && outstanding_ == 0) {
      barrier_ = false;
      advance_master(t);
    } else if (wait_task_ != kInvalidTask && finished_[wait_task_]) {
      wait_task_ = kInvalidTask;
      ++next_event_;  // consume the taskwait_on
      advance_master(t);
    }
  }

  const Trace& trace_;
  DependencyTracker tracker_;
  std::priority_queue<Occurrence, std::vector<Occurrence>, Later> occ_;
  std::deque<TaskId> waiting_;
  std::vector<TaskId> ready_scratch_;
  std::unordered_map<Addr, TaskId> last_writer_;
  std::vector<bool> finished_;
  std::uint32_t free_workers_;
  std::uint64_t seq_ = 0;
  std::size_t next_event_ = 0;
  std::uint64_t outstanding_ = 0;
  bool barrier_ = false;
  TaskId wait_task_ = kInvalidTask;
};

}  // namespace

Tick list_schedule_makespan(const Trace& trace, std::uint32_t workers) {
  NEXUS_ASSERT(workers > 0);
  return ListScheduler(trace, workers).run();
}

Tick critical_path(const Trace& trace) {
  // Longest path through the dependence DAG, including barrier ordering:
  // a task submitted after a taskwait cannot start before every task
  // submitted before it has finished. With infinite workers a task starts at
  // max(fence, hazards over its addresses); per-address chain state encodes
  // RAW/WAR/WAW exactly as the tracker orders accesses.
  struct AddrChain {
    Tick last_writer_done = 0;
    Tick readers_done = 0;  // max completion among readers since last write
  };
  std::unordered_map<Addr, AddrChain> chains;
  std::unordered_map<Addr, TaskId> last_writer;
  Tick fence = 0;
  Tick makespan = 0;
  std::vector<Tick> done_at(trace.num_tasks(), 0);

  for (const auto& ev : trace.events()) {
    switch (ev.op()) {
      case TraceOp::kSubmit: {
        const TaskId id = ev.task();
        const TaskDescriptor& t = trace.task(id);
        Tick start = fence;
        for (const auto& p : t.params) {
          auto& c = chains[p.addr];
          if (is_write(p.dir)) {
            start = std::max({start, c.last_writer_done, c.readers_done});
          } else {
            start = std::max(start, c.last_writer_done);
          }
        }
        const Tick done = start + t.duration;
        done_at[id] = done;
        makespan = std::max(makespan, done);
        for (const auto& p : t.params) {
          auto& c = chains[p.addr];
          if (is_write(p.dir)) {
            c.last_writer_done = done;
            c.readers_done = 0;
            last_writer[p.addr] = id;
          } else {
            c.readers_done = std::max(c.readers_done, done);
          }
        }
        break;
      }
      case TraceOp::kTaskwait:
        fence = std::max(fence, makespan);
        break;
      case TraceOp::kTaskwaitOn: {
        const auto it = last_writer.find(ev.addr());
        if (it != last_writer.end()) fence = std::max(fence, done_at[it->second]);
        break;
      }
    }
  }
  return makespan;
}

}  // namespace nexus
