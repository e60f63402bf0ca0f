// One row's driver call, and the validation pass that re-runs a row with
// its schedule recorded and checks it.
#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "bench.hpp"
#include "nexus/runtime/multi_app.hpp"
#include "nexus/runtime/schedule_validator.hpp"

namespace perfbench {

using nexus::TaskId;

namespace {

/// Forwards every call to the manager under test and records, per task,
/// when its submit was accepted and how often it was submitted and
/// finished. Only the validation pass uses it; the measured, registry and
/// profiled passes call the manager directly.
class ObservedManager final : public nexus::TaskManagerModel {
 public:
  ObservedManager(nexus::TaskManagerModel& inner, std::size_t tasks)
      : inner_(inner), submit_t_(tasks, -1), submits_(tasks, 0),
        finishes_(tasks, 0) {}

  void attach(nexus::Simulation& sim, nexus::RuntimeHost* host) override {
    inner_.attach(sim, host);
  }
  Tick submit(nexus::Simulation& sim, const nexus::TaskDescriptor& task) override {
    const Tick resume = inner_.submit(sim, task);
    if (resume >= 0) {
      if (task.id < submits_.size()) {
        ++submits_[task.id];
        submit_t_[task.id] = sim.now();
      } else {
        ++unknown_ids_;
      }
    }
    return resume;
  }
  Tick notify_finished(nexus::Simulation& sim, TaskId id) override {
    if (id < finishes_.size()) ++finishes_[id];
    else ++unknown_ids_;
    return inner_.notify_finished(sim, id);
  }
  Tick dispatch_time(nexus::Simulation& sim) override {
    return inner_.dispatch_time(sim);
  }
  [[nodiscard]] bool supports_taskwait_on() const override {
    return inner_.supports_taskwait_on();
  }
  [[nodiscard]] Tick taskwait_on_query_cost() const override {
    return inner_.taskwait_on_query_cost();
  }
  void bind_telemetry(nexus::telemetry::MetricRegistry& reg) override {
    inner_.bind_telemetry(reg);
  }
  void bind_trace(nexus::telemetry::TraceRecorder* trace) override {
    inner_.bind_trace(trace);
  }
  void bind_profiler(nexus::Simulation& sim) override { inner_.bind_profiler(sim); }
  [[nodiscard]] const char* name() const override { return inner_.name(); }

  [[nodiscard]] Tick submit_time(TaskId id) const { return submit_t_[id]; }
  [[nodiscard]] std::uint32_t submits(TaskId id) const { return submits_[id]; }
  [[nodiscard]] std::uint32_t finishes(TaskId id) const { return finishes_[id]; }
  [[nodiscard]] std::uint64_t unknown_ids() const { return unknown_ids_; }

 private:
  nexus::TaskManagerModel& inner_;
  std::vector<Tick> submit_t_;
  std::vector<std::uint32_t> submits_;
  std::vector<std::uint32_t> finishes_;
  std::uint64_t unknown_ids_ = 0;
};

/// One submission stream of a row: an application or a tenant, owning the
/// global task ids [base, base + trace->num_tasks()).
struct Stream {
  const nexus::Trace* trace = nullptr;
  TaskId base = 0;
  const std::vector<Tick>* release = nullptr;  ///< open loop only
};

std::vector<Stream> streams_of(const Row& row, const Inputs& in) {
  std::vector<Stream> out;
  TaskId next = 0;
  if (row.driver == DriverKind::kTenants) {
    for (const nexus::TenantStream& s : in.streams) {
      out.push_back({s.trace, next, &s.release});
      next += static_cast<TaskId>(s.trace->num_tasks());
    }
  } else {
    for (const std::string& name : row.traces) {
      const nexus::Trace& tr = in.traces.at(name);
      out.push_back({&tr, next, nullptr});
      next += static_cast<TaskId>(tr.num_tasks());
    }
  }
  return out;
}

Tick median_duration(const nexus::Trace& tr) {
  std::vector<Tick> d;
  d.reserve(tr.num_tasks());
  for (const nexus::TaskDescriptor& t : tr.tasks()) d.push_back(t.duration);
  if (d.empty()) return 0;
  const auto mid = d.begin() + static_cast<std::ptrdiff_t>(d.size() / 2);
  std::nth_element(d.begin(), mid, d.end());
  return *mid;
}

std::string describe(const RowRun& a) {
  return "makespan " + std::to_string(a.makespan) + " ps, " +
         std::to_string(a.tasks) + " tasks, " + std::to_string(a.events) +
         " events";
}

}  // namespace

bool RowRun::same_simulation(const RowRun& o) const {
  if (makespan != o.makespan || tasks != o.tasks || events != o.events ||
      has_events != o.has_events || tenants.size() != o.tenants.size())
    return false;
  // NaN marks "not reported" on both sides; otherwise compare exactly.
  if (std::isnan(utilization) != std::isnan(o.utilization)) return false;
  if (!std::isnan(utilization) && utilization != o.utilization) return false;
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    if (tenants[t].raw != o.tenants[t].raw ||
        tenants[t].nack_holds != o.tenants[t].nack_holds)
      return false;
  }
  return true;
}

RowRun run_row(const Row& row, const Inputs& in, nexus::TaskManagerModel& mgr,
               const nexus::RuntimeConfig& config, SpanLog& log) {
  RowRun r;
  const std::string span_name =
      std::string(driver_call(row.driver)) + "(" + row.label + ")";
  switch (row.driver) {
    case DriverKind::kTrace: {
      const nexus::Trace& tr = in.traces.at(row.traces.front());
      Timed span(log, span_name);
      const nexus::RunResult res = nexus::run_trace(tr, mgr, config);
      r.host_s = span.stop();
      r.makespan = res.makespan;
      r.tasks = res.tasks;
      r.events = res.events;
      r.has_events = true;
      r.utilization = res.utilization;
      break;
    }
    case DriverKind::kMultiApp: {
      std::vector<const nexus::Trace*> traces;
      for (const std::string& name : row.traces) traces.push_back(&in.traces.at(name));
      Timed span(log, span_name);
      const nexus::MultiAppResult res = nexus::run_multi_app(traces, mgr, config);
      r.host_s = span.stop();
      r.makespan = res.makespan;
      r.tasks = res.total_tasks;
      r.utilization = res.utilization;
      break;
    }
    case DriverKind::kTenants: {
      Timed span(log, span_name);
      nexus::TenantRunResult res = nexus::run_tenants(in.streams, mgr, config);
      r.host_s = span.stop();
      r.makespan = res.makespan;
      r.tasks = res.total_tasks;
      r.tenants = std::move(res.tenants);
      break;
    }
  }
  return r;
}

RowCheck validate_row(const Row& row, const Inputs& in, const RowRun& reference,
                      SpanLog& log) {
  RowCheck check;
  auto fail = [&check](std::string why) {
    if (check.ok) check.error = std::move(why);
    check.ok = false;
  };

  const std::vector<Stream> streams = streams_of(row, in);
  std::size_t total = 0;
  for (const Stream& s : streams) total += s.trace->num_tasks();

  double unused = 0.0;
  const std::unique_ptr<nexus::TaskManagerModel> mgr = build_manager(row, log, &unused);
  ObservedManager observed(*mgr, total);
  std::vector<nexus::ScheduleEntry> schedule;
  schedule.reserve(total);
  nexus::RuntimeConfig config = row.config;
  config.schedule_out = &schedule;
  const RowRun run = run_row(row, in, observed, config, log);

  if (!run.same_simulation(reference))
    fail("validation pass differs from measured pass (" + describe(run) +
         " vs " + describe(reference) + ")");
  if (run.tasks != total)
    fail("driver reports " + std::to_string(run.tasks) + " tasks, inputs hold " +
         std::to_string(total));
  if (observed.unknown_ids() > 0)
    fail(std::to_string(observed.unknown_ids()) + " submits/finishes of unknown task ids");

  // Every task ran, was submitted and was finished exactly once.
  std::vector<std::uint32_t> started(total, 0);
  for (const nexus::ScheduleEntry& e : schedule) {
    if (e.task >= total) {
      fail("schedule names unknown task " + std::to_string(e.task));
      continue;
    }
    ++started[e.task];
  }
  for (TaskId id = 0; id < total; ++id) {
    if (started[id] != 1 || observed.submits(id) != 1 || observed.finishes(id) != 1) {
      fail("task " + std::to_string(id) + " submitted " +
           std::to_string(observed.submits(id)) + "x, started " +
           std::to_string(started[id]) + "x, finished " +
           std::to_string(observed.finishes(id)) + "x");
      break;
    }
  }

  // Streams share the workers: no two intervals may overlap on one core.
  std::vector<nexus::ScheduleEntry> by_core = schedule;
  std::sort(by_core.begin(), by_core.end(), [](const auto& a, const auto& b) {
    return a.worker != b.worker ? a.worker < b.worker : a.start < b.start;
  });
  for (std::size_t i = 1; i < by_core.size(); ++i) {
    if (by_core[i].worker == by_core[i - 1].worker &&
        by_core[i].start < by_core[i - 1].end) {
      fail("tasks overlap on core " + std::to_string(by_core[i].worker));
      break;
    }
  }

  // Each stream's slice of the schedule must be a legal execution of its
  // own trace; ids are split back out by the stream's id range.
  for (std::size_t s = 0; s < streams.size(); ++s) {
    const Stream& st = streams[s];
    const TaskId end = st.base + static_cast<TaskId>(st.trace->num_tasks());
    std::vector<nexus::ScheduleEntry> local;
    local.reserve(st.trace->num_tasks());
    for (const nexus::ScheduleEntry& e : schedule) {
      if (e.task < st.base || e.task >= end) continue;
      nexus::ScheduleEntry l = e;
      l.task = e.task - st.base;
      if (st.release != nullptr && l.start < (*st.release)[l.task])
        fail("stream " + std::to_string(s) + " task " + std::to_string(l.task) +
             " starts before its release");
      local.push_back(l);
    }
    std::string error;
    Timed span(log, "validate_schedule(" + row.label + "#" + std::to_string(s) + ")");
    const bool legal = nexus::validate_schedule(*st.trace, local, &error);
    check.validate_s += span.stop();
    if (!legal) fail("stream " + std::to_string(s) + ": " + error);
  }

  // Latency samples in simulated ps. Open loop: the driver's own
  // release -> finish vectors, tenant 0 heavy and the rest light. Closed
  // loop: accepted submit -> finish per task, split at the median task
  // duration of its trace (shorter tasks are light).
  if (row.driver == DriverKind::kTenants) {
    for (std::size_t t = 0; t < run.tenants.size(); ++t) {
      const std::vector<Tick>& raw = run.tenants[t].raw;
      std::vector<Tick>& into = t == 0 ? check.heavy : check.light;
      into.insert(into.end(), raw.begin(), raw.end());
    }
  } else {
    std::vector<Tick> end_of(total, 0);
    for (const nexus::ScheduleEntry& e : schedule)
      if (e.task < total) end_of[e.task] = e.end;
    for (const Stream& st : streams) {
      const Tick cut = median_duration(*st.trace);
      for (TaskId i = 0; i < st.trace->num_tasks(); ++i) {
        const TaskId id = st.base + i;
        const Tick lat = end_of[id] - observed.submit_time(id);
        (st.trace->task(i).duration < cut ? check.light : check.heavy).push_back(lat);
      }
    }
  }
  if (check.light.size() + check.heavy.size() != total)
    fail("latency samples cover " +
         std::to_string(check.light.size() + check.heavy.size()) + " of " +
         std::to_string(total) + " tasks");
  return check;
}

}  // namespace perfbench
