#include "nexus/runtime/simulation_driver.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <string>

#include "nexus/telemetry/profiler.hpp"
#include "nexus/telemetry/registry.hpp"
#include "nexus/telemetry/timeline.hpp"
#include "nexus/telemetry/trace.hpp"

namespace nexus {

RunResult run_trace(const Trace& trace, TaskManagerModel& manager,
                    const RuntimeConfig& config) {
  NEXUS_ASSERT_MSG(trace.num_tasks() > 0, "empty trace");
  const OpenLoopSubmission* open = config.open_loop;
  if (open != nullptr) {
    NEXUS_ASSERT_MSG(open->release.size() == trace.num_tasks(),
                     "open-loop release vector must cover every task");
    NEXUS_ASSERT_MSG(open->client.empty() || open->client.size() == trace.num_tasks(),
                     "open-loop client vector must be empty or cover every task");
  }
  detail::Driver driver({{.trace = &trace, .release = open ? &open->release : nullptr}},
                        manager, config);
  return driver.run();
}

namespace detail {

Driver::Driver(const std::vector<Stream>& streams, TaskManagerModel& manager,
               const RuntimeConfig& config)
    : manager_(manager), config_(config), core_busy_(config.workers, 0) {
  NEXUS_ASSERT_MSG(config.workers > 0, "need at least one worker");
  for (std::uint32_t w = config.workers; w > 0; --w) free_workers_.push_back(w - 1);
  std::size_t tasks = 0;
  feeds_.reserve(streams.size());
  for (const Stream& s : streams) {
    NEXUS_ASSERT_MSG(s.trace != nullptr, "stream needs a trace");
    Feed& f = feeds_.emplace_back();
    f.s = s;
    f.base = static_cast<TaskId>(tasks);
    f.track_writers = s.trace->has_taskwait_on();
    tasks += s.trace->num_tasks();
    ports_.resize(std::max<std::size_t>(ports_.size(), s.port + 1));
  }
  for (std::uint32_t i = 0; i < feeds_.size(); ++i) {
    Feed& f = feeds_[i];
    Port& port = ports_[f.s.port];
    f.slot = static_cast<std::uint32_t>(port.feeds.size());
    port.feeds.push_back(i);
    bases_.push_back(f.base);
    events_left_ += f.s.trace->events().size();
  }
  for (Port& port : ports_) port.build();
  for (const Feed& f : feeds_) refresh(f);
  finished_.assign(tasks, false);

  NEXUS_ASSERT_MSG(config_.timeline == nullptr || config_.metrics != nullptr,
                   "RuntimeConfig::timeline requires RuntimeConfig::metrics");
  sim_.bind({.metrics = config_.metrics,
             .trace = config_.trace,
             .profiler = config_.profiler,
             .timeline = config_.timeline,
             .profile_parent = config_.profile_parent});
  self_ = sim_.add_component(this);
  manager_.attach(sim_, this);
  if (!config_.noc.ideal()) {
    // Host NoC: manager/master tile at node 0, core w at node 1+w. Created
    // only for real topologies — the ideal default keeps dispatch and
    // notification synchronous (the pre-NoC code path, bit-identical).
    host_net_ = std::make_unique<noc::Network>(
        config_.noc, config_.workers + 1, /*default_mhz=*/100.0,
        /*ideal_latency=*/0, "runtime/noc",
        std::vector<std::string>{"master_step", "task_done", "worker_free",
                                 "dispatch", "notify"});
    host_net_->attach(sim_);
  }
  if (config_.metrics != nullptr) {
    telemetry::MetricRegistry& reg = *config_.metrics;
    m_ready_depth_ = &reg.histogram("runtime/ready_q_depth");
    m_dispatches_ = &reg.counter("runtime/dispatches");
    m_sojourn_ = &reg.histogram("runtime/sojourn_ps");
    m_queue_wait_ = &reg.histogram("runtime/queue_wait_ps");
    submit_t_.assign(tasks, -1);
    ready_t_.assign(tasks, -1);
    if (std::any_of(feeds_.begin(), feeds_.end(),
                    [](const Feed& f) { return f.s.release != nullptr; })) {
      m_offered_ = &reg.counter("runtime/offered");
      m_accepted_ = &reg.counter("runtime/accepted");
      m_serving_ = &reg.histogram("runtime/serving_latency_ps");
      m_admission_wait_ = &reg.histogram("runtime/admission_wait_ps");
    }
    // Per-client latency histograms; capped so a million-client schedule
    // cannot explode the snapshot (the aggregate histogram always exists).
    // Indices are zero-padded to a common width so snapshot order matches
    // client order past 10 clients (client02 < client10, lexicographically).
    constexpr std::uint32_t kMaxClientHistograms = 64;
    const OpenLoopSubmission* open = config_.open_loop;
    if (open != nullptr && !open->client.empty() &&
        open->clients <= kMaxClientHistograms) {
      for (std::uint32_t c = 0; c < open->clients; ++c)
        m_client_sojourn_.push_back(&reg.histogram(telemetry::path_join(
            "runtime",
            telemetry::indexed_path("client", c, open->clients) + "/sojourn_ps")));
    }
  }
  if (config_.profiler != nullptr) {
    prof_ = config_.profiler;
    const std::uint32_t me = sim_.profiler_component_node(self_);
    prof_dispatch_ = prof_->node(me, "dispatch");
    prof_notify_ = prof_->node(me, "notify");
  }
}

RunResult Driver::run() {
  for (std::uint32_t p = 0; p < ports_.size(); ++p) wake(sim_, p, 0);
  sim_.run();
  for (const Feed& f : feeds_) {
    NEXUS_ASSERT_MSG(f.next == f.s.trace->events().size() && f.wait == Wait::kNone,
                     "master did not finish");
  }
  NEXUS_ASSERT_MSG(outstanding_ == 0, "tasks left outstanding");
  NEXUS_ASSERT_MSG(finished_count_ == finished_.size(), "tasks never ran");

  RunResult r;
  r.makespan = last_activity_;
  for (const Feed& f : feeds_) r.total_work += f.s.trace->total_work();
  r.tasks = finished_.size();
  r.events = sim_.events_processed();
  r.manager = manager_.name();
  const auto cores = static_cast<std::uint32_t>(core_busy_.size());
  if (r.makespan > 0) {
    r.utilization =
        static_cast<double>(std::accumulate(core_busy_.begin(), core_busy_.end(), Tick{0})) /
        (static_cast<double>(r.makespan) * cores);
  }

  if (config_.metrics != nullptr) {
    // Per-core busy/idle split: busy + idle == makespan for every core, so
    // the totals reconcile exactly against cores x makespan (a tested
    // consistency contract of the metric report).
    telemetry::MetricRegistry& reg = *config_.metrics;
    reg.gauge("runtime/makespan_ps").set(r.makespan);
    reg.gauge("runtime/cores").set(cores);
    reg.gauge("runtime/tasks").set(static_cast<std::int64_t>(r.tasks));
    for (std::uint32_t w = 0; w < cores; ++w) {
      const std::string core = "runtime/core" + std::to_string(w);
      reg.gauge(core + "/busy_ps").set(core_busy_[w]);
      reg.gauge(core + "/idle_ps").set(r.makespan - core_busy_[w]);
    }
  }
  // Final timeline row at the makespan, after the end-of-run gauges above so
  // it captures the settled state.
  if (config_.timeline != nullptr) config_.timeline->finish(r.makespan);
  if (config_.trace != nullptr) config_.trace->set_makespan(r.makespan);
  return r;
}

void Driver::handle(Simulation& sim, const Event& ev) {
  const auto a = static_cast<std::uint32_t>(ev.a);
  const auto id = static_cast<TaskId>(ev.b);
  switch (ev.op) {
    case kMasterStep:
      // A step superseded by an earlier wake-up leaves its event queued; it
      // arrives as a spurious step, which master_step tolerates.
      if (ev.t == ports_[a].wake_at) ports_[a].wake_pending = false;
      master_step(sim, a);
      break;
    case kTaskDone:
      on_task_done(sim, a, id);
      break;
    case kWorkerFree:
      free_workers_.push_back(a);
      try_dispatch(sim);
      break;
    case kDispatchArrived:
      begin_task(sim, a, id, sim.now(), sim.now());
      break;
    case kNotifyArrived:
      on_notify(sim, a, id);
      break;
    default:
      NEXUS_ASSERT_MSG(false, "unknown driver op");
  }
}

void Driver::master_step(Simulation& sim, std::uint32_t p) {
  Port& port = ports_[p];
  if (port.blocked) return;
  if (sim.now() < port.busy_until) {
    wake(sim, p, port.busy_until);
    return;
  }
  // Process consecutive trace events inline while they complete instantly;
  // this collapses millions of zero-cost submissions (ideal manager) into a
  // single event.
  while (true) {
    // The next event comes from the eligible stream whose head arrives
    // first (ties to the lower stream).
    const std::uint32_t pick = port.tree[1];
    const Tick at = port.due[pick];
    if (at == kIneligible) {
      // Idle or done; a master that ends after the drain ends the run.
      if (outstanding_ == 0 && events_left_ == 0) last_activity_ = sim.now();
      return;
    }
    if (at > sim.now()) {
      // Open loop: the arrival process, not manager admission speed,
      // paces this submit. Wake up again at the release time.
      wake(sim, p, at);
      return;
    }
    Feed& f = feeds_[port.feeds[pick]];
    const TraceEvent& ev = f.s.trace->events()[f.next];
    switch (ev.op()) {
      case TraceOp::kSubmit:
        if (!submit(sim, p, f, ev.task())) return;
        break;
      case TraceOp::kTaskwait:
        if (f.outstanding > 0) f.wait = Wait::kBarrier;  // resumed by on_notify
        advance(f);
        break;
      case TraceOp::kTaskwaitOn: {
        Tick query = 0;
        if (!manager_.supports_taskwait_on()) {
          // Fallback used for Nexus++ (Section III): treat as full barrier.
          if (f.outstanding > 0) f.wait = Wait::kBarrier;
        } else if (const auto it = f.last_writer.find(ev.addr());
                   it != f.last_writer.end() && !finished_[it->second]) {
          f.wait = Wait::kTask;  // resumed by on_notify
          f.wait_task = it->second;
        } else {
          query = manager_.taskwait_on_query_cost();
        }
        advance(f);
        if (query > 0) {
          busy(sim, p, sim.now() + query);
          return;
        }
        break;
      }
    }
  }
}

bool Driver::submit(Simulation& sim, std::uint32_t p, Feed& f, TaskId local) {
  const TaskDescriptor& task = descriptor(f, local);
  const TaskId id = task.id;
  // Recorded before the submit so a pool-blocked retry keeps the first
  // attempt (the wait belongs to the span).
  if (config_.trace != nullptr) config_.trace->on_submit(id, sim.now());
  if (config_.metrics != nullptr && submit_t_[id] < 0) {
    submit_t_[id] = sim.now();
    telemetry::inc(m_offered_);
  }
  const Tick resume = manager_.submit(sim, task);
  if (resume == kSubmitNacked) {
    // Per-tenant backpressure: only this stream holds; the port moves on.
    f.held = true;
    ++f.nack_holds;
    held_.push_back(static_cast<std::uint32_t>(&f - feeds_.data()));
    refresh(f);
    return true;
  }
  if (resume < 0) {
    ports_[p].blocked = true;  // the manager will call master_resume
    return false;
  }
  NEXUS_ASSERT(resume >= sim.now());
  if (config_.trace != nullptr) config_.trace->on_accepted(id, resume);
  telemetry::inc(m_accepted_);
  if (m_admission_wait_ != nullptr && f.s.release != nullptr)
    telemetry::record(m_admission_wait_,
                      static_cast<std::uint64_t>(sim.now() - (*f.s.release)[local]));
  advance(f);
  ++f.outstanding;
  ++outstanding_;
  if (f.track_writers) {
    for (const Param& prm : f.s.trace->task(local).params)
      if (is_write(prm.dir)) f.last_writer[prm.addr] = id;
  }
  if (resume > sim.now()) {
    busy(sim, p, resume);
    return false;
  }
  return true;  // zero-cost: continue inline
}

void Driver::busy(Simulation& sim, std::uint32_t p, Tick until) {
  ports_[p].busy_until = until;
  wake(sim, p, until);
}

void Driver::wake(Simulation& sim, std::uint32_t p, Tick at) {
  Port& port = ports_[p];
  // A queued later wake-up (say, for a far release) must not swallow an
  // earlier one (a NACK-held stream resumed and submitted meanwhile).
  if (port.wake_pending && port.wake_at <= at) return;
  port.wake_pending = true;
  port.wake_at = at;
  sim.schedule(at, self_, kMasterStep, p);
}

void Driver::refresh(const Feed& f) {
  Tick due = kIneligible;
  if (!f.held && f.wait == Wait::kNone && f.next < f.s.trace->events().size()) {
    // A taskwait head, and every head of a closed-loop stream, is due now.
    const TraceEvent& ev = f.s.trace->events()[f.next];
    due = f.s.release != nullptr && ev.op() == TraceOp::kSubmit ? (*f.s.release)[ev.task()]
                                                               : 0;
  }
  ports_[f.s.port].set(f.slot, due);
}

void Driver::Port::build() {
  const auto n = static_cast<std::uint32_t>(feeds.size());
  leaves = std::bit_ceil(std::max(n, 1u));
  due.assign(n + 1, kIneligible);
  tree.assign(2 * leaves, n);
  for (std::uint32_t s = 0; s < n; ++s) tree[leaves + s] = s;
}

void Driver::Port::set(std::uint32_t s, Tick t) {
  due[s] = t;
  for (std::uint32_t i = (leaves + s) / 2; i > 0; i /= 2) {
    const std::uint32_t l = tree[2 * i];
    const std::uint32_t r = tree[2 * i + 1];
    tree[i] = due[r] < due[l] ? r : l;
  }
}

void Driver::advance(Feed& f) {
  ++f.next;
  --events_left_;
  refresh(f);
}

Driver::Feed& Driver::feed_of(TaskId id) {
  const auto it = std::upper_bound(bases_.begin(), bases_.end(), id);
  return feeds_[static_cast<std::size_t>(it - bases_.begin()) - 1];
}

const TaskDescriptor& Driver::descriptor(Feed& f, TaskId local) {
  const TaskDescriptor& own = f.s.trace->task(local);
  if (f.base == 0 && f.s.tenant == 0 && f.s.addr_offset == 0) return own;
  if (f.placed.id == f.base + local) return f.placed;  // a retried submit
  f.placed = own;
  f.placed.id = f.base + local;
  f.placed.tenant = f.s.tenant;
  for (Param& prm : f.placed.params) prm = {(prm.addr + f.s.addr_offset) & kAddrMask, prm.dir};
  return f.placed;
}

void Driver::task_ready(Simulation& sim, TaskId id) {
  NEXUS_DCHECK(id < finished_.size());
  ready_queue_.push(id);
  telemetry::record(m_ready_depth_, ready_queue_.size());
  if (config_.metrics != nullptr) ready_t_[id] = sim.now();
  if (config_.trace != nullptr) {
    config_.trace->on_ready(id, sim.now());
    config_.trace->counter("runtime/ready_q", sim.now(),
                           static_cast<std::int64_t>(ready_queue_.size()));
  }
  try_dispatch(sim);
}

void Driver::master_resume(Simulation& sim) {
  // The manager freed structure space. Every hold clears and each port that
  // had one retries, in port order: the first retry wins the space, later
  // ones re-block inside submit. A NACK hold marks its port for the retry.
  for (const std::uint32_t i : held_) {
    Feed& f = feeds_[i];
    ports_[f.s.port].blocked = true;
    f.held = false;
    refresh(f);
  }
  held_.clear();
  for (std::uint32_t p = 0; p < ports_.size(); ++p) {
    if (!ports_[p].blocked) continue;
    ports_[p].blocked = false;
    master_step(sim, p);
  }
}

void Driver::try_dispatch(Simulation& sim) {
  telemetry::ProfScope prof_scope(prof_, prof_dispatch_);
  while (!free_workers_.empty() && !ready_queue_.empty()) {
    const TaskId id = ready_queue_.pop();
    const std::uint32_t w = free_workers_.back();
    free_workers_.pop_back();
    // dispatch_time models the scheduler critical section (software) or the
    // ready-queue fetch (hardware); the worker is reserved from now.
    const Tick start = manager_.dispatch_time(sim);
    NEXUS_ASSERT(start >= sim.now());
    telemetry::inc(m_dispatches_);
    if (config_.metrics != nullptr && ready_t_[id] >= 0)
      telemetry::record(m_queue_wait_,
                        static_cast<std::uint64_t>(sim.now() - ready_t_[id]));
    if (config_.trace != nullptr) {
      config_.trace->on_dispatch(id, sim.now(),
                                 static_cast<std::int32_t>(w));
      config_.trace->counter("runtime/ready_q", sim.now(),
                             static_cast<std::int64_t>(ready_queue_.size()));
    }
    if (host_net_ != nullptr) {
      // The dispatch record additionally crosses the host NoC from the
      // manager tile to the claimed core (task id + function pointer, one
      // parameter-sized payload); execution starts on arrival.
      host_net_->send(sim, start, 0, 1 + w, self_, kDispatchArrived, w, id,
                      noc::kParamBytes);
      continue;
    }
    begin_task(sim, w, id, sim.now(), start);
  }
}

void Driver::begin_task(Simulation& sim, std::uint32_t worker, TaskId id,
                        Tick from, Tick start) {
  const Feed& f = feed_of(id);
  const Tick end = start + f.s.trace->task(id - f.base).duration;
  core_busy_[worker] += end - from;
  if (config_.schedule_out != nullptr)
    config_.schedule_out->push_back(ScheduleEntry{id, worker, start, end});
  if (config_.trace != nullptr) config_.trace->on_exec(id, start, end);
  sim.schedule(end, self_, kTaskDone, worker, id);
}

void Driver::on_task_done(Simulation& sim, std::uint32_t worker, TaskId id) {
  last_activity_ = sim.now();
  feed_of(id).last_completion = sim.now();
  if (host_net_ != nullptr) {
    // The finish notification crosses the host NoC back to the manager
    // tile; the worker stays reserved until the manager accepts it.
    host_net_->send(sim, sim.now(), 1 + worker, 0, self_, kNotifyArrived,
                    worker, id);
    return;
  }
  on_notify(sim, worker, id);
}

void Driver::on_notify(Simulation& sim, std::uint32_t worker, TaskId id) {
  telemetry::ProfScope prof_scope(prof_, prof_notify_);
  NEXUS_ASSERT(!finished_[id]);
  finished_[id] = true;
  ++finished_count_;
  Feed& f = feed_of(id);
  NEXUS_ASSERT(f.outstanding > 0 && outstanding_ > 0);
  --f.outstanding;
  --outstanding_;

  // The completion path (software: completion critical section on this
  // worker; hardware: finish notification write) holds the worker until
  // `free_at`.
  const Tick free_at = manager_.notify_finished(sim, id);
  NEXUS_ASSERT(free_at >= sim.now());
  if (config_.trace != nullptr) config_.trace->on_freed(id, free_at);
  if (config_.metrics != nullptr && submit_t_[id] >= 0)
    telemetry::record(m_sojourn_,
                      static_cast<std::uint64_t>(sim.now() - submit_t_[id]));
  if (f.s.release != nullptr) {
    // Serving latency counts from the *arrival*, not the (possibly
    // backlogged) submit attempt — the open-loop tail the knee search gates.
    const TaskId local = id - f.base;
    const Tick lat = sim.now() - (*f.s.release)[local];
    telemetry::record(m_serving_, static_cast<std::uint64_t>(lat));
    if (!m_client_sojourn_.empty())
      m_client_sojourn_[config_.open_loop->client[local]]->record(
          static_cast<std::uint64_t>(lat));
    if (f.s.latency_out != nullptr) f.s.latency_out->push_back(lat);
  }
  if (free_at == sim.now()) {
    free_workers_.push_back(worker);
    try_dispatch(sim);
  } else {
    sim.schedule(free_at, self_, kWorkerFree, worker);
  }

  // master_step is safe against spurious wake-ups (a port with nothing
  // eligible returns), so resuming a stream just clears its wait and steps.
  if (f.wait == Wait::kBarrier && f.outstanding == 0) {
    f.wait = Wait::kNone;
    refresh(f);
    master_step(sim, f.s.port);
  } else if (f.wait == Wait::kTask && finished_[f.wait_task]) {
    f.wait = Wait::kNone;
    f.wait_task = kInvalidTask;
    refresh(f);
    const Tick query = manager_.taskwait_on_query_cost();
    if (query > 0) {
      busy(sim, f.s.port, sim.now() + query);
    } else {
      master_step(sim, f.s.port);
    }
  }
}

}  // namespace detail
}  // namespace nexus
