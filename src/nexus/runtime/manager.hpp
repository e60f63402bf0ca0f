// The task-manager plug-in interface.
//
// The trace-driven host simulation (Section V-B of the paper) replays a
// benchmark trace against one of four dependency-resolution back-ends:
//
//   IdealManager   — "No Overhead": readiness is instantaneous (lower bound)
//   NanosModel     — calibrated software-runtime cost model (the baseline)
//   NexusPP        — cycle-level model of the centralized Nexus++ design
//   NexusSharp     — cycle-level model of the distributed Nexus# design
//
// A manager receives submissions and finish notifications from the host and
// delivers ready tasks back through the RuntimeHost callback at the
// simulated time its own pipeline completes the write-back.
#pragma once

#include "nexus/sim/simulation.hpp"
#include "nexus/task/task.hpp"
#include "nexus/telemetry/fwd.hpp"

namespace nexus {

/// Sentinel returned by TaskManagerModel::submit when the manager cannot
/// accept the task yet (e.g. hardware task pool full). The master blocks;
/// the manager must call RuntimeHost::master_resume once space frees, after
/// which the driver retries the same submission.
constexpr Tick kSubmitBlocked = -1;

/// Sentinel returned by TaskManagerModel::submit when the submitting
/// *tenant* is over its admission quota while the shared structures still
/// have room (multi-tenant managers only). Unlike kSubmitBlocked this is
/// backpressure on one tenant: the driver holds only that tenant's stream
/// and keeps submitting for others (on a single-stream port that amounts
/// to a block); the manager still calls master_resume when occupancy drops.
constexpr Tick kSubmitNacked = -2;

/// Callbacks from the manager into the host simulation.
class RuntimeHost {
 public:
  virtual ~RuntimeHost() = default;

  /// A task's write-back completed: the RTS can now see it as ready.
  virtual void task_ready(Simulation& sim, TaskId id) = 0;

  /// Space freed after a kSubmitBlocked; the master will retry.
  virtual void master_resume(Simulation& sim) = 0;
};

class TaskManagerModel {
 public:
  virtual ~TaskManagerModel() = default;

  /// Wire the manager into the simulation (register components, reset
  /// state). Called exactly once per run, before any submit.
  virtual void attach(Simulation& sim, RuntimeHost* host) = 0;

  /// Master submits a task at sim.now(). Returns the time at which the
  /// master may continue (submission occupancy / IO backpressure), or
  /// kSubmitBlocked if the manager is full.
  virtual Tick submit(Simulation& sim, const TaskDescriptor& task) = 0;

  /// A worker completed `id` at sim.now(). Returns the time at which that
  /// worker becomes free again (software runtimes run completion sections
  /// on the worker; hardware managers release it immediately).
  virtual Tick notify_finished(Simulation& sim, TaskId id) = 0;

  /// A worker picks up a ready task at sim.now(). Returns the time at which
  /// execution may begin (software scheduler critical section; hardware
  /// ready-queue fetch).
  virtual Tick dispatch_time(Simulation& sim) { return sim.now(); }

  /// Whether the `taskwait on` pragma is accelerated. Nexus++ is not
  /// (Section III): the driver falls back to a full taskwait for managers
  /// returning false, reproducing the paper's h264dec behaviour.
  [[nodiscard]] virtual bool supports_taskwait_on() const { return true; }

  /// Extra latency for a supported taskwait_on query round trip.
  [[nodiscard]] virtual Tick taskwait_on_query_cost() const { return 0; }

  /// Register the manager's internal metrics (queue depths, arbitration
  /// counts, table fill, ...) with `reg`. Called once, before attach, when
  /// the run collects telemetry; managers without internals keep the no-op.
  virtual void bind_telemetry(telemetry::MetricRegistry& reg) { (void)reg; }

  /// Attach a lifecycle trace recorder (see telemetry/trace.hpp). Called
  /// once, before attach, when the run traces. Managers fill the
  /// `resolved` span boundary and the dependency-kick edges; the driver
  /// owns every other boundary. The no-op default keeps untraced managers
  /// untraced.
  virtual void bind_trace(telemetry::TraceRecorder* trace) { (void)trace; }

  /// Attach the host-side self-profiler bound to `sim` (see
  /// telemetry/profiler.hpp). Called once, *after* attach and after
  /// Simulation::bind_profiler, when the run profiles — component handle()
  /// time is already attributed by the kernel; managers that own internal
  /// networks forward this so their message kinds get per-op send nodes.
  virtual void bind_profiler(Simulation& sim) { (void)sim; }

  [[nodiscard]] virtual const char* name() const = 0;
};

}  // namespace nexus
