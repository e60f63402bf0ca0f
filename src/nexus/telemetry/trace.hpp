// Causal task-lifecycle tracing.
//
// A TraceRecorder, when attached through RuntimeConfig::trace (or a
// Simulation's telemetry::Observers), collects one span chain per task
// (submit -> accepted -> resolved -> ready -> dispatch -> exec -> freed)
// plus the causal edges that explain the gaps: dependency-release kicks,
// NoC message flights with per-link flit timing, manager unit service
// spans, and occupancy counter samples.
// Like the metric primitives, every hook site holds a *pointer* that stays
// null until a recorder is bound, so an untraced run pays one predictable
// branch and produces bit-identical schedules (a tested contract).
//
// The frozen TraceData feeds two consumers: chrome_trace_json (Perfetto /
// chrome://tracing export, trace_export.hpp) and critical_path (makespan
// attribution, critical_path.hpp).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "nexus/telemetry/fwd.hpp"

namespace nexus::telemetry {

inline constexpr TraceTick kTraceUnset = -1;

/// One task's lifecycle boundaries, all in sim time (ps). Monotone
/// non-decreasing in declaration order once the run completes:
///   submit    master issued the submit (first attempt if back-pressured)
///   accepted  manager committed the descriptor (pool insert done)
///   resolved  last dependence satisfied inside the manager
///   ready     host ready-queue push (writeback delivered)
///   dispatch  worker claimed
///   exec_start / exec_end   execution interval on the worker
///   freed     worker released after completion bookkeeping
struct TaskSpan {
  std::uint64_t task = 0;
  std::int32_t worker = -1;
  TraceTick submit = kTraceUnset;
  TraceTick accepted = kTraceUnset;
  TraceTick resolved = kTraceUnset;
  TraceTick ready = kTraceUnset;
  TraceTick dispatch = kTraceUnset;
  TraceTick exec_start = kTraceUnset;
  TraceTick exec_end = kTraceUnset;
  TraceTick freed = kTraceUnset;

  [[nodiscard]] bool complete() const {
    return submit >= 0 && accepted >= 0 && resolved >= 0 && ready >= 0 &&
           dispatch >= 0 && exec_start >= 0 && exec_end >= 0;
  }
  [[nodiscard]] TraceTick sojourn() const { return exec_end - submit; }
};

/// The six telescoping phases of a span; they sum to sojourn() exactly.
struct TaskPhases {
  TraceTick ingest = 0;      ///< submit -> accepted (pool commit)
  TraceTick dep_wait = 0;    ///< accepted -> resolved (graph wait)
  TraceTick writeback = 0;   ///< resolved -> ready (arbitration + WB transit)
  TraceTick queue_wait = 0;  ///< ready -> dispatch (host queue)
  TraceTick dispatch = 0;    ///< dispatch -> exec_start (dispatch transit)
  TraceTick execute = 0;     ///< exec_start -> exec_end
};

[[nodiscard]] inline TaskPhases phases_of(const TaskSpan& s) {
  TaskPhases p;
  p.ingest = s.accepted - s.submit;
  p.dep_wait = s.resolved - s.accepted;
  p.writeback = s.ready - s.resolved;
  p.queue_wait = s.dispatch - s.ready;
  p.dispatch = s.exec_start - s.dispatch;
  p.execute = s.exec_end - s.exec_start;
  return p;
}

/// Dependency-release kick: `producer`'s finish satisfied one of
/// `consumer`'s inputs at time `t`. A task's *binding* producer is the
/// edge with the latest t.
struct DepEdge {
  std::uint64_t producer = 0;
  std::uint64_t consumer = 0;
  TraceTick t = 0;
};

/// One NoC message flight. `net`/`op` index TraceData::strings; `arrive`
/// stays kTraceUnset for messages still in flight when the run ended.
struct NocMessage {
  std::uint32_t net = 0;
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint32_t op = 0;
  std::uint32_t flits = 1;
  TraceTick depart = 0;
  TraceTick arrive = kTraceUnset;
};

/// A message occupying one link for its serialization window.
struct LinkSpan {
  std::uint32_t msg = 0;   ///< index into TraceData::messages
  std::uint32_t link = 0;  ///< label, indexes TraceData::strings
  TraceTick start = 0;
  TraceTick dur = 0;
};

/// A manager unit (TGU, arbiter, ...) serving one grant/request.
struct UnitSpan {
  std::uint32_t unit = 0;  ///< track label, indexes TraceData::strings
  std::uint32_t what = 0;  ///< op label, indexes TraceData::strings
  std::uint64_t task = 0;
  TraceTick start = 0;
  TraceTick dur = 0;
};

/// Occupancy sample on a named counter track (pool size, dep-table size,
/// ready-queue depth), recorded at each mutation.
struct CounterSample {
  std::uint32_t track = 0;  ///< indexes TraceData::strings
  TraceTick t = 0;
  std::int64_t v = 0;
};

/// Frozen trace: plain data, safe to keep after the run is gone.
struct TraceData {
  std::vector<TaskSpan> tasks;  ///< sorted by task id
  std::vector<DepEdge> deps;
  std::vector<NocMessage> messages;
  std::vector<LinkSpan> link_spans;
  std::vector<UnitSpan> unit_spans;
  std::vector<CounterSample> counters;
  std::vector<std::string> strings;  ///< interned labels
  TraceTick makespan = 0;

  [[nodiscard]] const TaskSpan* find(std::uint64_t task) const;
  [[nodiscard]] const std::string& str(std::uint32_t i) const {
    return strings[i];
  }
  /// Flits of messages actually delivered, per network label — the
  /// conservation ledger cross-checked against the noc `flits` counter.
  [[nodiscard]] std::uint64_t delivered_flits(std::string_view net) const;
};

/// Accumulates spans and causal edges during a run. All hooks are cheap
/// appends; nothing here schedules events or reads the registry, so an
/// attached recorder cannot perturb the simulation.
class TraceRecorder {
 public:
  TraceRecorder() = default;
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  // --- task lifecycle ---
  /// First attempt wins: a pool-back-pressured master re-submits the same
  /// task, and the wait belongs to the span.
  void on_submit(std::uint64_t task, TraceTick t);
  void on_accepted(std::uint64_t task, TraceTick t);
  void on_resolved(std::uint64_t task, TraceTick t);
  void on_ready(std::uint64_t task, TraceTick t);
  void on_dispatch(std::uint64_t task, TraceTick t, std::int32_t worker);
  void on_exec(std::uint64_t task, TraceTick start, TraceTick end);
  void on_freed(std::uint64_t task, TraceTick t);
  void on_dep(std::uint64_t producer, std::uint64_t consumer, TraceTick t);

  // --- NoC ---
  /// Begin a message flight; the returned handle threads through
  /// noc_link/noc_deliver.
  std::uint32_t noc_send(std::string_view net, std::uint32_t src,
                         std::uint32_t dst, std::string_view op,
                         std::uint32_t flits, TraceTick depart);
  void noc_link(std::uint32_t msg, std::string_view link, TraceTick start,
                TraceTick dur);
  void noc_deliver(std::uint32_t msg, TraceTick arrive);

  // --- manager units and occupancy ---
  void unit_span(std::string_view unit, std::string_view what,
                 std::uint64_t task, TraceTick start, TraceTick dur);
  void counter(std::string_view track, TraceTick t, std::int64_t v);

  void set_makespan(TraceTick t) { makespan_ = t; }

  [[nodiscard]] std::size_t num_tasks() const { return tasks_.size(); }

  /// Freeze into plain data (tasks sorted by id).
  [[nodiscard]] TraceData freeze() const;

 private:
  TaskSpan& span(std::uint64_t task);
  std::uint32_t intern(std::string_view s);

  std::vector<TaskSpan> tasks_;
  std::unordered_map<std::uint64_t, std::uint32_t> task_ix_;
  std::vector<DepEdge> deps_;
  std::vector<NocMessage> messages_;
  std::vector<LinkSpan> link_spans_;
  std::vector<UnitSpan> unit_spans_;
  std::vector<CounterSample> counters_;
  std::vector<std::string> strings_;
  std::map<std::string, std::uint32_t, std::less<>> string_ix_;
  TraceTick makespan_ = 0;
};

}  // namespace nexus::telemetry
