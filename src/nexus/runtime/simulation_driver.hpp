// Trace-driven host-machine simulation (the paper's testbench, Section V-B):
// "It submits new tasks to Nexus#, receives ready task information from it,
// schedules ready tasks to worker cores and simulates their execution, and
// finally notifies Nexus# of finished tasks."
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "nexus/common/fixed_ring.hpp"
#include "nexus/noc/network.hpp"
#include "nexus/runtime/manager.hpp"
#include "nexus/sim/simulation.hpp"
#include "nexus/task/trace.hpp"
#include "nexus/telemetry/fwd.hpp"

namespace nexus {

/// One executed task interval, for schedule validation and visualization.
struct ScheduleEntry {
  TaskId task = kInvalidTask;
  std::uint32_t worker = 0;
  Tick start = 0;
  Tick end = 0;
};

/// Open-loop (serving) submission: instead of replaying the trace as fast
/// as the manager admits it, the master holds each submit event back until
/// the task's release (arrival) time. Tasks model requests from independent
/// logical clients; the vectors are indexed by dense task id.
///
/// The trace's event order is still the submission order, so release times
/// are expected to be non-decreasing along the submit stream (the arrival
/// generators emit them sorted); a manager that back-pressures (pool full)
/// delays later arrivals behind the blocked one, which is exactly the
/// admission backlog the serving metrics measure.
struct OpenLoopSubmission {
  /// Arrival time of each task (picoseconds); size must equal the trace's
  /// task count.
  std::vector<Tick> release;
  /// Logical client of each task; empty disables per-client histograms.
  std::vector<std::uint32_t> client;
  /// Number of logical clients (client[i] < clients).
  std::uint32_t clients = 0;

  friend bool operator==(const OpenLoopSubmission&,
                         const OpenLoopSubmission&) = default;
};

struct RuntimeConfig {
  std::uint32_t workers = 1;

  /// If nonnull, the run is open-loop: each submit event waits for its
  /// task's release time (see OpenLoopSubmission). With metrics bound the
  /// driver additionally records offered/accepted counters, the
  /// serving-latency histogram (release -> finish) and per-client
  /// histograms. Null keeps the closed-loop replay bit-identical.
  const OpenLoopSubmission* open_loop = nullptr;

  /// Host-side interconnect between the manager/master tile (node 0) and
  /// the worker cores (core w at node 1+w). The default ideal topology is
  /// the pre-NoC behaviour, bit-identical: dispatch and finish notification
  /// stay synchronous. On ring/mesh, every ready-task dispatch traverses
  /// manager -> core and every finish notification core -> manager over a
  /// `noc::Network` (clocked at 100 MHz), so
  /// core placement distance and link contention become visible.
  noc::NocConfig noc{};

  /// If nonnull, every executed task interval is appended (tests validate
  /// that no dependency or hazard is violated by a manager's schedule).
  std::vector<ScheduleEntry>* schedule_out = nullptr;

  /// If nonnull, the run binds manager + DES kernel instrumentation to this
  /// registry and fills runtime metrics (per-core busy/idle ticks, ready
  /// queue depth, makespan) at the end. Null keeps every hot path a no-op.
  telemetry::MetricRegistry* metrics = nullptr;

  /// If nonnull (requires `metrics`), the recorder samples the registry on
  /// its sim-time grid while the run executes and takes one final row at the
  /// makespan. Sampling is read-only: it cannot change the schedule or the
  /// makespan (tested contract).
  telemetry::TimelineRecorder* timeline = nullptr;

  /// If nonnull, the run records one lifecycle span chain per task plus
  /// causal dependency/NoC edges into this recorder (telemetry/trace.hpp).
  /// Recording is append-only and cannot perturb the schedule: a traced
  /// run is bit-identical to an untraced one (tested contract).
  telemetry::TraceRecorder* trace = nullptr;

  /// If nonnull, the run attributes its own host wall-clock time into this
  /// profiler under `profile_parent` (see telemetry/profiler.hpp): the DES
  /// queue ops, per-component-type handle() time, NoC send() per message
  /// kind, and the driver's dispatch/notify paths. Null keeps every hook a
  /// single branch and the schedule bit-identical (tested contract).
  telemetry::Profiler* profiler = nullptr;
  /// Profile node the run's instrumentation nests under (e.g. a per-run
  /// node the harness created); Profiler::kRoot when unset.
  std::uint32_t profile_parent = 0;
};

struct RunResult {
  Tick makespan = 0;
  Tick total_work = 0;
  std::uint64_t tasks = 0;
  std::uint64_t events = 0;       ///< DES events processed
  double utilization = 0.0;       ///< worker busy time / (makespan * workers)
  std::string manager;

  /// Speedup relative to a given single-core baseline time.
  [[nodiscard]] double speedup_vs(Tick baseline) const {
    return makespan > 0 ? static_cast<double>(baseline) / static_cast<double>(makespan)
                        : 0.0;
  }
};

/// Run `trace` on `workers` cores with the given task manager model.
/// Deterministic: identical inputs give identical results.
RunResult run_trace(const Trace& trace, TaskManagerModel& manager,
                    const RuntimeConfig& config);

namespace detail {

/// One submission stream: a task sequence a master replays into the shared
/// manager (a whole trace, one co-running application, or one tenant's
/// arrivals). Streams get dense global task ids in order, and a stream's
/// taskwait / taskwait_on pragmas wait on its own tasks only.
struct Stream {
  const Trace* trace = nullptr;
  /// Arrival time per local task (open loop); null submits as fast as the
  /// manager admits.
  const std::vector<Tick>* release = nullptr;
  /// Stamped into the submitted descriptors (TaskDescriptor::tenant).
  std::uint16_t tenant = 0;
  /// Added to every parameter address: the stream's disjoint window of the
  /// 48-bit space.
  Addr addr_offset = 0;
  /// The port (master thread) submitting this stream, numbered from 0.
  std::uint32_t port = 0;
  /// If nonnull, receives each task's release -> finish latency in
  /// completion order (requires `release`).
  std::vector<Tick>* latency_out = nullptr;
};

/// The DES component implementing the masters, the dispatcher and the
/// workers. Each port submits one task at a time from its eligible streams,
/// earliest release first with ties to the lower stream; a task has arrived
/// once now() reaches its release, and an idle port sleeps until the next
/// release on one wake-up event. kSubmitBlocked holds the whole port,
/// kSubmitNacked only the offending stream, and the manager's master_resume
/// clears both on every port.
///
/// The pick never reads a stream's trace: each port keeps its streams' head
/// keys (the head's release, 0 for a taskwait head or a closed-loop stream,
/// a sentinel while the stream is held, waiting or drained) under a
/// tournament tree of their minimum, updated only where a stream's head or
/// eligibility changes, so a pick costs O(1) and an update O(log streams).
/// master_resume walks the list of NACK-held streams, not every stream.
class Driver final : public Component, public RuntimeHost {
 public:
  Driver(const std::vector<Stream>& streams, TaskManagerModel& manager,
         const RuntimeConfig& config);

  /// Run until every stream drained, then publish the runtime metrics.
  RunResult run();

  /// Last task completion of stream `s` (0 if it has no tasks).
  [[nodiscard]] Tick completion(std::size_t s) const {
    return feeds_[s].last_completion;
  }
  /// Times stream `s` was held by an admission NACK.
  [[nodiscard]] std::uint64_t nack_holds(std::size_t s) const {
    return feeds_[s].nack_holds;
  }

  // Component
  void handle(Simulation& sim, const Event& ev) override;

  // RuntimeHost
  void task_ready(Simulation& sim, TaskId id) override;
  void master_resume(Simulation& sim) override;

  [[nodiscard]] const char* telemetry_label() const override {
    return "driver";
  }
  [[nodiscard]] const char* op_label(std::uint32_t op) const override {
    return op_label_in<kOpCount>(kOpNames, op);
  }

 private:
  enum Op : std::uint32_t {
    kMasterStep = 0,       ///< a = port
    kTaskDone = 1,         ///< a = worker, b = task
    kWorkerFree = 2,       ///< a = worker
    kDispatchArrived = 3,  ///< a = worker, b = task (host NoC, non-ideal)
    kNotifyArrived = 4,    ///< a = worker, b = task (host NoC, non-ideal)
    kOpCount
  };
  static constexpr const char* kOpNames[] = {
      "master_step", "task_done", "worker_free", "dispatch_arrived",
      "notify_arrived"};

  enum class Wait : std::uint8_t { kNone, kBarrier, kTask };

  /// A stream and its master-side progress.
  struct Feed {
    Stream s;
    TaskId base = 0;            ///< global id of local task 0
    std::uint32_t slot = 0;     ///< index into its port's feeds/due arrays
    std::size_t next = 0;       ///< index into s.trace->events()
    Wait wait = Wait::kNone;    ///< taskwait / taskwait_on in progress
    TaskId wait_task = kInvalidTask;
    bool held = false;          ///< NACK-held until master_resume
    bool track_writers = false; ///< the trace has taskwait_on pragmas
    std::uint64_t outstanding = 0;  ///< submitted but not finished
    std::uint64_t nack_holds = 0;
    Tick last_completion = 0;
    /// Local address -> global id of its last submitted writer, as of
    /// master progress (kept only when track_writers).
    std::unordered_map<Addr, TaskId> last_writer;
    /// The head task moved into the stream's window (id kInvalidTask until
    /// first placed); a retried submit reuses it.
    TaskDescriptor placed;
  };

  /// Due time of a stream that cannot submit now.
  static constexpr Tick kIneligible = std::numeric_limits<Tick>::max();

  /// One master thread: a single in-flight submission at a time.
  struct Port {
    bool blocked = false;       ///< kSubmitBlocked until master_resume
    bool wake_pending = false;  ///< a kMasterStep for it is queued
    Tick wake_at = 0;           ///< the earliest queued kMasterStep's time
    Tick busy_until = 0;        ///< submission occupancy / query round trip
    /// Per stream on this port, in stream order: its index into feeds_,
    /// and its head's due time or kIneligible (one more slot, always
    /// kIneligible, pads the tree's spare leaves).
    std::vector<std::uint32_t> feeds;
    std::vector<Tick> due;
    /// Tournament tree over `due`: node i holds the slot of the minimum of
    /// nodes 2i and 2i+1 (ties to the left, i.e. the lower stream); leaf
    /// slot s is node leaves + s, and node 1 is the pick.
    std::vector<std::uint32_t> tree;
    std::uint32_t leaves = 0;

    /// Size the tree for `feeds` (every stream kIneligible).
    void build();
    /// Set slot s's due time and replay its matches up to the root.
    void set(std::uint32_t s, Tick t);
  };

  void master_step(Simulation& sim, std::uint32_t p);
  bool submit(Simulation& sim, std::uint32_t p, Feed& f, TaskId local);
  void busy(Simulation& sim, std::uint32_t p, Tick until);
  void wake(Simulation& sim, std::uint32_t p, Tick at);
  /// Rewrite f's head key after its head or eligibility changed.
  void refresh(const Feed& f);
  /// Step f past its head trace event.
  void advance(Feed& f);
  Feed& feed_of(TaskId id);
  const TaskDescriptor& descriptor(Feed& f, TaskId local);
  void try_dispatch(Simulation& sim);
  /// Execute `id` on `worker` from `start`; the worker is reserved from
  /// `from` (dispatch) or `start` (host-NoC arrival).
  void begin_task(Simulation& sim, std::uint32_t worker, TaskId id, Tick from,
                  Tick start);
  void on_task_done(Simulation& sim, std::uint32_t worker, TaskId id);
  void on_notify(Simulation& sim, std::uint32_t worker, TaskId id);

  TaskManagerModel& manager_;
  RuntimeConfig config_;
  std::vector<Feed> feeds_;
  std::vector<TaskId> bases_;          ///< feeds_[i].base, for feed_of
  std::vector<std::uint32_t> held_;    ///< NACK-held feeds, in hold order
  std::size_t events_left_ = 0;        ///< trace events no master stepped past
  std::vector<Port> ports_;

  Simulation sim_;
  std::uint32_t self_ = 0;
  /// Host NoC (null under the ideal default, where both directions stay
  /// synchronous — the pre-NoC code path, bit-identical).
  std::unique_ptr<noc::Network> host_net_;

  /// Free workers; the lowest index is on top and claimed first
  /// (deterministic dispatch order).
  std::vector<std::uint32_t> free_workers_;
  std::vector<Tick> core_busy_;  ///< execution time per worker core
  FixedRing<TaskId> ready_queue_;
  std::vector<bool> finished_;
  std::uint64_t outstanding_ = 0;  ///< submitted but not finished
  std::uint64_t finished_count_ = 0;
  /// Last task completion, or a master's last step if it came later with
  /// nothing left in flight.
  Tick last_activity_ = 0;

  telemetry::Profiler* prof_ = nullptr;
  std::uint32_t prof_dispatch_ = 0;  ///< driver-node child: try_dispatch time
  std::uint32_t prof_notify_ = 0;    ///< driver-node child: on_notify time

  telemetry::Histogram* m_ready_depth_ = nullptr;  ///< host ready-queue depth
  telemetry::Counter* m_dispatches_ = nullptr;
  telemetry::Histogram* m_sojourn_ = nullptr;     ///< submit -> finish, per task
  telemetry::Histogram* m_queue_wait_ = nullptr;  ///< ready -> dispatch

  // Open-loop serving metrics (created only when a stream has release
  // times and a registry is bound; see docs/METRICS.md "Serving metrics").
  telemetry::Counter* m_offered_ = nullptr;   ///< tasks at their first submit attempt
  telemetry::Counter* m_accepted_ = nullptr;  ///< arrivals admitted by the manager
  telemetry::Histogram* m_serving_ = nullptr;        ///< release -> finish
  telemetry::Histogram* m_admission_wait_ = nullptr; ///< release -> admission
  std::vector<telemetry::Histogram*> m_client_sojourn_;  ///< per client

  /// Per-task submit/ready times (global ids), kept only when metrics are
  /// bound — they feed the sojourn and queue-wait histograms above.
  std::vector<Tick> submit_t_;
  std::vector<Tick> ready_t_;
};

}  // namespace detail
}  // namespace nexus
