// Cycle-level model of Nexus++, the centralized baseline task manager
// (Section III, Fig. 1).
//
// Pipeline (4-parameter example from the paper, cycle counts asserted in
// tests): Input Parser 4+2p = 12 cycles, Insert 2+4p = 18 cycles,
// Write-Back 3 cycles; a second pipeline handles finished tasks and shares
// the single task-graph table with the insert stage. The Insert stage only
// starts once the whole task has been received — the serialization Nexus#
// removes. `taskwait on` is NOT supported (the paper's reason Nexus++
// cannot speed up h264dec); the driver falls back to a full barrier.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "nexus/common/fixed_ring.hpp"
#include "nexus/hw/dep_counts_table.hpp"
#include "nexus/hw/task_graph_table.hpp"
#include "nexus/hw/task_pool.hpp"
#include "nexus/noc/network.hpp"
#include "nexus/runtime/manager.hpp"
#include "nexus/sim/server.hpp"

namespace nexus {

struct NexusPPConfig {
  double freq_mhz = 100.0;  ///< the paper's test frequency (Table I)
  hw::TableConfig table{};
  /// In-flight task window. The paper does not publish the pool size; 1024
  /// matches the per-TG table capacity (256 sets x 4 ways) and is large
  /// enough that the lookahead window is not the binding constraint on the
  /// paper's workloads (docs/BENCHMARKS.md, "Task Pool window").
  std::size_t pool_capacity = 1024;

  // Fig. 1 pipeline cycle counts.
  std::int64_t header_cycles = 4;     ///< header word + synchronization
  std::int64_t recv_per_param = 2;    ///< 48-bit address = two 32-bit packets
  std::int64_t insert_base = 2;
  std::int64_t insert_per_param = 4;  ///< 18 cycles at 4 params
  std::int64_t writeback_cycles = 3;
  std::int64_t fifo_latency = 3;      ///< inter-stage FIFO visibility delay

  // Finished-task pipeline.
  std::int64_t finish_receive = 2;
  std::int64_t finish_per_param = 4;
  std::int64_t kick_cycles = 2;       ///< per kicked-off waiter update
  std::int64_t chain_hop_cycles = 2;  ///< per dummy-entry hop

  /// Interconnect between the host IO port (node 0) and the single manager
  /// tile (node 1) — the degenerate all-roads-to-one-node case of the
  /// distributed model. The default (ideal at `fifo_latency`) is
  /// bit-identical to the pre-NoC pipeline; ring/mesh serialize every
  /// submission, finish and write-back over the one link pair.
  noc::NocConfig noc{};
};

/// Nexus++ NoC placement (see NexusPPConfig::noc).
constexpr noc::NodeId npp_io_node() { return 0; }
constexpr noc::NodeId npp_manager_node() { return 1; }
constexpr std::uint32_t npp_noc_endpoints() { return 2; }

class NexusPP final : public TaskManagerModel, public Component {
 public:
  explicit NexusPP(const NexusPPConfig& cfg = {});

  // TaskManagerModel
  /// Registers the block and picks up the simulation's observers: pool,
  /// table, dep-counts and NoC metrics under "nexus++/";
  /// dependency-resolution stamps and edges, table port occupancy spans,
  /// pool/dep-count depth counters and NoC flow events on the trace.
  void attach(Simulation& sim, RuntimeHost* host) override;
  Tick submit(Simulation& sim, const TaskDescriptor& task) override;
  Tick notify_finished(Simulation& sim, TaskId id) override;
  [[nodiscard]] bool supports_taskwait_on() const override { return false; }
  [[nodiscard]] const char* name() const override { return "nexus++"; }

  // Component
  void handle(Simulation& sim, const Event& ev) override;
  [[nodiscard]] const char* telemetry_label() const override { return "npp"; }
  [[nodiscard]] const char* op_label(std::uint32_t op) const override {
    return op_label_in<kOpCount>(kOpNames, op);
  }

  /// The host<->manager interconnect (see NexusPPConfig::noc).
  [[nodiscard]] const noc::Network& network() const { return *net_; }

 private:
  enum Op : std::uint32_t {
    kInsertArrived = 0,  ///< a = task id
    kFinishArrived = 1,  ///< a = task id
    kPump = 2,
    kReadyDelivered = 3,  ///< a = task id
    kWbArrived = 4,  ///< a = task id: ready record crossed the NoC to the WB
    kOpCount
  };
  static constexpr const char* kOpNames[] = {
      "insert_arrived", "finish_arrived", "pump", "ready_delivered",
      "wb_arrived"};

  struct InsertJob {
    TaskId id = kInvalidTask;
    std::size_t next_param = 0;
    std::uint32_t deps = 0;
    Tick started = 0;  ///< table-port acquisition time (trace unit spans)
  };

  [[nodiscard]] Tick cycles(std::int64_t n) const { return clk_.cycles(n); }
  void pump(Simulation& sim);
  /// Continue the active insert; returns true if it completed.
  bool continue_insert(Simulation& sim);
  void process_finish(Simulation& sim, TaskId id);
  void deliver_ready(Simulation& sim, Tick not_before, TaskId id);

  NexusPPConfig cfg_;
  ClockDomain clk_;
  RuntimeHost* host_ = nullptr;
  std::uint32_t self_ = 0;
  std::unique_ptr<noc::Network> net_;

  Server io_;  ///< host interface: submissions and finish notifications
  Server wb_;  ///< write-back stage
  BusyPort port_{kPump};  ///< single-ported task-graph table

  hw::TaskPool pool_;
  hw::TaskGraphTable table_;
  hw::DepCountsTable depcounts_;

  FixedRing<TaskId> insert_queue_;
  FixedRing<TaskId> finish_queue_;
  std::optional<InsertJob> active_insert_;
  bool master_blocked_ = false;

  std::vector<hw::Waiter> kicked_scratch_;

  telemetry::Counter* m_tasks_in_ = nullptr;
  telemetry::Counter* m_ready_out_ = nullptr;
  telemetry::TraceRecorder* trace_ = nullptr;
};

}  // namespace nexus
