// The Dependence Counts Arbiter (Fig. 2, Section IV-C/D).
//
// Gathers per-task-graph results — ready tasks, waiting-task kicks and
// dependence-count records — and concludes each task's global state. While
// a task's parameters are still in flight across graphs its partial count
// lives in the Sim(-ultaneous) Tasks buffer; concluded nonzero counts park
// in the global Dep Counts Table; ready tasks flow through the Internal
// Ready Tasks buffer to the Write-Back unit. The gather logic tolerates
// arbitrary record reordering across the interconnect: a kReady that beats
// its task's kMeta descriptor parks in the Sim Tasks buffer until the
// descriptor lands (the price of routing kMeta over a real NoC instead of
// a zero-cost side-band).
//
// The arbiter serves one record per grant with the paper's priority
// (Ready > Waiting > DepCounts), which keeps the forwarding path short and
// gives the task graphs time to work (Section IV-D).
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "nexus/common/fixed_ring.hpp"
#include "nexus/common/id_map.hpp"
#include "nexus/hw/dep_counts_table.hpp"
#include "nexus/noc/network.hpp"
#include "nexus/nexussharp/config.hpp"
#include "nexus/runtime/manager.hpp"
#include "nexus/sim/server.hpp"
#include "nexus/sim/simulation.hpp"

namespace nexus::detail {

class SharpArbiter final : public Component {
 public:
  /// `self_node`/`dst_node` place the arbiter on the on-manager NoC and
  /// pick where its write-back records go. The flat single-arbiter
  /// placement is arbiter tile -> IO tile. Clustered mode uses this class
  /// as a *leaf* arbiter — self is the cluster's leaf tile and records go
  /// to the root arbiter tile instead; the attached RuntimeHost is then a
  /// relay that converts task_ready into a cluster-ready report.
  SharpArbiter(const NexusSharpConfig& cfg, noc::Network* net,
               noc::NodeId self_node, noc::NodeId dst_node);

  /// Register with the simulation and pick up its observers: grant,
  /// conflict and queue metrics (and the dep-counts table's) under
  /// `prefix`; resolution stamps at write-back entry, grant occupancy spans
  /// and dep-count depth counters on the trace.
  void attach(Simulation& sim, RuntimeHost* host, std::string_view prefix);

  /// Component id for event addressing (valid after attach).
  [[nodiscard]] std::uint32_t component_id() const { return self_; }

  // --- inputs from the task graphs / input parser (event-scheduled by the
  //     caller at result-buffer visibility time) ---
  enum Op : std::uint32_t {
    kReady = 0,  ///< a = task: single-param immediately-ready record
    kWait = 1,   ///< a = task: one kicked waiter (one dependence satisfied)
    kDep = 2,    ///< a = task | contributes<<32, b = source task graph
    kMeta = 3,   ///< a = task | nparams<<32 | tenant<<48: Task Pool
                 ///  descriptor committed (nparams is 16 bits; the tenant
                 ///  field is 0 outside multi-tenant runs).
                 ///  May arrive after the task's kReady when the descriptor
                 ///  crosses a non-ideal NoC; the ready record then parks in
                 ///  the Sim Tasks buffer until the descriptor lands.
    kWbDone = 4, ///< a = task: write-back completed -> host
    kPump = 5,
    kOpCount
  };
  static constexpr const char* kOpNames[] = {"ready", "wait",    "dep",
                                             "meta",  "wb_done", "pump"};

  void handle(Simulation& sim, const Event& ev) override;

  [[nodiscard]] const char* telemetry_label() const override {
    return "arbiter";
  }
  [[nodiscard]] const char* op_label(std::uint32_t op) const override {
    return op_label_in<kOpCount>(kOpNames, op);
  }

  [[nodiscard]] const hw::DepCountsTable& dep_counts() const { return depcounts_; }
  [[nodiscard]] hw::DepCountsTable& dep_counts() { return depcounts_; }
  /// Tasks still gathering records; must be 0 once a run drains.
  [[nodiscard]] std::size_t sim_tasks_live() const { return sim_tasks_.size(); }

 private:
  struct SimTask {
    std::uint32_t nparams = 0;      ///< valid once meta_arrived
    std::uint32_t seen = 0;         ///< dep-count records gathered
    std::uint32_t total = 0;        ///< blocked-parameter tally
    std::uint32_t pending_dec = 0;  ///< kicks that raced ahead of gathering
    std::uint16_t tenant = 0;       ///< from kMeta; attributes parked entries
    bool meta_arrived = false;      ///< kMeta descriptor landed
    bool ready_parked = false;      ///< kReady overtook kMeta; release on meta
  };

  [[nodiscard]] Tick cycles(std::int64_t n) const { return clk_.cycles(n); }
  void pump(Simulation& sim);
  void conclude_if_complete(Simulation& sim, TaskId id, SimTask& st, Tick at);
  void to_writeback(Simulation& sim, Tick from, TaskId id);

  const NexusSharpConfig& cfg_;
  noc::Network* net_;  ///< write-back returns self_node_ -> dst_node_
  noc::NodeId self_node_ = 0;
  noc::NodeId dst_node_ = 0;
  ClockDomain clk_;
  RuntimeHost* host_ = nullptr;
  std::uint32_t self_ = 0;

  FixedRing<TaskId> ready_q_;
  FixedRing<TaskId> wait_q_;
  /// Per-task-graph Dep. Counts buffers: one gather grant (2 cycles) reads
  /// one record from EVERY nonempty buffer in parallel — the paper's
  /// best-case "two cycles to collect the results of all the task graphs".
  std::vector<FixedRing<std::uint64_t>> dep_q_;
  /// Bit i is set while dep_q_[i] is non-empty.
  std::uint64_t dep_pending_ = 0;

  IdMap<SimTask> sim_tasks_;
  hw::DepCountsTable depcounts_;
  Server wb_;
  BusyPort port_{kPump};

  telemetry::TraceRecorder* trace_ = nullptr;

  telemetry::Counter* m_grants_ready_ = nullptr;  ///< Ready Tasks grants
  telemetry::Counter* m_grants_wait_ = nullptr;   ///< Waiting Tasks grants
  telemetry::Counter* m_grants_dep_ = nullptr;    ///< Dep Counts gather grants
  telemetry::Counter* m_conflicts_ = nullptr;  ///< grants with >1 class pending
  telemetry::Counter* m_retries_ = nullptr;    ///< pumps deferred on busy port
  telemetry::Counter* m_meta_parks_ = nullptr;  ///< readies that beat their meta
  telemetry::Histogram* m_ready_depth_ = nullptr;  ///< Ready Tasks buffer depth
  telemetry::Histogram* m_wait_depth_ = nullptr;   ///< Waiting Tasks depth
};

}  // namespace nexus::detail
