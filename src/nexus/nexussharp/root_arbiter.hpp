// The root of the clustered arbiter hierarchy (arbiter_clusters >= 2).
//
// Each cluster's leaf arbiter (a SharpArbiter with re-pointed NoC nodes)
// resolves the dependences its own task graphs track and reports "this
// task has drained in my cluster". The root ANDs those per-cluster reports:
// once every participating cluster has reported, the task is globally
// ready and enters the root's per-tenant ready queues. The root grants
// from those queues weighted-round-robin (TenancyConfig::weights) — the
// QoS mechanism that stops one heavy tenant from monopolizing the
// write-back port — or strictly FIFO in arrival order when
// TenancyConfig::weighted is false (the baseline the fairness bench
// measures against). The granted task then takes the same internal-FIFO +
// Write-Back path as the flat arbiter before reaching Nexus IO.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "nexus/common/fixed_ring.hpp"
#include "nexus/common/id_map.hpp"
#include "nexus/noc/network.hpp"
#include "nexus/nexussharp/config.hpp"
#include "nexus/runtime/manager.hpp"
#include "nexus/sim/server.hpp"
#include "nexus/sim/simulation.hpp"

namespace nexus::detail {

class RootArbiter final : public Component {
 public:
  RootArbiter(const NexusSharpConfig& cfg, noc::Network* net);

  /// Register with the simulation and pick up its observers: grant/merge
  /// metrics under "nexus#/root" (per-tenant grants under WRR) and grant
  /// spans plus global resolution stamps on the trace.
  void attach(Simulation& sim, RuntimeHost* host);

  [[nodiscard]] std::uint32_t component_id() const { return self_; }

  enum Op : std::uint32_t {
    kMeta = 0,    ///< a = task | nclusters<<32 | tenant<<48
    kWbDone = 1,  ///< a = task: write-back completed -> host
    kPump = 2,
    kOpCount
  };
  static constexpr const char* kOpNames[] = {"meta", "wb_done", "pump"};

  void handle(Simulation& sim, const Event& ev) override;

  /// A leaf arbiter drained `id` in its cluster (called by the per-cluster
  /// relay after the leaf's report crossed the interconnect).
  void cluster_ready(Simulation& sim, TaskId id);

  [[nodiscard]] const char* telemetry_label() const override { return "root"; }
  [[nodiscard]] const char* op_label(std::uint32_t op) const override {
    return op_label_in<kOpCount>(kOpNames, op);
  }

  /// Tasks mid-merge or queued for grant; must be 0 once a run drains.
  [[nodiscard]] std::size_t live() const { return sim_tasks_.size() + queued_; }

 private:
  struct SimTask {
    std::uint32_t nclusters = 0;  ///< participating clusters (valid w/ meta)
    std::uint32_t seen = 0;       ///< cluster-ready reports gathered
    std::uint16_t tenant = 0;
    bool meta_arrived = false;
  };

  [[nodiscard]] Tick cycles(std::int64_t n) const { return clk_.cycles(n); }
  void enqueue_ready(Simulation& sim, TaskId id, std::uint16_t tenant);
  /// The first non-empty queue in [lo, hi), or hi if there is none.
  [[nodiscard]] std::uint32_t first_nonempty(std::uint32_t lo, std::uint32_t hi) const;
  void pump(Simulation& sim);
  void to_writeback(Simulation& sim, Tick from, TaskId id);

  const NexusSharpConfig& cfg_;
  noc::Network* net_;
  ClockDomain clk_;
  RuntimeHost* host_ = nullptr;
  std::uint32_t self_ = 0;

  IdMap<SimTask> sim_tasks_;
  /// One ready queue per tenant (a single queue when tenancy is disabled
  /// or the FIFO baseline is selected).
  std::vector<FixedRing<TaskId>> queues_;
  /// Bit q of word q / 64 is set while queues_[q] is non-empty.
  std::vector<std::uint64_t> nonempty_;
  std::size_t queued_ = 0;
  std::uint32_t cur_tenant_ = 0;   ///< WRR pointer
  std::uint32_t credits_ = 0;      ///< grants left for cur_tenant_'s burst
  Server wb_;
  BusyPort port_{kPump};

  telemetry::TraceRecorder* trace_ = nullptr;

  telemetry::Counter* m_grants_ = nullptr;        ///< ready tasks granted
  telemetry::Counter* m_merges_ = nullptr;        ///< cluster reports merged
  telemetry::Histogram* m_ready_depth_ = nullptr; ///< total queued, per enqueue
  std::vector<telemetry::Counter*> m_tenant_grants_;  ///< per-tenant grants
};

/// The RuntimeHost shim attached to each leaf arbiter in clustered mode:
/// the leaf's "task ready" (its write-back record, after crossing the
/// leaf -> root interconnect hop) becomes a cluster-ready report into the
/// root's merge stage. Leaves never drive the master.
class ClusterRelay final : public RuntimeHost {
 public:
  explicit ClusterRelay(RootArbiter* root) : root_(root) {
    NEXUS_ASSERT(root != nullptr);
  }
  void task_ready(Simulation& sim, TaskId id) override {
    root_->cluster_ready(sim, id);
  }
  void master_resume(Simulation&) override {
    NEXUS_ASSERT_MSG(false, "leaf arbiters never resume the master");
  }

 private:
  RootArbiter* root_;
};

}  // namespace nexus::detail
