// Nexus#: the distributed hardware task manager (the paper's contribution).
//
// Block structure follows Fig. 2: a Nexus IO unit receives task submissions
// and finish notifications; the Input Parser distributes each incoming
// 48-bit parameter *immediately* to one of N task graphs via the XOR-fold
// distribution function — insertion of a task's first parameter starts
// before its later parameters have even arrived, and parameters of
// different tasks proceed in parallel across graphs (Section IV-B). Results
// are gathered by the Dependence Counts Arbiter; ready tasks leave through
// the Internal Ready Tasks buffer and Write-Back unit. Finished tasks'
// parameter lists are re-read from the Task Pool and redistributed to the
// graphs' Finished Args buffers.
//
// Unlike Nexus++, `taskwait on` is supported natively (Section I/IV): the
// host can wait for one datum's producer instead of draining everything.
#pragma once

#include <memory>
#include <vector>

#include "nexus/hw/distribution.hpp"
#include "nexus/hw/task_pool.hpp"
#include "nexus/noc/network.hpp"
#include "nexus/nexussharp/arbiter.hpp"
#include "nexus/nexussharp/config.hpp"
#include "nexus/nexussharp/root_arbiter.hpp"
#include "nexus/nexussharp/task_graph_unit.hpp"
#include "nexus/runtime/manager.hpp"

namespace nexus {

class NexusSharp final : public TaskManagerModel, public Component {
 public:
  explicit NexusSharp(const NexusSharpConfig& cfg = {});

  // TaskManagerModel
  /// Registers every unit and picks up the simulation's observers: metrics
  /// under "nexus#/" (task pool, per-TG units and tables, arbiters, NoC,
  /// admission), dependency stamps and edges, unit occupancy spans, pool
  /// and dep-count depth counters and NoC flow events on the trace, and
  /// per-message-kind NoC send nodes in the profile.
  void attach(Simulation& sim, RuntimeHost* host) override;
  Tick submit(Simulation& sim, const TaskDescriptor& task) override;
  Tick notify_finished(Simulation& sim, TaskId id) override;
  [[nodiscard]] bool supports_taskwait_on() const override { return true; }
  [[nodiscard]] Tick taskwait_on_query_cost() const override;
  [[nodiscard]] const char* name() const override { return "nexus#"; }

  // Component (front-end events)
  void handle(Simulation& sim, const Event& ev) override;
  [[nodiscard]] const char* telemetry_label() const override { return "io"; }
  [[nodiscard]] const char* op_label(std::uint32_t op) const override {
    return op_label_in<kOpCount>(kOpNames, op);
  }

  // --- introspection (counts live in the run's metric registry) ---
  /// Tasks still gathering in the leaf arbiters or merging in the root;
  /// 0 once a run drains.
  [[nodiscard]] std::uint64_t sim_tasks_live() const;
  [[nodiscard]] const NexusSharpConfig& config() const { return cfg_; }
  /// The on-manager interconnect (placement in NexusSharpConfig::noc docs).
  [[nodiscard]] const noc::Network& network() const { return *net_; }
  /// The Task Pool (per-tenant occupancy via its TenantLedger).
  [[nodiscard]] const hw::TaskPool& pool() const { return pool_; }
  /// true when the arbiter hierarchy is sharded (arbiter_clusters >= 2).
  [[nodiscard]] bool clustered() const { return root_ != nullptr; }

 private:
  enum Op : std::uint32_t {
    kFinishDistributed = 0,  ///< a = task id: pool slot reclaimed
    kOpCount
  };
  static constexpr const char* kOpNames[] = {"finish_distributed"};

  [[nodiscard]] Tick cycles(std::int64_t n) const { return clk_.cycles(n); }
  [[nodiscard]] std::uint32_t cluster_of(std::uint32_t tg) const {
    return tg / tgs_per_cluster_;
  }
  /// Per-tenant quota check at the IO tile; 0 = admit, else the NACK path.
  [[nodiscard]] bool over_quota(std::uint16_t tenant) const;

  NexusSharpConfig cfg_;
  ClockDomain clk_;
  RuntimeHost* host_ = nullptr;
  std::uint32_t self_ = 0;

  Server io_;  ///< Nexus IO / Input Parser occupancy (shared front end)
  hw::TaskPool pool_;
  hw::Distributor distributor_;
  std::unique_ptr<noc::Network> net_;  ///< created before arbiter/TGUs
  /// Flat mode: one arbiter at the legacy tile. Clustered: one leaf per
  /// cluster, plus the root that merges their reports.
  std::vector<std::unique_ptr<detail::SharpArbiter>> arbiters_;
  std::unique_ptr<detail::RootArbiter> root_;
  std::vector<std::unique_ptr<detail::ClusterRelay>> relays_;
  std::vector<std::unique_ptr<detail::TaskGraphUnit>> tgs_;
  std::uint32_t tgs_per_cluster_ = 0;  ///< num_task_graphs when flat

  bool master_blocked_ = false;
  std::vector<std::uint32_t> cluster_params_;  ///< scratch: params per cluster

  telemetry::Counter* m_tasks_in_ = nullptr;
  telemetry::Counter* m_finishes_ = nullptr;
  telemetry::Counter* m_nacks_ = nullptr;      ///< quota rejections (tenancy)
  std::vector<telemetry::Counter*> m_tenant_nacks_;
  std::vector<telemetry::Counter*> m_route_;  ///< params routed per graph
};

}  // namespace nexus
