// The global Dependence Counts Table (Fig. 2).
//
// Once the Dependence Counts Arbiter has gathered all of a task's per-graph
// results, a nonzero total is parked here; finish-path decrements retire it
// towards readiness.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "nexus/common/id_map.hpp"
#include "nexus/hw/tenancy.hpp"
#include "nexus/task/task.hpp"
#include "nexus/telemetry/observers.hpp"

namespace nexus::hw {

class DepCountsTable {
 public:
  /// Park a task with `count` outstanding dependences (count >= 1). `at`
  /// stamps the trace occupancy sample; irrelevant without a recorder.
  /// `tenant` attributes the entry when tenancy accounting is configured.
  void set(TaskId id, std::uint32_t count, telemetry::TraceTick at = 0,
           std::uint16_t tenant = 0);

  /// Satisfy one dependence; returns true when the task became ready (its
  /// entry is then removed).
  bool decrement(TaskId id, telemetry::TraceTick at = 0);

  [[nodiscard]] bool contains(TaskId id) const { return counts_.contains(id); }
  [[nodiscard]] std::size_t size() const { return counts_.size(); }

  /// Enable per-tenant occupancy accounting (tenancy quotas).
  void configure_tenancy(std::uint32_t tenants) { tenants_.configure(tenants); }
  [[nodiscard]] const TenantLedger& tenant_ledger() const { return tenants_; }

  /// Pick up the run's observers (the owner calls this from its attach):
  /// park/hit metrics under `prefix`, and the table size on trace counter
  /// track `track` at each park/release.
  void bind(const telemetry::Observers& obs, std::string_view prefix,
            std::string_view track);

 private:
  struct Parked {
    std::uint32_t count = 0;
    std::uint16_t tenant = 0;
  };
  IdMap<Parked> counts_;
  TenantLedger tenants_;
  telemetry::TraceRecorder* trace_ = nullptr;
  std::string track_;

  telemetry::Counter* m_parked_ = nullptr;     ///< tasks parked with a count
  telemetry::Counter* m_hits_ = nullptr;       ///< decrements applied
  telemetry::Counter* m_released_ = nullptr;   ///< decrements reaching zero
  telemetry::Histogram* m_occupancy_ = nullptr;  ///< size sampled per park
};

}  // namespace nexus::hw
