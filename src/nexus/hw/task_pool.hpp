// The Task Pool: bounded storage for in-flight task descriptors.
//
// Both Nexus designs keep every accepted task's descriptor (function
// pointer + input/output list) on-chip until the task finishes, because the
// finish path re-reads the I/O list to update the task graphs. A full pool
// back-pressures the host: submission stalls until a task retires — the
// windowing behaviour that bounds how far the manager can run ahead.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "nexus/common/id_map.hpp"
#include "nexus/hw/tenancy.hpp"
#include "nexus/task/task.hpp"
#include "nexus/telemetry/observers.hpp"

namespace nexus::hw {

class TaskPool {
 public:
  explicit TaskPool(std::size_t capacity)
      : capacity_(capacity), slots_(capacity) {
    NEXUS_ASSERT(capacity > 0);
  }

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t size() const { return slots_.size(); }
  [[nodiscard]] bool full() const { return slots_.size() >= capacity_; }
  [[nodiscard]] std::uint64_t peak() const { return peak_; }

  /// `at` stamps the trace occupancy sample (sim time of the mutation);
  /// irrelevant unless a TraceRecorder is bound.
  void insert(const TaskDescriptor& t, telemetry::TraceTick at = 0);

  /// The pooled descriptor; the reference stays valid until the next erase
  /// (the map is sized for the capacity, so an insert never moves it).
  [[nodiscard]] const TaskDescriptor& get(TaskId id) const;

  void erase(TaskId id, telemetry::TraceTick at = 0);

  /// Enable per-tenant occupancy accounting (tenancy quotas). Descriptors
  /// are attributed to TaskDescriptor::tenant at insert/erase. Never called
  /// for single-tenant runs: the ledger stays disabled and free.
  void configure_tenancy(std::uint32_t tenants) { tenants_.configure(tenants); }
  [[nodiscard]] const TenantLedger& tenant_ledger() const { return tenants_; }
  [[nodiscard]] TenantLedger& tenant_ledger() { return tenants_; }

  /// Pick up the run's observers (the owner calls this from its attach):
  /// occupancy/lifecycle metrics under `name`, and occupancy samples on
  /// trace counter track `name` at each insert/erase. Unbound, the pool
  /// records nothing.
  void bind(const telemetry::Observers& obs, std::string_view name);

 private:
  std::size_t capacity_;
  IdMap<TaskDescriptor> slots_;
  TenantLedger tenants_;
  std::uint64_t peak_ = 0;
  telemetry::TraceRecorder* trace_ = nullptr;
  std::string track_;

  telemetry::Counter* m_inserts_ = nullptr;   ///< descriptors accepted
  telemetry::Counter* m_retired_ = nullptr;   ///< slots reclaimed (evictions)
  telemetry::Gauge* m_peak_ = nullptr;        ///< high-water occupancy
  telemetry::Histogram* m_occupancy_ = nullptr;  ///< size sampled per insert
};

}  // namespace nexus::hw
