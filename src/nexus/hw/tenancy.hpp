// Multi-tenant resource accounting for the hardware task managers.
//
// The paper's Section VI observes that Nexus# can manage several
// applications at once because their address spaces are disjoint; this
// layer adds the isolation that observation needs at scale. A TenancyConfig
// carves per-tenant occupancy quotas out of the three bounded structures
// (Task Pool, Dependence Counts Table, Task Graph Tables) and a
// TenantLedger embedded in each structure keeps the per-tenant occupancy
// counts those quotas are checked against. A tenant that hits its quota is
// NACKed at admission (kSubmitNacked) — backpressure on that tenant only —
// instead of filling the shared structure until every tenant stalls.
//
// Everything here is disabled by default (tenants == 0): the ledgers stay
// empty, no branch beyond an `enabled()` check runs, and single-tenant
// schedules are bit-identical to the pre-tenancy model (tested contract).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "nexus/common/assert.hpp"
#include "nexus/telemetry/observers.hpp"

namespace nexus::hw {

/// Uniform per-tenant occupancy quotas; 0 = unlimited for that structure.
struct TenantQuota {
  std::size_t pool = 0;    ///< Task Pool slots (in-flight descriptors)
  std::uint32_t table = 0; ///< task-graph-table entries, summed over graphs
  std::uint32_t dep = 0;   ///< parked dep-count entries, summed over arbiters

  friend bool operator==(const TenantQuota&, const TenantQuota&) = default;
};

struct TenancyConfig {
  /// Number of tenants sharing the manager; 0 disables tenancy entirely
  /// (the default — bit-identical to the pre-tenancy model).
  std::uint32_t tenants = 0;
  TenantQuota quota{};
  /// Per-tenant weighted-round-robin weights for the root arbiter's ready
  /// queues; empty = all 1. Ignored when `weighted` is false.
  std::vector<std::uint32_t> weights;
  /// true: per-tenant ready queues served weighted-round-robin (the QoS
  /// mode). false: one global FIFO in arrival order — the unweighted
  /// baseline a heavy tenant can monopolize.
  bool weighted = true;

  [[nodiscard]] bool enabled() const { return tenants > 0; }

  /// Weight of tenant `t` (>= 1; missing/zero entries default to 1).
  [[nodiscard]] std::uint32_t weight(std::uint32_t t) const {
    if (t >= weights.size() || weights[t] == 0) return 1;
    return weights[t];
  }

  friend bool operator==(const TenancyConfig&, const TenancyConfig&) = default;
};

/// Per-tenant occupancy counts for one bounded structure. Disabled (the
/// default) it is a no-op shell; configured, each add/sub keeps the
/// current and peak occupancy of one tenant, and optional telemetry
/// publishes the peaks as per-tenant gauges.
class TenantLedger {
 public:
  void configure(std::uint32_t tenants) {
    count_.assign(tenants, 0);
    peak_.assign(tenants, 0);
  }

  [[nodiscard]] bool enabled() const { return !count_.empty(); }
  [[nodiscard]] std::uint32_t tenants() const {
    return static_cast<std::uint32_t>(count_.size());
  }

  void add(std::uint32_t tenant);
  void sub(std::uint32_t tenant);

  [[nodiscard]] std::uint64_t count(std::uint32_t tenant) const {
    NEXUS_ASSERT(tenant < count_.size());
    return count_[tenant];
  }
  [[nodiscard]] std::uint64_t peak(std::uint32_t tenant) const {
    NEXUS_ASSERT(tenant < peak_.size());
    return peak_[tenant];
  }

  /// Pick up the run's observers (the owner calls this from its attach):
  /// per-tenant peak-occupancy gauges "<prefix>/tenant<NN>/peak"
  /// (zero-padded indices).
  void bind(const telemetry::Observers& obs, std::string_view prefix);

 private:
  std::vector<std::uint64_t> count_;
  std::vector<std::uint64_t> peak_;
  std::vector<telemetry::Gauge*> m_peak_;
};

}  // namespace nexus::hw
