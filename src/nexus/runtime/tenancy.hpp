// Multi-tenant open-loop driver: N per-tenant arrival streams against ONE
// task manager instance.
//
// Extends the Section VI multi-application observation (disjoint address
// spaces let Nexus# manage several apps at once) to a *serving* setting:
// each tenant is an independent open-loop arrival process, all sharing the
// manager's submission port, structures and worker pool. The driver
// understands per-tenant admission backpressure — a kSubmitNacked return
// holds only the offending tenant's stream while the others keep
// submitting — which is what turns the manager's tenancy quotas into
// isolation instead of a shared stall. Per-tenant serving latencies are
// recorded raw so the fairness harness can compute exact means/quantiles.
#pragma once

#include <cstdint>
#include <vector>

#include "nexus/runtime/manager.hpp"
#include "nexus/runtime/simulation_driver.hpp"
#include "nexus/task/trace.hpp"

namespace nexus {

/// One tenant's open-loop submission stream. Local task ids are 0..n-1 in
/// submission order; `release[i]` is local task i's arrival time.
struct TenantStream {
  const Trace* trace = nullptr;
  std::vector<Tick> release;
};

/// Per-tenant outcome of a co-run.
struct TenantLatency {
  std::uint64_t tasks = 0;
  double mean_ps = 0.0;       ///< mean serving latency (release -> finish)
  double p99_ps = 0.0;        ///< exact-rank p99 over `raw`
  Tick max_ps = 0;
  std::uint64_t nack_holds = 0;  ///< times this tenant's stream was NACK-held
  std::vector<Tick> raw;      ///< serving latency per task, completion order
};

struct TenantRunResult {
  Tick makespan = 0;
  std::uint64_t total_tasks = 0;
  std::vector<TenantLatency> tenants;
};

/// Run all tenant streams concurrently on `manager` with `config.workers`
/// cores. Tenant t's addresses are placed into a disjoint 40-bit window
/// (up to 256 tenants) and its descriptors carry TaskDescriptor::tenant = t
/// so a tenancy-configured manager can attribute and police them.
/// The shared submission port serves pending tasks in global arrival
/// order (ties by tenant index) — only a manager NACK lets later arrivals
/// from other tenants overtake a held stream. One port of the shared
/// detail::Driver, with one stream per tenant. Deterministic.
TenantRunResult run_tenants(const std::vector<TenantStream>& streams,
                            TaskManagerModel& manager,
                            const RuntimeConfig& config);

}  // namespace nexus
