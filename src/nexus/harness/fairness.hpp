// Fairness harness: multi-tenant QoS experiments over the tenant driver.
//
// The question a serving knee cannot answer: when N tenants share one
// manager, who pays for contention? Each tenant first runs *solo* on a
// fresh manager instance (its un-contended baseline), then all tenants
// co-run on another fresh instance. A tenant's slowdown is its co-run mean
// serving latency over its solo mean; the report condenses the slowdown
// vector into the max/min slowdown ratio (the isolation headline) and the
// Jain fairness index J = (sum s)^2 / (n * sum s^2), which is 1.0 for
// perfect fairness and 1/n for a single starved victim.
#pragma once

#include <cstdint>
#include <vector>

#include "nexus/harness/experiment.hpp"
#include "nexus/runtime/tenancy.hpp"

namespace nexus::harness {

/// Per-tenant fairness outcome.
struct TenantFairness {
  double solo_mean_ps = 0.0;   ///< un-contended baseline mean latency
  double corun_mean_ps = 0.0;  ///< mean latency in the co-run
  double slowdown = 0.0;       ///< corun_mean / solo_mean
  std::uint64_t nack_holds = 0;
};

struct FairnessReport {
  std::vector<TenantFairness> tenants;
  double jain = 0.0;           ///< Jain index over the slowdown vector
  double max_slowdown = 0.0;
  double min_slowdown = 0.0;
  double slowdown_ratio = 0.0; ///< max / min (1.0 = perfectly even)
  TenantRunResult corun;       ///< the full co-run result (raw latencies)
};

/// Jain fairness index over a value vector (0 if empty or all-zero).
double jain_index(const std::vector<double>& values);

/// Run the solo baselines then the co-run and compute the report. A fresh
/// manager is built from `spec` for every run (solo runs never see the
/// co-run's structure state). The co-run uses `base` verbatim — bind
/// base.metrics to collect the co-run's telemetry; the fairness verdict
/// gauges (fairness/jain_x1e6, fairness/slowdown_ratio_x1e3, per-tenant
/// slowdowns) are set into that registry before the caller snapshots it.
/// Solo runs use a metrics-free copy of `base` so baseline runs cannot
/// pollute the co-run's snapshot.
FairnessReport run_fairness(const std::vector<TenantStream>& streams,
                            const ManagerSpec& spec, std::uint32_t cores,
                            const RuntimeConfig& base = {});

}  // namespace nexus::harness
