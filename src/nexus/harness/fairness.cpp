#include "nexus/harness/fairness.hpp"

#include <cmath>

#include "nexus/common/assert.hpp"
#include "nexus/telemetry/registry.hpp"

namespace nexus::harness {

double jain_index(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const double v : values) {
    sum += v;
    sum_sq += v * v;
  }
  if (sum_sq <= 0.0) return 0.0;
  return (sum * sum) / (static_cast<double>(values.size()) * sum_sq);
}

FairnessReport run_fairness(const std::vector<TenantStream>& streams,
                            const ManagerSpec& spec, std::uint32_t cores,
                            const RuntimeConfig& base) {
  NEXUS_ASSERT_MSG(!streams.empty(), "fairness needs at least one tenant");

  RuntimeConfig rc = base;
  rc.workers = cores;

  // Solo baselines: each tenant alone on a fresh manager, no telemetry (the
  // co-run owns the snapshot).
  RuntimeConfig solo_rc = rc;
  solo_rc.metrics = nullptr;
  solo_rc.timeline = nullptr;
  solo_rc.trace = nullptr;
  FairnessReport rep;
  rep.tenants.resize(streams.size());
  for (std::size_t t = 0; t < streams.size(); ++t) {
    const std::unique_ptr<TaskManagerModel> mgr = make_manager(spec);
    const TenantRunResult solo =
        run_tenants({streams[t]}, *mgr, solo_rc);
    NEXUS_ASSERT(solo.tenants.size() == 1);
    rep.tenants[t].solo_mean_ps = solo.tenants[0].mean_ps;
  }

  // The contended co-run.
  {
    const std::unique_ptr<TaskManagerModel> mgr = make_manager(spec);
    rep.corun = run_tenants(streams, *mgr, rc);
  }

  std::vector<double> slowdowns;
  for (std::size_t t = 0; t < streams.size(); ++t) {
    TenantFairness& f = rep.tenants[t];
    const TenantLatency& co = rep.corun.tenants[t];
    f.corun_mean_ps = co.mean_ps;
    f.nack_holds = co.nack_holds;
    if (f.solo_mean_ps > 0.0) f.slowdown = f.corun_mean_ps / f.solo_mean_ps;
    slowdowns.push_back(f.slowdown);
  }
  rep.jain = jain_index(slowdowns);
  rep.max_slowdown = slowdowns.empty() ? 0.0 : slowdowns[0];
  rep.min_slowdown = rep.max_slowdown;
  for (const double s : slowdowns) {
    rep.max_slowdown = std::max(rep.max_slowdown, s);
    rep.min_slowdown = std::min(rep.min_slowdown, s);
  }
  if (rep.min_slowdown > 0.0)
    rep.slowdown_ratio = rep.max_slowdown / rep.min_slowdown;

  if (rc.metrics != nullptr) {
    // Verdict gauges land in the same snapshot as the co-run's metrics, so
    // one BENCH record carries both the raw telemetry and the headline
    // fairness numbers (fixed-point: the registry stores integers).
    telemetry::MetricRegistry& reg = *rc.metrics;
    reg.gauge("fairness/jain_x1e6").set(std::llround(rep.jain * 1e6));
    reg.gauge("fairness/slowdown_max_x1e3")
        .set(std::llround(rep.max_slowdown * 1e3));
    reg.gauge("fairness/slowdown_min_x1e3")
        .set(std::llround(rep.min_slowdown * 1e3));
    reg.gauge("fairness/slowdown_ratio_x1e3")
        .set(std::llround(rep.slowdown_ratio * 1e3));
    for (std::size_t t = 0; t < rep.tenants.size(); ++t) {
      reg.gauge(telemetry::path_join(
                    telemetry::indexed_path(
                        "fairness/tenant", static_cast<std::uint32_t>(t),
                        static_cast<std::uint32_t>(rep.tenants.size())),
                    "slowdown_x1e3"))
          .set(std::llround(rep.tenants[t].slowdown * 1e3));
    }
  }
  return rep;
}

}  // namespace nexus::harness
