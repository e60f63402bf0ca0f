#include "nexus/runtime/tenancy.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "nexus/common/assert.hpp"
#include "nexus/telemetry/registry.hpp"

namespace nexus {

TenantRunResult run_tenants(const std::vector<TenantStream>& streams,
                            TaskManagerModel& manager,
                            const RuntimeConfig& config) {
  NEXUS_ASSERT_MSG(streams.size() <= 256,
                   "tenant address windows support up to 256 tenants");
  TenantRunResult r;
  r.tenants.resize(streams.size());
  // All tenants share one port. Tenant t's addresses go to its own 40-bit
  // window and its descriptors carry tenant = t, so a tenancy-configured
  // manager can attribute and police them.
  std::vector<detail::Stream> feeds;
  for (std::size_t t = 0; t < streams.size(); ++t) {
    const TenantStream& s = streams[t];
    NEXUS_ASSERT_MSG(s.trace != nullptr, "tenant stream needs a trace");
    NEXUS_ASSERT_MSG(s.release.size() == s.trace->num_tasks(),
                     "one release time per tenant task");
    NEXUS_ASSERT_MSG(std::is_sorted(s.release.begin(), s.release.end()),
                     "tenant release times must be non-decreasing");
    // Only submit() adds a task, and it adds exactly one event.
    NEXUS_ASSERT_MSG(s.trace->num_events() == s.trace->num_tasks(),
                     "tenant streams are submit-only (no taskwaits)");
    feeds.push_back({.trace = s.trace,
                     .release = &s.release,
                     .tenant = static_cast<std::uint16_t>(t),
                     .addr_offset = static_cast<Addr>(t) << 40,
                     .latency_out = &r.tenants[t].raw});
  }
  RuntimeConfig rc = config;
  rc.open_loop = nullptr;  // the streams carry their own release times
  detail::Driver driver(feeds, manager, rc);
  const RunResult run = driver.run();
  r.makespan = run.makespan;
  r.total_tasks = run.tasks;

  for (std::size_t t = 0; t < r.tenants.size(); ++t) {
    TenantLatency& lat = r.tenants[t];
    lat.tasks = lat.raw.size();
    lat.nack_holds = driver.nack_holds(t);
    if (lat.raw.empty()) continue;
    std::uint64_t sum = 0;
    for (const Tick v : lat.raw) {
      sum += static_cast<std::uint64_t>(v);
      lat.max_ps = std::max(lat.max_ps, v);
    }
    lat.mean_ps = static_cast<double>(sum) / static_cast<double>(lat.raw.size());
    std::vector<Tick> sorted = lat.raw;
    std::sort(sorted.begin(), sorted.end());
    const std::size_t n = sorted.size();
    const std::size_t idx =
        static_cast<std::size_t>(std::ceil(0.99 * static_cast<double>(n))) - 1;
    lat.p99_ps = static_cast<double>(sorted[std::min(idx, n - 1)]);
  }

  if (config.metrics != nullptr) {
    telemetry::MetricRegistry& reg = *config.metrics;
    const auto tenants = static_cast<std::uint32_t>(r.tenants.size());
    reg.gauge("tenancy/tenants").set(tenants);
    for (std::uint32_t t = 0; t < tenants; ++t) {
      const TenantLatency& lat = r.tenants[t];
      const std::string stem = telemetry::indexed_path("tenancy/tenant", t, tenants);
      reg.gauge(telemetry::path_join(stem, "tasks"))
          .set(static_cast<std::int64_t>(lat.tasks));
      reg.gauge(telemetry::path_join(stem, "mean_ps")).set(std::llround(lat.mean_ps));
      reg.gauge(telemetry::path_join(stem, "p99_ps")).set(std::llround(lat.p99_ps));
      reg.gauge(telemetry::path_join(stem, "nack_holds"))
          .set(static_cast<std::int64_t>(lat.nack_holds));
    }
  }
  return r;
}

}  // namespace nexus
