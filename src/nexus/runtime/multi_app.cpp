#include "nexus/runtime/multi_app.hpp"

#include "nexus/telemetry/registry.hpp"

namespace nexus {

MultiAppResult run_multi_app(const std::vector<const Trace*>& traces,
                             TaskManagerModel& manager, const RuntimeConfig& config) {
  // Apps own disjoint 44-bit windows of the 48-bit physical space, so a 17th
  // app would wrap onto app 0's window and alias its addresses.
  NEXUS_ASSERT_MSG(traces.size() <= 16,
                   "multi-app address windows support up to 16 applications");
  // One master (port) per app. Degenerate inputs are well-defined: an empty
  // trace list or a zero-task application simply contributes nothing (its
  // completion time is 0).
  std::vector<detail::Stream> streams;
  for (std::size_t a = 0; a < traces.size(); ++a) {
    streams.push_back({.trace = traces[a],
                       .addr_offset = static_cast<Addr>(a) << 44,
                       .port = static_cast<std::uint32_t>(a)});
  }
  RuntimeConfig rc = config;
  rc.open_loop = nullptr;  // applications replay closed loop
  detail::Driver driver(streams, manager, rc);
  const RunResult run = driver.run();

  MultiAppResult r;
  r.makespan = run.makespan;
  r.total_tasks = run.tasks;
  r.utilization = run.utilization;
  for (std::size_t a = 0; a < traces.size(); ++a)
    r.app_completion.push_back(driver.completion(a));
  if (config.metrics != nullptr) {
    telemetry::MetricRegistry& reg = *config.metrics;
    const auto apps = static_cast<std::uint32_t>(traces.size());
    reg.gauge("runtime/apps").set(apps);
    for (std::uint32_t a = 0; a < apps; ++a)
      reg.gauge(telemetry::path_join(telemetry::indexed_path("runtime/app", a, apps),
                                     "completion_ps"))
          .set(r.app_completion[a]);
  }
  return r;
}

}  // namespace nexus
