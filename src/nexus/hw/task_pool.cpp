#include "nexus/hw/task_pool.hpp"

#include <algorithm>

#include "nexus/telemetry/registry.hpp"
#include "nexus/telemetry/trace.hpp"

namespace nexus::hw {

void TaskPool::insert(const TaskDescriptor& t, telemetry::TraceTick at) {
  NEXUS_ASSERT_MSG(!full(), "task pool overflow");
  const bool fresh = slots_.try_emplace(t.id, t).second;
  NEXUS_ASSERT_MSG(fresh, "task already pooled");
  if (tenants_.enabled()) tenants_.add(t.tenant);
  peak_ = std::max<std::uint64_t>(peak_, slots_.size());
  telemetry::inc(m_inserts_);
  telemetry::record(m_occupancy_, slots_.size());
  telemetry::set(m_peak_, static_cast<std::int64_t>(peak_));
  if (trace_ != nullptr)
    trace_->counter(track_, at, static_cast<std::int64_t>(slots_.size()));
}

const TaskDescriptor& TaskPool::get(TaskId id) const {
  const TaskDescriptor* t = slots_.find(id);
  NEXUS_ASSERT_MSG(t != nullptr, "task not in pool");
  return *t;
}

void TaskPool::erase(TaskId id, telemetry::TraceTick at) {
  if (tenants_.enabled()) {
    const TaskDescriptor* t = slots_.find(id);
    NEXUS_ASSERT_MSG(t != nullptr, "erase of task not in pool");
    tenants_.sub(t->tenant);
  }
  const bool erased = slots_.erase(id);
  NEXUS_ASSERT_MSG(erased, "erase of task not in pool");
  telemetry::inc(m_retired_);
  if (trace_ != nullptr)
    trace_->counter(track_, at, static_cast<std::int64_t>(slots_.size()));
}

void TaskPool::bind(const telemetry::Observers& obs, std::string_view name) {
  if (obs.metrics != nullptr) {
    telemetry::MetricRegistry& reg = *obs.metrics;
    m_inserts_ = &reg.counter(telemetry::path_join(name, "inserts"));
    m_retired_ = &reg.counter(telemetry::path_join(name, "retired"));
    m_peak_ = &reg.gauge(telemetry::path_join(name, "peak"));
    m_occupancy_ = &reg.histogram(telemetry::path_join(name, "occupancy"));
  }
  trace_ = obs.trace;
  track_ = std::string(name);
}

}  // namespace nexus::hw
