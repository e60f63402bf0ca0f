#include "nexus/hw/dep_counts_table.hpp"

#include <algorithm>

#include "nexus/telemetry/registry.hpp"
#include "nexus/telemetry/trace.hpp"

namespace nexus::hw {

void DepCountsTable::set(TaskId id, std::uint32_t count,
                         telemetry::TraceTick at, std::uint16_t tenant) {
  NEXUS_ASSERT(count >= 1);
  const bool fresh = counts_.emplace(id, Parked{count, tenant}).second;
  NEXUS_ASSERT_MSG(fresh, "dep count already present");
  if (tenants_.enabled()) tenants_.add(tenant);
  peak_ = std::max<std::uint64_t>(peak_, counts_.size());
  telemetry::inc(m_parked_);
  telemetry::record(m_occupancy_, counts_.size());
  if (trace_ != nullptr)
    trace_->counter(track_, at, static_cast<std::int64_t>(counts_.size()));
}

bool DepCountsTable::decrement(TaskId id, telemetry::TraceTick at) {
  const auto it = counts_.find(id);
  NEXUS_ASSERT_MSG(it != counts_.end(), "decrement of unknown task");
  NEXUS_ASSERT(it->second.count > 0);
  telemetry::inc(m_hits_);
  if (--it->second.count == 0) {
    if (tenants_.enabled()) tenants_.sub(it->second.tenant);
    counts_.erase(it);
    telemetry::inc(m_released_);
    if (trace_ != nullptr)
      trace_->counter(track_, at, static_cast<std::int64_t>(counts_.size()));
    return true;
  }
  return false;
}

void DepCountsTable::bind(const telemetry::Observers& obs,
                          std::string_view prefix, std::string_view track) {
  if (obs.metrics != nullptr) {
    telemetry::MetricRegistry& reg = *obs.metrics;
    m_parked_ = &reg.counter(telemetry::path_join(prefix, "parked"));
    m_hits_ = &reg.counter(telemetry::path_join(prefix, "hits"));
    m_released_ = &reg.counter(telemetry::path_join(prefix, "released"));
    m_occupancy_ = &reg.histogram(telemetry::path_join(prefix, "occupancy"));
  }
  trace_ = obs.trace;
  track_ = std::string(track);
}

}  // namespace nexus::hw
