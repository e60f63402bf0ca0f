#include "nexus/hw/tenancy.hpp"

#include <algorithm>

#include "nexus/telemetry/registry.hpp"

namespace nexus::hw {

void TenantLedger::add(std::uint32_t tenant) {
  NEXUS_ASSERT(tenant < count_.size());
  ++count_[tenant];
  if (count_[tenant] > peak_[tenant]) {
    peak_[tenant] = count_[tenant];
    if (!m_peak_.empty())
      m_peak_[tenant]->set(static_cast<std::int64_t>(peak_[tenant]));
  }
}

void TenantLedger::sub(std::uint32_t tenant) {
  NEXUS_ASSERT(tenant < count_.size());
  NEXUS_ASSERT_MSG(count_[tenant] > 0, "tenant ledger underflow");
  --count_[tenant];
}

void TenantLedger::bind(const telemetry::Observers& obs,
                        std::string_view prefix) {
  if (obs.metrics == nullptr) return;
  m_peak_.assign(count_.size(), nullptr);
  for (std::uint32_t t = 0; t < count_.size(); ++t)
    m_peak_[t] = &obs.metrics->gauge(telemetry::path_join(
        telemetry::path_join(prefix, telemetry::indexed_path("tenant", t,
                                                             tenants())),
        "peak"));
}

}  // namespace nexus::hw
