// A Snapshot is the frozen, self-contained state of a MetricRegistry:
// plain data sorted by path, safe to keep after the registry (and the run
// that produced it) is gone. Run reports carry one; exporters consume it
// without touching live metrics.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "nexus/telemetry/metrics.hpp"

namespace nexus::telemetry {

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

const char* to_string(MetricKind k);

struct HistogramData {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  /// Nonzero buckets only: (bucket index, count), ascending by index.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> buckets;

  /// Interpolated quantile (q in [0, 1]); 0 for an empty histogram. The
  /// rank lands in a pow2 bucket and is interpolated linearly inside it,
  /// clipped to the recorded [min, max] so degenerate histograms are exact.
  [[nodiscard]] double quantile(double q) const {
    if (count == 0) return 0.0;
    if (q <= 0.0) return static_cast<double>(min);
    if (q >= 1.0) return static_cast<double>(max);
    const double target = q * static_cast<double>(count);
    std::uint64_t below = 0;
    for (const auto& [index, n] : buckets) {
      if (static_cast<double>(below + n) >= target) {
        if (index == 0) return 0.0;  // bucket 0 holds exact zeros
        const double frac =
            (target - static_cast<double>(below)) / static_cast<double>(n);
        const double bucket_lo = static_cast<double>(Histogram::bucket_floor(index));
        // bucket_lo * 2 is exact in double through 2^64.
        const double lo = std::max(bucket_lo, static_cast<double>(min));
        const double hi = std::min(bucket_lo * 2.0, static_cast<double>(max));
        return lo + frac * (hi - lo);
      }
      below += n;
    }
    return static_cast<double>(max);  // FP slack: the tail owns the rest
  }

  [[nodiscard]] double p50() const { return quantile(0.50); }
  [[nodiscard]] double p95() const { return quantile(0.95); }
  [[nodiscard]] double p99() const { return quantile(0.99); }
  [[nodiscard]] double p999() const { return quantile(0.999); }
};

struct MetricValue {
  std::string path;
  MetricKind kind = MetricKind::kCounter;
  std::uint64_t counter = 0;  ///< kCounter
  std::int64_t gauge = 0;     ///< kGauge
  HistogramData hist;         ///< kHistogram
};

struct Snapshot {
  std::vector<MetricValue> values;  ///< sorted by path

  /// Lookup by exact path; nullptr if absent.
  [[nodiscard]] const MetricValue* find(std::string_view path) const {
    for (const auto& v : values)
      if (v.path == path) return &v;
    return nullptr;
  }

  /// Counter value at `path` (0 if absent — convenient for reports).
  [[nodiscard]] std::uint64_t counter_at(std::string_view path) const {
    const MetricValue* v = find(path);
    return v != nullptr && v->kind == MetricKind::kCounter ? v->counter : 0;
  }

  /// Gauge value at `path` (0 if absent).
  [[nodiscard]] std::int64_t gauge_at(std::string_view path) const {
    const MetricValue* v = find(path);
    return v != nullptr && v->kind == MetricKind::kGauge ? v->gauge : 0;
  }
};

}  // namespace nexus::telemetry
