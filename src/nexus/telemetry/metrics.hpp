// Telemetry metric primitives: Counter, Gauge and fixed-bucket pow2
// Histogram.
//
// Instrumented components hold *pointers* to metrics that live inside a
// MetricRegistry and stay null until the registry is bound, so the hot path
// of an un-instrumented run is a single predictable branch on a null
// pointer (measured <=2% on the `nexus-bench micro` cycle count). The inline
// `inc`/`set`/`record` helpers encode that contract.
#pragma once

#include <bit>
#include <cstdint>

namespace nexus::telemetry {

/// Monotonically increasing event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_ += n; }
  [[nodiscard]] std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-written instantaneous value (occupancy, ticks, config echoes).
class Gauge {
 public:
  void set(std::int64_t v) { value_ = v; }
  void add(std::int64_t d) { value_ += d; }
  [[nodiscard]] std::int64_t value() const { return value_; }

 private:
  std::int64_t value_ = 0;
};

/// Power-of-two bucketed histogram over unsigned samples.
///
/// Bucket 0 holds exact zeros; bucket i (1..64) holds [2^(i-1), 2^i).
/// 65 fixed buckets cover the full uint64 range, so recording never
/// allocates and bucket edges are identical across runs (snapshot
/// determinism is a tested contract).
class Histogram {
 public:
  static constexpr std::uint32_t kBuckets = 65;

  /// Bucket index for a sample: 0 for 0, else bit_width(v).
  [[nodiscard]] static constexpr std::uint32_t bucket_of(std::uint64_t v) {
    return static_cast<std::uint32_t>(std::bit_width(v));
  }

  /// Inclusive lower edge of bucket i (0, 1, 2, 4, 8, ...).
  [[nodiscard]] static constexpr std::uint64_t bucket_floor(std::uint32_t i) {
    return i == 0 ? 0 : std::uint64_t{1} << (i - 1);
  }

  void record(std::uint64_t v) {
    ++buckets_[bucket_of(v)];
    ++count_;
    sum_ += v;
    if (count_ == 1 || v < min_) min_ = v;
    if (v > max_) max_ = v;
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::uint64_t sum() const { return sum_; }
  [[nodiscard]] std::uint64_t min() const { return count_ > 0 ? min_ : 0; }
  [[nodiscard]] std::uint64_t max() const { return max_; }
  [[nodiscard]] double mean() const {
    return count_ > 0 ? static_cast<double>(sum_) / static_cast<double>(count_)
                      : 0.0;
  }
  [[nodiscard]] std::uint64_t bucket(std::uint32_t i) const { return buckets_[i]; }

 private:
  std::uint64_t buckets_[kBuckets] = {};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
};

// --- null-safe hot-path helpers (no-ops until a registry is bound) ---

inline void inc(Counter* c, std::uint64_t n = 1) {
  if (c != nullptr) c->inc(n);
}
inline void set(Gauge* g, std::int64_t v) {
  if (g != nullptr) g->set(v);
}
inline void record(Histogram* h, std::uint64_t v) {
  if (h != nullptr) h->record(v);
}

}  // namespace nexus::telemetry
