// Streaming statistics accumulators.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace nexus {

/// Welford-style streaming accumulator: count / mean / variance / min / max /
/// sum, numerically stable for long streams (sparselu has 650k+ samples).
class Accumulator {
 public:
  void add(double x) {
    ++n_;
    sum_ += x;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  [[nodiscard]] std::uint64_t count() const { return n_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double mean() const { return n_ > 0 ? mean_ : 0.0; }
  [[nodiscard]] double variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  [[nodiscard]] double stddev() const { return std::sqrt(variance()); }
  [[nodiscard]] double min() const { return n_ > 0 ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ > 0 ? max_ : 0.0; }

 private:
  std::uint64_t n_ = 0;
  double sum_ = 0.0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Load-balance metrics over per-bin counts (how evenly does the XOR-fold
/// distribution function spread addresses?).
struct BalanceReport {
  double max_over_mean = 0.0;   ///< worst bin relative to perfect balance
  double cv = 0.0;              ///< coefficient of variation across bins
};

BalanceReport balance_report(const std::vector<std::uint64_t>& bin_counts);

}  // namespace nexus
