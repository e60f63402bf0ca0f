// Seeded random traces for the cross-manager tests: mixed dependency
// patterns, barriers and taskwait_on over a small address pool. Shared by
// integration_test (legality under every manager) and harness_test (the
// closed-form single-core baseline).
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "nexus/common/rng.hpp"
#include "nexus/task/trace.hpp"

namespace nexus {

struct FuzzParams {
  std::uint64_t seed;
  int n_tasks;
  int n_addrs;
  int max_params;
  double barrier_prob;      ///< taskwait between submissions
  double taskwait_on_prob;  ///< taskwait_on a previously written address
  Tick min_dur, max_dur;
};

inline Trace fuzz_trace(const FuzzParams& p) {
  Xoshiro256 rng(p.seed);
  Trace tr("fuzz-" + std::to_string(p.seed));
  std::vector<Addr> written;
  for (int i = 0; i < p.n_tasks; ++i) {
    const int cap = std::min(p.max_params, p.n_addrs);
    const int np = 1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(cap)));
    ParamList params;
    std::vector<Addr> used;
    for (int k = 0; k < np; ++k) {
      Addr a = 0;
      bool dup = true;
      while (dup) {
        a = 0x5000 + rng.below(static_cast<std::uint64_t>(p.n_addrs)) * 0x40;
        dup = false;
        for (const Addr u : used) dup |= (u == a);
      }
      used.push_back(a);
      const auto dir = static_cast<Dir>(rng.below(3));
      params.push_back({a, dir});
      if (is_write(dir)) written.push_back(a);
    }
    const Tick dur =
        p.min_dur + static_cast<Tick>(rng.below(
                        static_cast<std::uint64_t>(p.max_dur - p.min_dur + 1)));
    tr.submit(0, dur, params);
    if (rng.uniform() < p.barrier_prob) tr.taskwait();
    if (!written.empty() && rng.uniform() < p.taskwait_on_prob)
      tr.taskwait_on(written[rng.below(written.size())]);
  }
  tr.taskwait();
  std::string err;
  NEXUS_ASSERT_MSG(tr.validate(&err), err.c_str());
  return tr;
}

/// The fuzz seeds every manager must schedule legally.
inline std::vector<FuzzParams> fuzz_cases() {
  return {
      // Dense conflicts on few addresses, coarse tasks.
      FuzzParams{11, 300, 4, 3, 0.00, 0.00, us(20), us(200)},
      // Wide and mostly independent, fine tasks.
      FuzzParams{12, 500, 128, 2, 0.00, 0.00, us(1), us(10)},
      // Barrier-heavy fork/join.
      FuzzParams{13, 400, 16, 3, 0.05, 0.00, us(5), us(50)},
      // taskwait_on-heavy streaming.
      FuzzParams{14, 400, 16, 3, 0.00, 0.08, us(5), us(50)},
      // Everything at once, max params.
      FuzzParams{15, 600, 24, 6, 0.02, 0.04, us(2), us(80)},
      // Single hot address (pure chain).
      FuzzParams{16, 200, 1, 1, 0.00, 0.10, us(5), us(20)},
      // Reader-group heavy: many addresses, writes rare via low dir draw
      // (still random, the seed drives it).
      FuzzParams{17, 500, 8, 4, 0.01, 0.02, us(1), us(40)},
      FuzzParams{18, 800, 48, 5, 0.03, 0.03, us(1), us(30)},
  };
}

}  // namespace nexus
