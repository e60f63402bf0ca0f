#include "nexus/workloads/arrivals.hpp"

#include <cmath>
#include <numeric>
#include <utility>
#include <vector>

#include "nexus/common/assert.hpp"
#include "nexus/common/rng.hpp"
#include "nexus/workloads/workloads.hpp"

namespace nexus::workloads {
namespace {

/// Serving address space: client c's task k writes kServingBase + (c<<28) +
/// k*64 — unique per task, disjoint between clients, within 48 bits for
/// any plausible client count.
constexpr Addr kServingBase = 0x5E0000000000;

constexpr Addr out_addr(std::uint32_t client, std::uint64_t seq) {
  return (kServingBase + (static_cast<Addr>(client) << 28) + seq * 64) &
         kAddrMask;
}

/// Exponential sample with the given rate (events per second), in seconds.
double exp_sample(Xoshiro256& rng, double rate_hz) {
  return -std::log(1.0 - rng.uniform()) / rate_hz;
}

}  // namespace

const char* to_string(ArrivalProcess p) {
  switch (p) {
    case ArrivalProcess::kPoisson: return "poisson";
    case ArrivalProcess::kBursty: return "bursty";
  }
  return "?";
}

ArrivalSchedule generate_arrivals(const ArrivalConfig& cfg) {
  NEXUS_ASSERT_MSG(cfg.rate_hz > 0.0, "arrival rate must be positive");
  NEXUS_ASSERT_MSG(cfg.tasks > 0, "need at least one arrival");
  NEXUS_ASSERT_MSG(cfg.clients > 0, "need at least one client");
  NEXUS_ASSERT_MSG(cfg.on_fraction > 0.0 && cfg.on_fraction <= 1.0,
                   "on_fraction must be in (0, 1]");

  ArrivalSchedule s;
  s.config = cfg;
  s.submission.clients = cfg.clients;
  s.submission.release.reserve(cfg.tasks);
  s.submission.client.reserve(cfg.tasks);

  Xoshiro256 rng(cfg.seed);
  double t_ps = 0.0;  // fixed-order double accumulation: deterministic

  // Bursty (MMPP on-off) modulation state.
  const double mean_on_ps =
      cfg.on_fraction * static_cast<double>(cfg.burst_cycle_ps);
  const double mean_off_ps =
      (1.0 - cfg.on_fraction) * static_cast<double>(cfg.burst_cycle_ps);
  const double rate_on_hz = cfg.rate_hz / cfg.on_fraction;
  double on_end_ps = 0.0;
  bool burst_started = false;

  for (std::uint64_t i = 0; i < cfg.tasks; ++i) {
    switch (cfg.process) {
      case ArrivalProcess::kPoisson:
        t_ps += exp_sample(rng, cfg.rate_hz) * 1e12;
        break;
      case ArrivalProcess::kBursty: {
        if (!burst_started) {
          // The stream opens inside a burst (memorylessness makes the
          // choice of origin immaterial to the statistics).
          on_end_ps = -std::log(1.0 - rng.uniform()) * mean_on_ps;
          burst_started = true;
        }
        for (;;) {
          const double dt = exp_sample(rng, rate_on_hz) * 1e12;
          if (t_ps + dt <= on_end_ps) {
            t_ps += dt;
            break;
          }
          // Burst exhausted before the next arrival: jump to its end,
          // sleep through an off gap, open a fresh burst. Discarding the
          // partial interarrival is exact for exponentials.
          t_ps = on_end_ps - std::log(1.0 - rng.uniform()) * mean_off_ps;
          on_end_ps = t_ps - std::log(1.0 - rng.uniform()) * mean_on_ps;
        }
        break;
      }
    }
    s.submission.release.push_back(static_cast<Tick>(t_ps));
    s.submission.client.push_back(
        static_cast<std::uint32_t>(rng.below(cfg.clients)));
  }
  return s;
}

Trace make_serving_trace(const ArrivalSchedule& s) {
  const ArrivalConfig& cfg = s.config;
  NEXUS_ASSERT_MSG(s.submission.client.size() == s.submission.release.size(),
                   "schedule client marks must cover every arrival");
  const Trace donor = make_workload(cfg.kernel);
  const std::size_t donor_n = donor.num_tasks();

  // Seeded donor permutation so consecutive arrivals do not walk the donor
  // trace in phase order; an independent stream keeps trace construction
  // decoupled from the arrival draws (replay reads only the schedule).
  Xoshiro256 rng(cfg.seed ^ 0x7EACE5E2);
  std::vector<std::uint32_t> perm(donor_n);
  std::iota(perm.begin(), perm.end(), 0u);
  for (std::size_t i = donor_n; i > 1; --i) {
    const std::uint64_t j = rng.below(i);
    std::swap(perm[i - 1], perm[j]);
  }

  Trace tr(std::string("serving-") + to_string(cfg.process) + "-" +
           cfg.kernel);
  tr.reserve(s.tasks());
  std::vector<std::uint64_t> seq(cfg.clients, 0);
  for (std::uint64_t i = 0; i < s.tasks(); ++i) {
    const std::uint32_t c = s.submission.client[i];
    const TaskDescriptor& d =
        donor.task(perm[static_cast<std::size_t>(i % donor_n)]);
    ParamList p;
    // Drawn unconditionally so every task consumes one uniform: the chain
    // decision stream is position-independent of the client interleaving.
    const bool chain = rng.uniform() < cfg.chain_fraction && seq[c] > 0;
    if (chain) p.push_back({out_addr(c, seq[c] - 1), Dir::kIn});
    p.push_back({out_addr(c, seq[c]), Dir::kOut});
    // Pad to the donor's parameter count with reads of this client's older
    // outputs (known-written addresses, so the dependence is well-defined
    // and the descriptor's flit payload matches the donor's shape).
    std::uint64_t back = chain ? 2 : 1;
    while (p.size() < d.num_params() && back <= seq[c]) {
      p.push_back({out_addr(c, seq[c] - back), Dir::kIn});
      ++back;
    }
    tr.submit(d.fn, d.duration, p);
    ++seq[c];
  }
  return tr;
}

}  // namespace nexus::workloads
