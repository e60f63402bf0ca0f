// Serving harness: offered-load experiments over the open-loop driver.
//
// A closed-loop sweep asks "how fast does this trace finish"; a serving
// sweep asks "what arrival rate can this manager sustain before tail
// latency explodes". `run_serving` measures one offered rate and extracts
// the serving-latency quantiles; `find_knee` brackets and bisects for the
// saturation knee — the highest rate whose p99 serving latency stays under
// a budget — which is the headline number of `nexus-bench serving`.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nexus/harness/experiment.hpp"
#include "nexus/workloads/arrivals.hpp"

namespace nexus::harness {

/// One measured offered-load point.
struct ServingPoint {
  double rate_hz = 0.0;      ///< offered aggregate arrival rate
  std::uint64_t tasks = 0;   ///< arrivals completed (always all of them)
  Tick makespan = 0;         ///< last finish time
  Tick horizon = 0;          ///< last arrival time
  double offered_hz = 0.0;   ///< tasks / horizon — realized offered rate
  double accepted_hz = 0.0;  ///< tasks / makespan — sustained throughput
  /// Serving latency (release -> finish) quantiles, picoseconds.
  double p50_ps = 0.0;
  double p95_ps = 0.0;
  double p99_ps = 0.0;
  double p999_ps = 0.0;
  RunReport report;  ///< the full run record (metrics, timeline, labels)
};

/// Extra gauges preset into the run's registry before it starts, so they
/// land in the same snapshot (and hence the BENCH record) as the run's
/// metrics — e.g. serving/knee_hz on the knee-relative points.
struct ServingGauge {
  std::string path;
  std::int64_t value = 0;
};

/// Measure one offered rate: generate the arrival schedule at `rate_hz`
/// (overriding cfg.rate_hz), build the serving trace, run it open-loop, and
/// extract the serving-latency quantiles. Presets serving/rate_hz and
/// serving/clients gauges (plus any in `gauges`).
ServingPoint run_serving(const workloads::ArrivalConfig& cfg, double rate_hz,
                         const ManagerSpec& spec, std::uint32_t cores,
                         const RuntimeConfig& base = {},
                         const telemetry::TimelineConfig* timeline = nullptr,
                         const std::vector<ServingGauge>& gauges = {});

/// Knee-search policy: pass/fail is `p99 serving latency <= p99_budget_ps`.
struct KneeSearch {
  Tick p99_budget_ps = 0;  ///< required; no default makes sense
  /// Bracket start; must pass (an unloaded system violating the budget
  /// means the budget, not the rate, is the bottleneck).
  double lo_hz = 0.0;
  std::uint32_t bisect_iters = 10;   ///< geometric bisection refinements
  std::uint32_t max_doublings = 24;  ///< bracket expansion cap
};

/// How the search ended — callers must not quote knee_hz as "the knee"
/// unless the bracket is honest (kBracketed).
enum class KneeOutcome : std::uint8_t {
  /// lo_hz itself violates the budget: the budget, not the rate, is the
  /// bottleneck. knee_hz is 0 and `knee` holds the violating lo_hz point
  /// for diagnosis.
  kUnattainable = 0,
  /// No failing rate was found below the doubling cap (or the doubling
  /// overflowed): knee_hz is only a lower bound on the true knee.
  kLowerBound = 1,
  /// A failing rate bracketed the knee and bisection refined it.
  kBracketed = 2,
};

const char* to_string(KneeOutcome o);

struct KneeResult {
  double knee_hz = 0.0;  ///< highest passing rate found (0 if unattainable)
  ServingPoint knee;     ///< measured at knee_hz (at lo_hz if unattainable)
  std::uint32_t probes = 0;
  KneeOutcome outcome = KneeOutcome::kUnattainable;
  /// Convenience mirror of `outcome == kBracketed`.
  bool bracketed = false;
};

/// Bisect for the saturation knee. Deterministic: probe rates depend only
/// on the search policy and the pass/fail outcomes.
KneeResult find_knee(const workloads::ArrivalConfig& cfg,
                     const KneeSearch& search, const ManagerSpec& spec,
                     std::uint32_t cores, const RuntimeConfig& base = {});

}  // namespace nexus::harness
