#include "nexus/harness/serving.hpp"

#include <cmath>
#include <limits>

#include "nexus/common/assert.hpp"
#include "nexus/telemetry/registry.hpp"

namespace nexus::harness {
namespace {

void fill_quantiles(ServingPoint* p) {
  if (p->report.metrics == nullptr) return;
  const telemetry::MetricValue* v =
      p->report.metrics->find("runtime/serving_latency_ps");
  if (v == nullptr || v->kind != telemetry::MetricKind::kHistogram) return;
  p->p50_ps = v->hist.quantile(0.50);
  p->p95_ps = v->hist.quantile(0.95);
  p->p99_ps = v->hist.quantile(0.99);
  p->p999_ps = v->hist.quantile(0.999);
}

}  // namespace

ServingPoint run_serving(const workloads::ArrivalConfig& cfg, double rate_hz,
                         const ManagerSpec& spec, std::uint32_t cores,
                         const RuntimeConfig& base,
                         const telemetry::TimelineConfig* timeline,
                         const std::vector<ServingGauge>& gauges) {
  workloads::ArrivalConfig c = cfg;
  c.rate_hz = rate_hz;
  const workloads::ArrivalSchedule sched = workloads::generate_arrivals(c);
  const Trace trace = workloads::make_serving_trace(sched);

  RuntimeConfig rc = base;
  rc.open_loop = &sched.submission;

  // Context gauges go through the run's registry so the snapshot a BENCH
  // record serializes carries the offered rate alongside the measurements.
  telemetry::MetricRegistry reg;
  reg.gauge("serving/rate_hz").set(std::llround(rate_hz));
  reg.gauge("serving/clients").set(c.clients);
  for (const ServingGauge& g : gauges) reg.gauge(g.path).set(g.value);

  ServingPoint p;
  p.rate_hz = rate_hz;
  p.tasks = sched.tasks();
  p.horizon = sched.horizon();
  p.report = run_once_report(trace, spec, cores, rc, /*collect_metrics=*/true,
                             timeline, /*collect_trace=*/false, &reg);
  p.makespan = p.report.result.makespan;
  if (p.horizon > 0)
    p.offered_hz = static_cast<double>(p.tasks) / to_seconds(p.horizon);
  if (p.makespan > 0)
    p.accepted_hz = static_cast<double>(p.tasks) / to_seconds(p.makespan);
  fill_quantiles(&p);
  return p;
}

const char* to_string(KneeOutcome o) {
  switch (o) {
    case KneeOutcome::kUnattainable: return "unattainable";
    case KneeOutcome::kLowerBound: return "lower-bound";
    case KneeOutcome::kBracketed: return "bracketed";
  }
  return "?";
}

KneeResult find_knee(const workloads::ArrivalConfig& cfg,
                     const KneeSearch& search, const ManagerSpec& spec,
                     std::uint32_t cores, const RuntimeConfig& base) {
  NEXUS_ASSERT_MSG(search.p99_budget_ps > 0, "knee search needs a p99 budget");
  NEXUS_ASSERT_MSG(search.lo_hz > 0.0, "knee search needs a positive lo_hz");
  const double budget = static_cast<double>(search.p99_budget_ps);

  KneeResult r;
  auto probe = [&](double rate) {
    ServingPoint p = run_serving(cfg, rate, spec, cores, base);
    ++r.probes;
    const bool pass = p.p99_ps <= budget;
    if (pass && rate > r.knee_hz) {
      r.knee_hz = rate;
      r.knee = std::move(p);
    }
    return pass;
  };

  double lo = search.lo_hz;
  {
    // lo_hz must pass before any of knee_hz means anything: an unloaded
    // system already violating the budget is an unattainable-budget
    // misconfiguration, not a zero-rate knee. Keep the violating point so
    // callers can report how far off the budget was.
    ServingPoint first = run_serving(cfg, lo, spec, cores, base);
    ++r.probes;
    if (first.p99_ps > budget) {
      r.outcome = KneeOutcome::kUnattainable;
      r.knee = std::move(first);
      return r;
    }
    r.knee_hz = lo;
    r.knee = std::move(first);
  }

  // Exponential bracket expansion: double until the budget breaks. Stop
  // honestly (lower bound, not a bracket) if doubling would overflow.
  double hi = lo;
  bool found_fail = false;
  for (std::uint32_t i = 0; i < search.max_doublings; ++i) {
    const double next = hi * 2.0;
    if (!std::isfinite(next)) break;
    hi = next;
    if (!probe(hi)) {
      found_fail = true;
      break;
    }
    lo = hi;
  }
  if (!found_fail) {
    r.outcome = KneeOutcome::kLowerBound;
    return r;  // knee_hz is a lower bound only
  }

  // Geometric bisection: rates span decades, so split in log space.
  r.outcome = KneeOutcome::kBracketed;
  r.bracketed = true;
  for (std::uint32_t i = 0; i < search.bisect_iters; ++i) {
    const double mid = std::sqrt(lo * hi);
    if (probe(mid))
      lo = mid;
    else
      hi = mid;
  }
  return r;
}

}  // namespace nexus::harness
