// Harness tests: sweep mechanics, baseline definition, manager factories.
#include <gtest/gtest.h>

#include <vector>

#include "fuzz_trace.hpp"
#include "nexus/harness/experiment.hpp"
#include "nexus/harness/serving.hpp"
#include "nexus/runtime/list_scheduler.hpp"
#include "nexus/telemetry/snapshot.hpp"
#include "nexus/workloads/arrivals.hpp"
#include "nexus/workloads/workloads.hpp"

namespace nexus::harness {
namespace {

TEST(Harness, PaperCoreAxes) {
  EXPECT_EQ(paper_cores_256().size(), 9u);
  EXPECT_EQ(paper_cores_256().front(), 1u);
  EXPECT_EQ(paper_cores_256().back(), 256u);
  EXPECT_EQ(paper_cores_64().back(), 64u);
}

// ideal_baseline is the closed form total_work(); the one-worker list
// schedule is the oracle it must equal, on every kernel at a quick size, on
// the fuzz seeds (barriers, taskwait_on, dense conflicts) and on an
// open-loop serving trace.
TEST(Harness, BaselineIsSingleCoreIdeal) {
  std::vector<Trace> traces;
  traces.push_back(workloads::make_cray({.lines = 120}));
  traces.push_back(workloads::make_rotcc({.lines = 300}));
  traces.push_back(workloads::make_sparselu({.nb = 24, .target_tasks = 1500}));
  traces.push_back(workloads::make_streamcluster(
      {.total_tasks = 4000, .phases = 10, .total_work = ms(20)}));
  for (const int group : {1, 2, 4, 8}) {
    workloads::H264Config cfg = workloads::h264_config(group);
    cfg.frames = 2;
    cfg.total_tasks /= 5;
    traces.push_back(workloads::make_h264dec(cfg));
  }
  traces.push_back(workloads::make_gaussian({.n = 60}));
  for (const FuzzParams& p : fuzz_cases()) traces.push_back(fuzz_trace(p));
  workloads::ArrivalConfig acfg;
  acfg.process = workloads::ArrivalProcess::kBursty;
  acfg.tasks = 300;
  acfg.clients = 4;
  acfg.kernel = "h264dec-8x8-10f";
  acfg.rate_hz = 4e6;
  traces.push_back(workloads::make_serving_trace(workloads::generate_arrivals(acfg)));

  for (const Trace& tr : traces) {
    ASSERT_GT(tr.num_tasks(), 0u) << tr.name();
    EXPECT_EQ(ideal_baseline(tr), tr.total_work()) << tr.name();
    EXPECT_EQ(ideal_baseline(tr), list_schedule_makespan(tr, 1)) << tr.name();
  }
}

TEST(Harness, IdealSweepSpeedupsAreSane) {
  const Trace tr = workloads::make_cray();
  const Tick base = ideal_baseline(tr);
  const Series s = sweep(tr, ManagerSpec::ideal(), {1, 2, 4}, base);
  ASSERT_EQ(s.points.size(), 3u);
  EXPECT_NEAR(s.points[0].speedup, 1.0, 1e-9);
  EXPECT_GT(s.points[1].speedup, 1.8);
  EXPECT_LE(s.points[1].speedup, 2.0 + 1e-9);
  EXPECT_GT(s.points[2].speedup, 3.5);
  EXPECT_EQ(s.max_speedup(), s.points[2].speedup);
}

TEST(Harness, SharpSpecUsesTableIFrequency) {
  const ManagerSpec s6 = ManagerSpec::nexussharp(6);
  EXPECT_DOUBLE_EQ(s6.sharp.freq_mhz, 55.56);
  EXPECT_EQ(s6.sharp.num_task_graphs, 6u);
  const ManagerSpec fixed = ManagerSpec::nexussharp(6, 100.0);
  EXPECT_DOUBLE_EQ(fixed.sharp.freq_mhz, 100.0);
}

TEST(Harness, ParseManagerRoundTripsEveryLabel) {
  // The labels the bench experiment table uses: the canonical ones
  // ManagerSpec writes, plus the 100 MHz spellings of the Fig. 9 records.
  for (const std::string label :
       {"ideal", "nanos", "nexus++", "nexus#-1TG@100.00MHz", "nexus#-2TG@100.00MHz",
        "nexus#-4TG@83.33MHz", "nexus#-4TG@100.00MHz", "nexus#-6TG@55.56MHz",
        "nexus#-6TG@100.00MHz", "nexus#-8TG@41.66MHz", "nexus#-8TG@100.00MHz",
        "nexus#-1TG@100MHz", "nexus#-2TG@100MHz"}) {
    ManagerSpec spec;
    ASSERT_TRUE(parse_manager(label, &spec)) << label;
    EXPECT_EQ(spec.label, label);
    ManagerSpec again;
    ASSERT_TRUE(parse_manager(spec.label, &again));
    EXPECT_EQ(again.kind, spec.kind);
    EXPECT_EQ(again.sharp.num_task_graphs, spec.sharp.num_task_graphs);
    EXPECT_EQ(again.sharp.freq_mhz, spec.sharp.freq_mhz);
  }
  // A bare TG count clocks at Table I's test frequency, as the nexus-bench
  // experiment table spells it.
  ManagerSpec six;
  ASSERT_TRUE(parse_manager("nexus#-6TG", &six));
  EXPECT_EQ(six.label, ManagerSpec::nexussharp(6).label);
  EXPECT_EQ(six.sharp.freq_mhz, ManagerSpec::nexussharp(6).sharp.freq_mhz);
  ManagerSpec unused;
  for (const char* bad : {"", "nexus#", "nexus#-0TG", "nexus#-6XY", "nexus#-6TG@",
                          "nexus#-6TG@fastMHz", "nexus#-6TG@-5MHz", "kernel-heap"})
    EXPECT_FALSE(parse_manager(bad, &unused)) << bad;
}

TEST(Harness, TopologyAndPlacementLabelsJoinBothAxes) {
  ManagerSpec spec = ManagerSpec::nexussharp(6);
  RuntimeConfig rc;
  EXPECT_EQ(topology_label(spec, rc), "ideal");
  EXPECT_EQ(placement_label(spec, rc), "default");

  spec.sharp.noc.kind = noc::TopologyKind::kTorus;
  EXPECT_EQ(topology_label(spec, rc), "torus");

  spec.sharp.noc.placement = {0, 1, 2, 3, 4, 5, 6, 7};
  spec.sharp.noc.placement_name = "optimized";
  EXPECT_EQ(placement_label(spec, rc), "optimized");

  // Host-side-only placement keeps its own label; mixed axes combine.
  ManagerSpec plain = ManagerSpec::nexussharp(6);
  rc.noc.placement_name = "opt-host";
  EXPECT_EQ(placement_label(plain, rc), "host-opt-host");
  EXPECT_EQ(placement_label(spec, rc), "optimized+host-opt-host");

  // The record serializer emits both optional fields only when non-default.
  const std::string rec = metrics_report_json(
      "b", "w", "m", 8, 1000, 1.0, nullptr, nullptr, "torus", "optimized");
  EXPECT_NE(rec.find("\"topology\":\"torus\""), std::string::npos);
  EXPECT_NE(rec.find("\"placement\":\"optimized\""), std::string::npos);
  const std::string plain_rec =
      metrics_report_json("b", "w", "m", 8, 1000, 1.0, nullptr);
  EXPECT_EQ(plain_rec.find("\"topology\""), std::string::npos);
  EXPECT_EQ(plain_rec.find("\"placement\""), std::string::npos);
}

TEST(Harness, ManagersOrderOnFineGrainedWork) {
  // The paper's qualitative result in one assertion: on fine-grained
  // wavefront work with many cores, ideal >= nexus# >= nexus++ and all
  // managers beat Nanos.
  const Trace tr = workloads::make_h264dec(workloads::h264_config(4));
  const Tick base = ideal_baseline(tr);
  const std::vector<std::uint32_t> cores{32};
  const double ideal =
      sweep(tr, ManagerSpec::ideal(), cores, base).max_speedup();
  const double sharp =
      sweep(tr, ManagerSpec::nexussharp(6), cores, base).max_speedup();
  const double npp =
      sweep(tr, ManagerSpec::nexuspp_default(), cores, base).max_speedup();
  const double nanos =
      sweep(tr, ManagerSpec::nanos_default(), cores, base).max_speedup();
  EXPECT_GE(ideal, sharp);
  EXPECT_GE(sharp, npp);
  EXPECT_GT(sharp, nanos);
}

// ---------------------------------------------------------------------------
// Serving harness: run_serving field reconciliation and knee-search
// bracketing on a small open-loop configuration.
// ---------------------------------------------------------------------------

workloads::ArrivalConfig serving_config() {
  workloads::ArrivalConfig cfg;
  cfg.tasks = 300;
  cfg.clients = 4;
  cfg.kernel = "h264dec-8x8-10f";
  return cfg;
}

TEST(Serving, RunServingFillsAConsistentPoint) {
  const workloads::ArrivalConfig cfg = serving_config();
  const ServingPoint p =
      run_serving(cfg, /*rate_hz=*/20000.0, ManagerSpec::nexussharp(4), 16,
                  {}, nullptr, {{"serving/knee_hz", 12345}});
  EXPECT_EQ(p.tasks, cfg.tasks);
  EXPECT_GT(p.horizon, 0);
  // The run cannot finish before the last arrival.
  EXPECT_GE(p.makespan, p.horizon);
  // Realized offered rate tracks the requested one (same seed, 300 draws).
  EXPECT_NEAR(p.offered_hz, 20000.0, 0.2 * 20000.0);
  EXPECT_GT(p.accepted_hz, 0.0);
  EXPECT_LE(p.accepted_hz, p.offered_hz + 1.0);
  // Quantiles were extracted and are ordered.
  EXPECT_GT(p.p50_ps, 0.0);
  EXPECT_LE(p.p50_ps, p.p95_ps);
  EXPECT_LE(p.p95_ps, p.p99_ps);
  EXPECT_LE(p.p99_ps, p.p999_ps);
  // The context gauges landed in the same snapshot as the measurements.
  ASSERT_NE(p.report.metrics, nullptr);
  EXPECT_EQ(p.report.metrics->gauge_at("serving/rate_hz"), 20000);
  EXPECT_EQ(p.report.metrics->gauge_at("serving/knee_hz"), 12345);
  EXPECT_EQ(p.report.metrics->counter_at("runtime/offered"), cfg.tasks);
  EXPECT_EQ(p.report.metrics->counter_at("runtime/accepted"), cfg.tasks);
}

TEST(Serving, FindKneeBracketsTheSaturationRate) {
  const workloads::ArrivalConfig cfg = serving_config();
  KneeSearch search;
  search.p99_budget_ps = ms(8.0);
  search.lo_hz = 5000.0;
  search.bisect_iters = 5;
  const KneeResult r =
      find_knee(cfg, search, ManagerSpec::nexussharp(4), 16);
  ASSERT_TRUE(r.bracketed);
  EXPECT_EQ(r.outcome, KneeOutcome::kBracketed);
  EXPECT_STREQ(to_string(r.outcome), "bracketed");
  ASSERT_GT(r.knee_hz, 0.0);
  EXPECT_GE(r.knee_hz, search.lo_hz);
  EXPECT_GT(r.probes, 2u);
  // The knee point itself meets the budget...
  EXPECT_LE(r.knee.p99_ps, static_cast<double>(search.p99_budget_ps));
  EXPECT_EQ(r.knee.rate_hz, r.knee_hz);
  // ...and a rate well past it violates the budget (saturation is real).
  const ServingPoint beyond =
      run_serving(cfg, 4.0 * r.knee_hz, ManagerSpec::nexussharp(4), 16);
  EXPECT_GT(beyond.p99_ps, static_cast<double>(search.p99_budget_ps));
}

TEST(Serving, KneeSearchIsDeterministic) {
  const workloads::ArrivalConfig cfg = serving_config();
  KneeSearch search;
  search.p99_budget_ps = ms(8.0);
  search.lo_hz = 5000.0;
  search.bisect_iters = 4;
  const KneeResult a = find_knee(cfg, search, ManagerSpec::nexussharp(4), 16);
  const KneeResult b = find_knee(cfg, search, ManagerSpec::nexussharp(4), 16);
  EXPECT_EQ(a.knee_hz, b.knee_hz);
  EXPECT_EQ(a.probes, b.probes);
  EXPECT_EQ(a.knee.makespan, b.knee.makespan);
  EXPECT_EQ(a.knee.p99_ps, b.knee.p99_ps);
}

TEST(Serving, UnattainableBudgetReportsUnbracketed) {
  const workloads::ArrivalConfig cfg = serving_config();
  KneeSearch search;
  // A budget below any task's execution time fails even unloaded.
  search.p99_budget_ps = 1;
  search.lo_hz = 1000.0;
  const KneeResult r =
      find_knee(cfg, search, ManagerSpec::nexussharp(4), 16);
  EXPECT_FALSE(r.bracketed);
  EXPECT_EQ(r.outcome, KneeOutcome::kUnattainable);
  EXPECT_EQ(r.knee_hz, 0.0);
  EXPECT_EQ(r.probes, 1u);
  // The violating lo_hz point is kept for diagnosis: how far off was the
  // budget at the lightest load probed.
  EXPECT_EQ(r.knee.rate_hz, search.lo_hz);
  EXPECT_GT(r.knee.p99_ps, static_cast<double>(search.p99_budget_ps));
}

TEST(Serving, GenerousBudgetReportsLowerBoundNotKnee) {
  const workloads::ArrivalConfig cfg = serving_config();
  KneeSearch search;
  // A budget nothing can violate within two doublings: the search must say
  // "lower bound", not claim a bracketed knee.
  search.p99_budget_ps = static_cast<Tick>(ms(8.0)) * 1000000;
  search.lo_hz = 1000.0;
  search.max_doublings = 2;
  const KneeResult r =
      find_knee(cfg, search, ManagerSpec::nexussharp(4), 16);
  EXPECT_FALSE(r.bracketed);
  EXPECT_EQ(r.outcome, KneeOutcome::kLowerBound);
  EXPECT_STREQ(to_string(r.outcome), "lower-bound");
  // Every probed rate passed; the best one is lo * 2^max_doublings.
  EXPECT_DOUBLE_EQ(r.knee_hz, 4000.0);
  EXPECT_EQ(r.probes, 3u);
}

}  // namespace
}  // namespace nexus::harness
