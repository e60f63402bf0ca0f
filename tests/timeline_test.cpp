// TimelineRecorder tests: glob selection, sampling cadence on the sim-time
// grid, delta-encoding round-trips, auto-coarsening, zero-padded late
// series, empty-registry no-ops, and the two whole-stack contracts — a
// timeline never changes a run's makespan, and identical runs produce
// bit-identical timeline JSON.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "nexus/harness/experiment.hpp"
#include "nexus/nexussharp/nexussharp.hpp"
#include "nexus/runtime/simulation_driver.hpp"
#include "nexus/telemetry/json.hpp"
#include "nexus/telemetry/registry.hpp"
#include "nexus/telemetry/timeline.hpp"
#include "nexus/telemetry/writers.hpp"
#include "nexus/workloads/workloads.hpp"

namespace nexus {
namespace {

using telemetry::MetricRegistry;
using telemetry::Timeline;
using telemetry::TimelineConfig;
using telemetry::TimelineRecorder;

// ---------- glob matching ----------

TEST(PathGlob, LiteralAndSingleSegmentStar) {
  EXPECT_TRUE(telemetry::path_glob_match("a/b/c", "a/b/c"));
  EXPECT_FALSE(telemetry::path_glob_match("a/b/c", "a/b/d"));
  EXPECT_TRUE(telemetry::path_glob_match("nexus#/tg*/routed", "nexus#/tg0/routed"));
  EXPECT_TRUE(telemetry::path_glob_match("nexus#/tg*/routed", "nexus#/tg12/routed"));
  // '*' must not cross a '/' boundary.
  EXPECT_FALSE(telemetry::path_glob_match("nexus#/*", "nexus#/tg0/routed"));
  EXPECT_TRUE(telemetry::path_glob_match("nexus#/*/routed", "nexus#/tg0/routed"));
  EXPECT_FALSE(
      telemetry::path_glob_match("nexus#/*/routed", "nexus#/a/b/routed"));
}

TEST(PathGlob, DoubleStarCrossesSegments) {
  EXPECT_TRUE(telemetry::path_glob_match("**", "a/b/c"));
  EXPECT_TRUE(telemetry::path_glob_match("nexus#/**", "nexus#/tg0/table/fill"));
  EXPECT_TRUE(telemetry::path_glob_match("**/stalls", "nexus#/tg3/table/stalls"));
  EXPECT_FALSE(telemetry::path_glob_match("**/stalls", "nexus#/tg3/table/fill"));
}

TEST(PathGlob, QuestionMarkMatchesOneNonSlashChar) {
  EXPECT_TRUE(telemetry::path_glob_match("tg?", "tg0"));
  EXPECT_FALSE(telemetry::path_glob_match("tg?", "tg10"));
  EXPECT_FALSE(telemetry::path_glob_match("a?b", "a/b"));
  EXPECT_FALSE(telemetry::path_glob_match("tg?", "tg"));
}

TEST(PathGlob, EmptySelectorListSelectsEverything) {
  EXPECT_TRUE(telemetry::selectors_match({}, "anything/at/all"));
  EXPECT_TRUE(telemetry::selectors_match({"x", "any*"}, "anything"));
  EXPECT_FALSE(telemetry::selectors_match({"x", "y"}, "z"));
}

// ---------- delta encoding ----------

TEST(DeltaEncoding, RoundTripsIncludingNegativesAndEmpty) {
  const std::vector<std::int64_t> cases[] = {
      {}, {42}, {0, 1, 3, 3, 10}, {5, -7, 100, -100, 0}};
  for (const auto& v : cases) {
    EXPECT_EQ(telemetry::delta_decode(telemetry::delta_encode(v)), v);
  }
  EXPECT_EQ(telemetry::delta_encode({10, 12, 12, 20}),
            (std::vector<std::int64_t>{10, 2, 0, 8}));
}

// ---------- recorder mechanics ----------

TEST(TimelineRecorderTest, SamplesOnTheGridIncludingTimeZero) {
  MetricRegistry reg;
  auto& c = reg.counter("c");
  TimelineConfig cfg;
  cfg.interval_ps = 10;
  TimelineRecorder rec(reg, cfg);

  c.inc(5);
  rec.sample_until(0);  // grid point 0 only
  EXPECT_EQ(rec.rows(), 1u);
  c.inc(5);
  rec.sample_until(35);  // grid points 10, 20, 30
  EXPECT_EQ(rec.rows(), 4u);

  const Timeline tl = rec.freeze();
  EXPECT_EQ(tl.t, (std::vector<telemetry::TimeTick>{0, 10, 20, 30}));
  ASSERT_NE(tl.find("c"), nullptr);
  EXPECT_EQ(tl.find("c")->v, (std::vector<std::int64_t>{5, 10, 10, 10}));
}

TEST(TimelineRecorderTest, GlobSelectionAndHistogramSplitting) {
  MetricRegistry reg;
  reg.counter("nexus#/tg0/routed").inc(3);
  reg.counter("nexus#/tg1/routed").inc(4);
  reg.counter("nexus#/finishes").inc(9);
  reg.gauge("runtime/cores").set(8);
  reg.histogram("nexus#/pool/occupancy").record(7);
  reg.histogram("nexus#/pool/occupancy").record(9);

  TimelineConfig cfg;
  cfg.interval_ps = 10;
  cfg.select = {"nexus#/tg*/routed", "nexus#/pool/occupancy"};
  TimelineRecorder rec(reg, cfg);
  rec.sample_until(0);

  const Timeline tl = rec.freeze();
  ASSERT_EQ(tl.series.size(), 4u);  // tg0, tg1, occupancy:count, occupancy:sum
  EXPECT_NE(tl.find("nexus#/tg0/routed"), nullptr);
  EXPECT_NE(tl.find("nexus#/tg1/routed"), nullptr);
  EXPECT_EQ(tl.find("nexus#/finishes"), nullptr);
  EXPECT_EQ(tl.find("runtime/cores"), nullptr);
  ASSERT_NE(tl.find("nexus#/pool/occupancy:count"), nullptr);
  ASSERT_NE(tl.find("nexus#/pool/occupancy:sum"), nullptr);
  EXPECT_EQ(tl.find("nexus#/pool/occupancy:count")->v.front(), 2);
  EXPECT_EQ(tl.find("nexus#/pool/occupancy:sum")->v.front(), 16);
}

TEST(TimelineRecorderTest, EmptyRegistryIsANoOp) {
  MetricRegistry reg;
  TimelineConfig cfg;
  cfg.interval_ps = 10;
  TimelineRecorder rec(reg, cfg);
  rec.sample_until(100);
  rec.finish(105);
  EXPECT_EQ(reg.size(), 0u);  // sampling must never create metrics
  const Timeline tl = rec.freeze();
  EXPECT_TRUE(tl.series.empty());
  EXPECT_EQ(tl.t.size(), rec.rows());
}

TEST(TimelineRecorderTest, LateMetricsAreZeroPaddedToAlign) {
  MetricRegistry reg;
  reg.counter("early").inc(1);
  TimelineConfig cfg;
  cfg.interval_ps = 10;
  TimelineRecorder rec(reg, cfg);
  rec.sample_until(20);  // rows at 0, 10, 20 with only "early"

  reg.counter("late").inc(7);  // registered mid-run
  rec.sample_until(40);        // rows at 30, 40

  const Timeline tl = rec.freeze();
  ASSERT_EQ(tl.t.size(), 5u);
  ASSERT_NE(tl.find("late"), nullptr);
  EXPECT_EQ(tl.find("late")->v, (std::vector<std::int64_t>{0, 0, 0, 7, 7}));
  EXPECT_EQ(tl.find("early")->v.size(), 5u);
}

TEST(TimelineRecorderTest, CoarseningBoundsRowsAndKeepsCoverage) {
  MetricRegistry reg;
  auto& c = reg.counter("c");
  TimelineConfig cfg;
  cfg.interval_ps = 1;
  cfg.max_points = 8;
  TimelineRecorder rec(reg, cfg);

  for (telemetry::TimeTick t = 0; t <= 1000; ++t) {
    c.inc();
    rec.sample_until(t);
  }
  EXPECT_LE(rec.rows(), 8u);
  EXPECT_GT(rec.interval(), 1);  // doubled at least once

  const Timeline tl = rec.freeze();
  EXPECT_EQ(tl.t.front(), 0);
  EXPECT_GE(tl.t.back(), 1000 - tl.interval);  // still covers the whole run
  // Rows survived decimation with their original (time, value) pairing:
  // the counter is incremented once per tick before sampling, so each row's
  // value is its timestamp + 1.
  const auto* s = tl.find("c");
  ASSERT_NE(s, nullptr);
  for (std::size_t i = 0; i < tl.t.size(); ++i)
    EXPECT_EQ(s->v[i], tl.t[i] + 1) << "row " << i;
}

TEST(TimelineRecorderTest, FinishRowSurvivesCoarseningAtTheCap) {
  // Regression: finish() used to append first and coarsen after, so with an
  // exactly-full grid the final makespan row landed on an odd index and was
  // immediately decimated away.
  MetricRegistry reg;
  reg.counter("c").inc(1);
  TimelineConfig cfg;
  cfg.interval_ps = 1;
  cfg.max_points = 7;
  TimelineRecorder rec(reg, cfg);
  rec.sample_until(6);  // exactly 7 grid rows: t = 0..6
  ASSERT_EQ(rec.rows(), 7u);
  rec.finish(100);
  EXPECT_LE(rec.rows(), cfg.max_points);
  EXPECT_EQ(rec.freeze().t.back(), 100);
}

TEST(TimelineRecorderTest, FinishAddsOneOffGridRowOnce) {
  MetricRegistry reg;
  reg.counter("c").inc(2);
  TimelineConfig cfg;
  cfg.interval_ps = 10;
  TimelineRecorder rec(reg, cfg);
  rec.sample_until(20);
  EXPECT_EQ(rec.rows(), 3u);
  rec.finish(25);
  EXPECT_EQ(rec.rows(), 4u);
  rec.finish(25);  // second finish at the same time is a no-op
  EXPECT_EQ(rec.rows(), 4u);
  rec.finish(20);  // a finish not past the last row is a no-op
  EXPECT_EQ(rec.rows(), 4u);
  EXPECT_EQ(rec.freeze().t.back(), 25);
}

// ---------- export ----------

TEST(TimelineExport, JsonDeltaRoundTripsThroughTheParser) {
  MetricRegistry reg;
  auto& c = reg.counter("flow");
  auto& g = reg.gauge("level");
  TimelineConfig cfg;
  cfg.interval_ps = 10;
  TimelineRecorder rec(reg, cfg);
  const std::int64_t gauge_walk[] = {5, -3, 12, 0};
  for (telemetry::TimeTick t = 0; t < 4; ++t) {
    c.inc(static_cast<std::uint64_t>(t) * 7);
    g.set(gauge_walk[t]);
    rec.sample_until(t * 10);
  }
  const Timeline tl = rec.freeze();
  const std::string doc = telemetry::timeline_json(tl);

  telemetry::JsonValue v;
  std::string error;
  ASSERT_TRUE(telemetry::json_parse(doc, &v, &error)) << error;
  EXPECT_EQ(v.find("encoding")->str, "delta");
  EXPECT_EQ(v.find("points")->int_or(0), 4);

  auto decode = [](const telemetry::JsonValue& arr) {
    std::vector<std::int64_t> raw;
    for (const auto& e : arr.array) raw.push_back(e.int_or(0));
    return telemetry::delta_decode(raw);
  };
  EXPECT_EQ(decode(*v.find("t")), (std::vector<std::int64_t>{0, 10, 20, 30}));
  const telemetry::JsonValue* series = v.find("series");
  ASSERT_NE(series, nullptr);
  EXPECT_EQ(decode(*series->find("flow")->find("v")), tl.find("flow")->v);
  // Gauges are exported raw (they are not monotone), so no decoding needed.
  std::vector<std::int64_t> gauge_vals;
  for (const auto& e : series->find("level")->find("v")->array)
    gauge_vals.push_back(e.int_or(0));
  EXPECT_EQ(gauge_vals, tl.find("level")->v);
  EXPECT_EQ(gauge_vals, (std::vector<std::int64_t>{5, -3, 12, 0}));
}

// ---------- whole-stack contracts ----------

Trace small_gaussian() { return workloads::make_gaussian({.n = 60}); }

RunResult run_small(TimelineRecorder* rec, telemetry::MetricRegistry* reg) {
  NexusSharpConfig cfg;
  cfg.num_task_graphs = 4;
  cfg.freq_mhz = 100.0;
  NexusSharp mgr(cfg);
  RuntimeConfig rc;
  rc.workers = 8;
  rc.metrics = reg;
  rc.timeline = rec;
  const Trace tr = small_gaussian();
  return run_trace(tr, mgr, rc);
}

TEST(TimelineIntegration, AttachingATimelineDoesNotChangeTheMakespan) {
  telemetry::MetricRegistry reg_plain;
  const RunResult plain = run_small(nullptr, &reg_plain);

  telemetry::MetricRegistry reg_tl;
  TimelineConfig cfg;
  cfg.interval_ps = us(50.0);
  TimelineRecorder rec(reg_tl, cfg);
  const RunResult with_tl = run_small(&rec, &reg_tl);

  EXPECT_EQ(plain.makespan, with_tl.makespan);
  EXPECT_EQ(plain.events, with_tl.events);
  EXPECT_GT(rec.rows(), 2u);
  // The end-of-run snapshots must also be identical.
  EXPECT_EQ(telemetry::snapshot_json(reg_plain.snapshot()),
            telemetry::snapshot_json(reg_tl.snapshot()));
}

TEST(TimelineIntegration, DeterministicAcrossIdenticalRuns) {
  std::string json[2];
  for (int i = 0; i < 2; ++i) {
    telemetry::MetricRegistry reg;
    TimelineConfig cfg;
    cfg.interval_ps = us(50.0);
    TimelineRecorder rec(reg, cfg);
    (void)run_small(&rec, &reg);
    json[i] = telemetry::timeline_json(rec.freeze());
  }
  EXPECT_EQ(json[0], json[1]);
  EXPECT_GT(json[0].size(), 100u);
}

TEST(TimelineIntegration, FinalRowLandsOnTheMakespanWithSettledCounters) {
  telemetry::MetricRegistry reg;
  TimelineConfig cfg;
  cfg.interval_ps = us(50.0);
  TimelineRecorder rec(reg, cfg);
  const RunResult r = run_small(&rec, &reg);
  const Timeline tl = rec.freeze();
  ASSERT_FALSE(tl.t.empty());
  EXPECT_EQ(tl.t.back(), r.makespan);
  const auto* fin = tl.find("nexus#/finishes");
  ASSERT_NE(fin, nullptr);
  EXPECT_EQ(fin->v.back(), static_cast<std::int64_t>(r.tasks));
  // Monotone series really are monotone over sim time.
  for (std::size_t i = 1; i < fin->v.size(); ++i)
    EXPECT_LE(fin->v[i - 1], fin->v[i]);
}

TEST(TimelineIntegration, PreRunAttachStaysBitIdenticalWithSetSampler) {
  // A timeline bound before the first event samples every grid point from
  // t = 0 with the live metric values (no skipped rows).
  struct Noop final : Component {
    void handle(Simulation&, const Event&) override {}
  };
  telemetry::MetricRegistry reg;
  reg.counter("c").inc(2);
  Simulation sim;
  Noop comp;
  const std::uint32_t id = sim.add_component(&comp);
  TimelineConfig cfg;
  cfg.interval_ps = 10;
  TimelineRecorder rec(reg, cfg);
  sim.bind({.timeline = &rec});
  sim.schedule(0, id, 0);
  sim.schedule(25, id, 0);
  sim.run();
  const Timeline tl = rec.freeze();
  EXPECT_EQ(tl.t, (std::vector<telemetry::TimeTick>{0, 10, 20}));
  EXPECT_EQ(tl.find("c")->v, (std::vector<std::int64_t>{2, 2, 2}));
}

TEST(TimelineIntegration, BenchConfigSelectsContentionPathsOfBothManagers) {
  const auto select = harness::bench_timeline_config().select;
  // The stall-burst series are the point of the fig-bench timelines; the
  // selectors must reach the nested per-TGU layout, not just Nexus++'s.
  EXPECT_TRUE(telemetry::selectors_match(select, "nexus#/tg0/table/stalls"));
  EXPECT_TRUE(telemetry::selectors_match(select, "nexus#/tg11/table/stalls"));
  EXPECT_TRUE(telemetry::selectors_match(select, "nexus++/table/stalls"));
  EXPECT_TRUE(telemetry::selectors_match(select, "nexus#/arbiter/conflicts"));
  EXPECT_TRUE(telemetry::selectors_match(select, "nexus#/tg3/routed"));
  EXPECT_FALSE(telemetry::selectors_match(select, "runtime/core0/busy_ps"));
}

TEST(TimelineIntegration, HarnessRunOnceReportAttachesFrozenTimeline) {
  const Trace tr = small_gaussian();
  const auto spec = harness::ManagerSpec::nexussharp(2, 100.0);
  telemetry::TimelineConfig cfg;
  cfg.interval_ps = us(50.0);
  const harness::RunReport rep =
      harness::run_once_report(tr, spec, 4, {}, true, &cfg);
  ASSERT_NE(rep.timeline, nullptr);
  ASSERT_NE(rep.metrics, nullptr);
  EXPECT_FALSE(rep.timeline->t.empty());
  EXPECT_EQ(rep.timeline->t.back(), rep.result.makespan);

  // Without a config the report carries no timeline (back-compat).
  const harness::RunReport plain =
      harness::run_once_report(tr, spec, 4, {}, true);
  EXPECT_EQ(plain.timeline, nullptr);
  EXPECT_EQ(plain.result.makespan, rep.result.makespan);
  ASSERT_NE(plain.metrics, nullptr);
  EXPECT_GT(plain.metrics->counter_at("nexus#/tasks_in"), 0u);
  // Telemetry must not change simulated time.
  EXPECT_EQ(harness::run_once(tr, spec, 4), rep.result.makespan);
}

}  // namespace
}  // namespace nexus
