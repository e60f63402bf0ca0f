// nexus-perfdiff library tests: the strict JSON reader, BENCH record
// parsing (schema 1 and 2, malformed inputs rejected), and the comparator
// on fixture records — identical records pass, a doctored makespan or
// conflict burst regresses, an improvement passes.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "nexus/harness/perfdiff.hpp"
#include "nexus/telemetry/json.hpp"

namespace nexus {
namespace {

using harness::BenchRecord;
using harness::parse_bench_records;
using harness::PerfdiffOptions;
using harness::PerfdiffResult;
using telemetry::JsonValue;

// ---------- JSON reader ----------

TEST(JsonParse, ScalarsArraysAndNestedObjects) {
  JsonValue v;
  std::string error;
  ASSERT_TRUE(telemetry::json_parse(
      R"({"a": 1, "b": -2.5, "c": [true, false, null], "d": {"e": "hi\n"}})",
      &v, &error))
      << error;
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.find("a")->int_or(0), 1);
  EXPECT_TRUE(v.find("a")->is_integer);
  EXPECT_DOUBLE_EQ(v.find("b")->num_or(0), -2.5);
  EXPECT_FALSE(v.find("b")->is_integer);
  ASSERT_EQ(v.find("c")->array.size(), 3u);
  EXPECT_TRUE(v.find("c")->array[0].boolean);
  EXPECT_EQ(v.find("c")->array[2].type, JsonValue::Type::kNull);
  EXPECT_EQ(v.find("d")->find("e")->str, "hi\n");
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(JsonParse, KeepsLargeIntegersExact) {
  // 2^53 + 1 is not representable in a double; the reader must keep it.
  JsonValue v;
  ASSERT_TRUE(telemetry::json_parse("9007199254740993", &v, nullptr));
  EXPECT_TRUE(v.is_integer);
  EXPECT_EQ(v.integer, 9007199254740993LL);
}

TEST(JsonParse, IntOrSaturatesOutOfRangeDoubles) {
  // Regression: the float->int64 cast on a 1e23 "makespan" was UB and
  // wrapped negative, turning an absurd regression into an "improvement".
  JsonValue v;
  ASSERT_TRUE(telemetry::json_parse("1e23", &v, nullptr));
  EXPECT_FALSE(v.is_integer);
  EXPECT_EQ(v.int_or(0), INT64_MAX);
  ASSERT_TRUE(telemetry::json_parse("-1e23", &v, nullptr));
  EXPECT_EQ(v.int_or(0), INT64_MIN);
}

TEST(JsonParse, RejectsMalformedDocuments) {
  const char* bad[] = {
      "",           "{",        "[1,]",       "{\"a\":}",  "{\"a\" 1}",
      "[1] trailing", "\"unterminated", "{\"a\":1,}", "nul",     "01x",
      "{\"a\": \x01\"b\"}", "\"\\ud83d\\ude00\"", "\"\\udc00\"",
  };
  for (const char* text : bad) {
    JsonValue v;
    std::string error;
    EXPECT_FALSE(telemetry::json_parse(text, &v, &error)) << text;
    EXPECT_FALSE(error.empty()) << text;
  }
}

TEST(JsonParse, RejectsOverDeepNesting) {
  std::string deep(200, '[');
  deep += std::string(200, ']');
  JsonValue v;
  std::string error;
  EXPECT_FALSE(telemetry::json_parse(deep, &v, &error));
}

// ---------- record parsing ----------

const char* kRecord = R"([
{"schema":2,"bench":"table2","workload":"c-ray","manager":"nexus#","cores":32,
 "makespan":1000000,"speedup":31.4,
 "metrics":{"nexus#/arbiter/conflicts":40,"runtime/tasks":100,
            "nexus#/pool/occupancy":{"count":10,"sum":50,"min":1,"max":9,"mean":5.0}},
 "timeline":{"interval_ps":10,"points":1,"encoding":"delta","t":[0],
             "series":{"m":{"kind":"counter","v":[1]}}}}
])";

TEST(BenchRecords, ParsesSchema2WithFlattenedHistograms) {
  std::vector<BenchRecord> recs;
  std::string error;
  ASSERT_TRUE(parse_bench_records(kRecord, &recs, &error)) << error;
  ASSERT_EQ(recs.size(), 1u);
  const BenchRecord& r = recs[0];
  EXPECT_EQ(r.schema, 2);
  // No "topology" field => ideal, so pre-NoC baselines join against ideal
  // candidates.
  EXPECT_EQ(r.topology, "ideal");
  EXPECT_EQ(r.key(), "table2|c-ray|nexus#|ideal|32");
  EXPECT_EQ(r.makespan, 1000000);
  EXPECT_DOUBLE_EQ(r.speedup, 31.4);
  EXPECT_DOUBLE_EQ(r.metric_sum("*/arbiter/conflicts"), 40.0);
  EXPECT_DOUBLE_EQ(r.metric_sum("nexus#/pool/occupancy:count"), 10.0);
  EXPECT_DOUBLE_EQ(r.metric_sum("nexus#/pool/occupancy:mean"), 5.0);
  EXPECT_DOUBLE_EQ(r.tasks(), 100.0);
}

TEST(BenchRecords, TopologyFieldJoinsSeparately) {
  std::vector<BenchRecord> recs;
  std::string error;
  ASSERT_TRUE(parse_bench_records(
      R"([{"schema":2,"bench":"ablation_topology","workload":"h264dec-8x8-10f",
           "manager":"nexus#-6TG@55.56MHz","topology":"mesh","cores":8,
           "makespan":5,"speedup":1.0,"metrics":{}}])",
      &recs, &error))
      << error;
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].topology, "mesh");
  EXPECT_EQ(recs[0].key(),
            "ablation_topology|h264dec-8x8-10f|nexus#-6TG@55.56MHz|mesh|8");
}

TEST(BenchRecords, SchemalessRecordsAreSchema1) {
  std::vector<BenchRecord> recs;
  std::string error;
  ASSERT_TRUE(parse_bench_records(
      R"({"bench":"b","workload":"w","manager":"m","cores":1,"makespan":5,
          "speedup":1.0,"metrics":{}})",
      &recs, &error))
      << error;
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].schema, 1);
  EXPECT_DOUBLE_EQ(recs[0].tasks(), 1.0);  // no runtime/tasks -> unit divisor
}

TEST(BenchRecords, RejectsUnknownSchemaAndMalformedInput) {
  std::vector<BenchRecord> recs;
  std::string error;
  EXPECT_FALSE(parse_bench_records(
      R"([{"schema":99,"bench":"b","makespan":1}])", &recs, &error));
  EXPECT_NE(error.find("schema"), std::string::npos);

  EXPECT_FALSE(parse_bench_records("[{", &recs, &error));
  EXPECT_FALSE(parse_bench_records("42", &recs, &error));
  EXPECT_FALSE(parse_bench_records(R"([{"workload":"no-bench-field"}])",
                                   &recs, &error));
  EXPECT_FALSE(parse_bench_records(
      R"([{"bench":"b","workload":"w","manager":"m","cores":1}])", &recs,
      &error));  // missing makespan
}

// ---------- comparator ----------

BenchRecord fixture(std::int64_t makespan, double conflicts,
                    const std::string& workload = "w") {
  BenchRecord r;
  r.schema = 2;
  r.bench = "table2";
  r.workload = workload;
  r.manager = "nexus#";
  r.cores = 32;
  r.makespan = makespan;
  r.speedup = 1.0;
  r.metrics = {{"nexus#/arbiter/conflicts", conflicts},
               {"runtime/tasks", 100.0}};
  return r;
}

TEST(Perfdiff, IdenticalRecordsPass) {
  const std::vector<BenchRecord> recs{fixture(1000, 40), fixture(2000, 0, "x")};
  const PerfdiffResult res = harness::perfdiff_compare(recs, recs);
  EXPECT_TRUE(res.ok());
  EXPECT_EQ(res.compared, 2);
  EXPECT_EQ(res.regressions, 0);
  EXPECT_NE(res.report.find("0 regression(s)"), std::string::npos);
}

TEST(Perfdiff, MakespanRegressionDetected) {
  const std::vector<BenchRecord> base{fixture(1000, 40)};
  const std::vector<BenchRecord> cand{fixture(1100, 40)};  // +10% > 2% limit
  const PerfdiffResult res = harness::perfdiff_compare(base, cand);
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.regressions, 1);
  EXPECT_NE(res.report.find("REGRESS"), std::string::npos);
  EXPECT_NE(res.report.find("makespan"), std::string::npos);
}

TEST(Perfdiff, ImprovementPassesAndIsCounted) {
  const std::vector<BenchRecord> base{fixture(1000, 40)};
  const std::vector<BenchRecord> cand{fixture(900, 40)};  // -10%
  const PerfdiffResult res = harness::perfdiff_compare(base, cand);
  EXPECT_TRUE(res.ok());
  EXPECT_EQ(res.improvements, 1);
  EXPECT_NE(res.report.find("faster"), std::string::npos);
  // One line per record: an improved record must not also print [ok].
  EXPECT_EQ(res.report.find("[ok]"), std::string::npos);
}

TEST(Perfdiff, MetricRateRegressionDetectedEvenWithEqualMakespan) {
  const std::vector<BenchRecord> base{fixture(1000, 40)};
  const std::vector<BenchRecord> cand{fixture(1000, 80)};  // conflict rate x2
  const PerfdiffResult res = harness::perfdiff_compare(base, cand);
  EXPECT_FALSE(res.ok());
  EXPECT_NE(res.report.find("conflict_rate"), std::string::npos);

  // Within tolerance passes: +5% < 10% limit.
  const std::vector<BenchRecord> mild{fixture(1000, 42)};
  EXPECT_TRUE(harness::perfdiff_compare(base, mild).ok());
}

TEST(Perfdiff, DefaultWatchedGlobsReachBothManagerLayouts) {
  // Nexus++ nests the watched counters one level deep, Nexus# two or three;
  // the default globs must reach every layout or the gate is silently dead.
  BenchRecord r;
  r.metrics = {{"nexus++/dep_counts/parked", 1.0},
               {"nexus#/arbiter/dep_counts/parked", 2.0},
               {"nexus++/table/stalls", 4.0},
               {"nexus#/tg0/table/stalls", 8.0},
               {"nexus#/tg11/table/stalls", 16.0},
               {"nexus#/arbiter/conflicts", 32.0},
               {"nexus#/arbiter/retries", 64.0}};
  auto rate_glob = [](const std::string& name) {
    for (const auto& w : harness::default_watched_rates())
      if (w.name == name) return w.numerator;
    return std::string();
  };
  EXPECT_DOUBLE_EQ(r.metric_sum(rate_glob("park_rate")), 3.0);
  EXPECT_DOUBLE_EQ(r.metric_sum(rate_glob("table_stall_rate")), 28.0);
  EXPECT_DOUBLE_EQ(r.metric_sum(rate_glob("conflict_rate")), 32.0);
  EXPECT_DOUBLE_EQ(r.metric_sum(rate_glob("retry_rate")), 64.0);
}

TEST(Perfdiff, NocContentionRatesAreGatedPerTask) {
  // Link contention on every network (manager and host NoCs alike) is a
  // watched per-task rate: more stall time or more blocked reservations
  // past the default band fail even when the makespan holds.
  const auto noc_fixture = [](double stall_ps, double blocked) {
    BenchRecord r = fixture(1000, 40);
    r.metrics.push_back({"nexus#/noc/stall_ps", stall_ps});
    r.metrics.push_back({"runtime/noc/stall_ps", stall_ps});
    r.metrics.push_back({"nexus#/noc/blocked_flits", blocked});
    return r;
  };
  const std::vector<BenchRecord> base{noc_fixture(5e6, 200)};
  EXPECT_TRUE(harness::perfdiff_compare(base, {noc_fixture(5.2e6, 208)}).ok());
  const PerfdiffResult stall =
      harness::perfdiff_compare(base, {noc_fixture(6e6, 200)});
  EXPECT_FALSE(stall.ok());
  EXPECT_NE(stall.report.find("noc_stall_rate"), std::string::npos);
  EXPECT_EQ(stall.report.find("noc_blocked_rate"), std::string::npos);
  const PerfdiffResult blocked =
      harness::perfdiff_compare(base, {noc_fixture(5e6, 240)});
  EXPECT_FALSE(blocked.ok());
  EXPECT_NE(blocked.report.find("noc_blocked_rate"), std::string::npos);
  // Both globs sum every network's counter.
  std::map<std::string, double> sums;
  for (const auto& w : harness::default_watched_rates())
    sums[w.name] = base[0].metric_sum(w.numerator);
  EXPECT_DOUBLE_EQ(sums["noc_stall_rate"], 1e7);
  EXPECT_DOUBLE_EQ(sums["noc_blocked_rate"], 200.0);
}

TEST(Perfdiff, EventsPerTaskAreGatedPerComponentKind) {
  // The kernel counts events per component instance (sim/c<i>_<kind>/
  // events); the gate sums each kind over its instances, per task.
  const auto events_fixture = [](double tg_events) {
    BenchRecord r = fixture(1000, 40);
    r.metrics.push_back({"sim/c0_driver/events", 3000});
    r.metrics.push_back({"sim/c1_io/events", 2000});
    r.metrics.push_back({"sim/c2_arbiter/events", 5000});
    r.metrics.push_back({"sim/c3_tg/events", tg_events / 2});
    r.metrics.push_back({"sim/c12_tg/events", tg_events / 2});
    r.metrics.push_back({"sim/c13_noc/events", 700});
    return r;
  };
  const std::vector<BenchRecord> base{events_fixture(8000)};
  std::map<std::string, double> sums;
  for (const auto& w : harness::default_watched_rates())
    sums[w.name] = base[0].metric_sum(w.numerator);
  EXPECT_DOUBLE_EQ(sums["driver_event_rate"], 3000.0);
  EXPECT_DOUBLE_EQ(sums["io_event_rate"], 2000.0);
  EXPECT_DOUBLE_EQ(sums["arbiter_event_rate"], 5000.0);
  EXPECT_DOUBLE_EQ(sums["tg_event_rate"], 8000.0);
  EXPECT_DOUBLE_EQ(sums["noc_event_rate"], 700.0);
  EXPECT_DOUBLE_EQ(sums["root_event_rate"], 0.0);
  EXPECT_DOUBLE_EQ(sums["npp_event_rate"], 0.0);

  EXPECT_TRUE(harness::perfdiff_compare(base, {events_fixture(8000)}).ok());
  const PerfdiffResult more =
      harness::perfdiff_compare(base, {events_fixture(9600)});
  EXPECT_FALSE(more.ok());
  EXPECT_NE(more.report.find("tg_event_rate"), std::string::npos);
  EXPECT_EQ(more.report.find("io_event_rate"), std::string::npos);
}

BenchRecord simspeed_fixture(double events_per_sec) {
  BenchRecord r;
  r.schema = 2;
  r.bench = "simspeed";
  r.workload = "storm-1000000";
  r.manager = "kernel-heap";
  r.cores = 1;
  r.makespan = 25970;
  r.speedup = 1.0;
  r.metrics = {{"simspeed/events_per_sec", events_per_sec},
               {"simspeed/wall_us", 1e6}};
  return r;
}

TEST(Perfdiff, HigherIsBetterRateRegressesOnCollapseOnly) {
  // Throughput gauges gate in the opposite direction: shrinking past the
  // (generous, wall-clock) tolerance fails, growth never does, and a
  // machine-noise slowdown within the band passes.
  const std::vector<BenchRecord> base{simspeed_fixture(4e6)};
  // -50%: inside the 75% band — machines differ, not a regression.
  EXPECT_TRUE(harness::perfdiff_compare(base, {simspeed_fixture(2e6)}).ok());
  // +300%: faster is always fine.
  EXPECT_TRUE(harness::perfdiff_compare(base, {simspeed_fixture(16e6)}).ok());
  // -95%: the kernel collapsed to below a quarter of the baseline.
  const PerfdiffResult res =
      harness::perfdiff_compare(base, {simspeed_fixture(2e5)});
  EXPECT_FALSE(res.ok());
  EXPECT_NE(res.report.find("sim_events_per_sec"), std::string::npos);
  EXPECT_NE(res.report.find("limit -75.0%"), std::string::npos);
}

TEST(Perfdiff, PerRateToleranceOverridesTheGlobalDefault) {
  // The same -50% shrink fails once the per-rate band is tightened; an
  // overhead-direction rate with a wide override tolerates what the global
  // 10% default would flag.
  const std::vector<BenchRecord> base{simspeed_fixture(4e6)};
  PerfdiffOptions opts;
  opts.watched = {{"sim_events_per_sec", "simspeed/events_per_sec", true, 25.0}};
  EXPECT_FALSE(harness::perfdiff_compare(base, {simspeed_fixture(2e6)}, opts).ok());

  const std::vector<BenchRecord> cbase{fixture(1000, 40)};
  const std::vector<BenchRecord> ccand{fixture(1000, 55)};  // +37.5%
  EXPECT_FALSE(harness::perfdiff_compare(cbase, ccand).ok());
  PerfdiffOptions wide;
  wide.watched = {{"conflict_rate", "**/arbiter/conflicts", false, 50.0}};
  EXPECT_TRUE(harness::perfdiff_compare(cbase, ccand, wide).ok());
}

TEST(Perfdiff, ZeroBaselineRateFlagsNewConflicts) {
  const std::vector<BenchRecord> base{fixture(1000, 0)};
  const std::vector<BenchRecord> cand{fixture(1000, 3)};
  const PerfdiffResult res = harness::perfdiff_compare(base, cand);
  EXPECT_FALSE(res.ok());
  EXPECT_NE(res.report.find("was zero"), std::string::npos);
}

TEST(Perfdiff, AddedAndRemovedRecordsAreReportedNotFailed) {
  const std::vector<BenchRecord> base{fixture(1000, 40, "only-in-base")};
  const std::vector<BenchRecord> cand{fixture(1000, 40, "only-in-cand")};
  const PerfdiffResult res = harness::perfdiff_compare(base, cand);
  EXPECT_TRUE(res.ok());
  EXPECT_EQ(res.compared, 0);
  EXPECT_EQ(res.added, 1);
  EXPECT_EQ(res.removed, 1);
}

TEST(Perfdiff, PlacementIsPartOfTheJoinKey) {
  // A default-layout baseline must not be compared against an optimized
  // candidate of the same bench/workload/manager/topology/cores — they are
  // different configurations, so the optimized row is "new", never a
  // regression even when slower.
  BenchRecord def = fixture(1000, 40);
  BenchRecord opt = fixture(5000, 40);
  opt.placement = "optimized";
  const PerfdiffResult res =
      harness::perfdiff_compare({def}, {def, opt});
  EXPECT_TRUE(res.ok());
  EXPECT_EQ(res.compared, 1);
  EXPECT_EQ(res.added, 1);
  EXPECT_NE(res.report.find("not a regression"), std::string::npos);

  // Same placement on both sides joins (and here regresses on makespan).
  BenchRecord opt_base = opt;
  opt_base.makespan = 1000;
  EXPECT_FALSE(harness::perfdiff_compare({opt_base}, {opt}).ok());
}

TEST(Perfdiff, PlacementFieldRoundTripsAndDefaultsWhenAbsent) {
  std::vector<BenchRecord> recs;
  std::string error;
  const std::string doc =
      "[" +
      std::string(
          R"({"schema":2,"bench":"ablation_placement","workload":"h264dec-8x8-10f","manager":"nexus#-8TG","topology":"torus","placement":"optimized","cores":16,"makespan":7000,"speedup":1.0,"metrics":{}},)") +
      std::string(
          R"({"schema":2,"bench":"ablation_placement","workload":"h264dec-8x8-10f","manager":"nexus#-8TG","topology":"torus","cores":16,"makespan":7000,"speedup":1.0,"metrics":{}})") +
      "]";
  ASSERT_TRUE(parse_bench_records(doc, &recs, &error)) << error;
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].placement, "optimized");
  EXPECT_EQ(recs[1].placement, "default");
  EXPECT_NE(recs[0].key(), recs[1].key());
}

TEST(Perfdiff, ThresholdsAreConfigurable) {
  const std::vector<BenchRecord> base{fixture(1000, 40)};
  const std::vector<BenchRecord> cand{fixture(1100, 40)};
  PerfdiffOptions loose;
  loose.makespan_tolerance_pct = 15.0;
  EXPECT_TRUE(harness::perfdiff_compare(base, cand, loose).ok());
  PerfdiffOptions tight;
  tight.makespan_tolerance_pct = 0.5;
  EXPECT_FALSE(harness::perfdiff_compare(base, cand, tight).ok());
}

TEST(Perfdiff, QuietSuppressesOkLinesButKeepsSummary) {
  const std::vector<BenchRecord> recs{fixture(1000, 40)};
  PerfdiffOptions quiet;
  quiet.quiet = true;
  const PerfdiffResult res = harness::perfdiff_compare(recs, recs, quiet);
  EXPECT_EQ(res.report.find("[ok]"), std::string::npos);
  EXPECT_NE(res.report.find("perfdiff:"), std::string::npos);
}

// End-to-end over the real serializer: a record written by
// metrics_report_json must round-trip through parse_bench_records.
TEST(Perfdiff, RoundTripsRealReportRecords) {
  std::vector<BenchRecord> recs;
  std::string error;
  const std::string doc =
      "[" +
      std::string(
          R"({"schema":2,"bench":"fig9","workload":"gaussian-250","manager":"nexus#-2TG@100MHz","cores":8,"makespan":70761000000,"speedup":1.1,"metrics":{"runtime/tasks":31374}})") +
      "]";
  ASSERT_TRUE(parse_bench_records(doc, &recs, &error)) << error;
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].makespan, 70761000000LL);
  const PerfdiffResult res = harness::perfdiff_compare(recs, recs);
  EXPECT_TRUE(res.ok());
  EXPECT_EQ(res.compared, 1);
}

// ---------- --timelines mode ----------

/// Fixture with an attached two-series timeline (a counter and a gauge).
BenchRecord timeline_fixture(std::vector<std::int64_t> counter_v,
                             std::vector<std::int64_t> gauge_v) {
  BenchRecord r = fixture(1000, 40);
  r.has_timeline = true;
  r.timeline.interval = 10;
  r.timeline.t = {0, 10, 20, 30};
  r.timeline.series.push_back(
      {"nexus#/finishes", telemetry::MetricKind::kCounter,
       std::move(counter_v)});
  r.timeline.series.push_back(
      {"nexus#/pool/occupancy", telemetry::MetricKind::kGauge,
       std::move(gauge_v)});
  return r;
}

TEST(PerfdiffTimelines, ParsesDeltaEncodedTimelineFromRecord) {
  // The on-disk form delta-encodes the t axis and counter-kind series;
  // the parser must undo both and leave gauges raw.
  std::vector<BenchRecord> recs;
  std::string error;
  ASSERT_TRUE(parse_bench_records(
      R"([{"schema":3,"bench":"b","workload":"w","manager":"m","cores":1,
           "makespan":5,"speedup":1.0,"metrics":{},
           "timeline":{"interval_ps":10,"points":3,"encoding":"delta",
                       "t":[0,10,10],
                       "series":{"cnt":{"kind":"counter","v":[1,2,3]},
                                 "gau":{"kind":"gauge","v":[5,-2,7]}}}}])",
      &recs, &error))
      << error;
  ASSERT_EQ(recs.size(), 1u);
  ASSERT_TRUE(recs[0].has_timeline);
  const telemetry::Timeline& tl = recs[0].timeline;
  EXPECT_EQ(tl.interval, 10);
  EXPECT_EQ(tl.t, (std::vector<telemetry::TimeTick>{0, 10, 20}));
  const telemetry::TimelineSeries* cnt = tl.find("cnt");
  ASSERT_NE(cnt, nullptr);
  EXPECT_EQ(cnt->v, (std::vector<std::int64_t>{1, 3, 6}));  // decoded
  const telemetry::TimelineSeries* gau = tl.find("gau");
  ASSERT_NE(gau, nullptr);
  EXPECT_EQ(gau->v, (std::vector<std::int64_t>{5, -2, 7}));  // raw
}

TEST(PerfdiffTimelines, SkippedByDefaultComparedWhenEnabled) {
  const std::vector<BenchRecord> base{timeline_fixture({0, 1, 2, 3},
                                                       {4, 4, 4, 4})};
  const std::vector<BenchRecord> cand{timeline_fixture({0, 1, 2, 9},
                                                       {4, 4, 4, 4})};
  // Default: timelines describe *when*, not *how much* — no gate.
  EXPECT_TRUE(harness::perfdiff_compare(base, cand).ok());
  PerfdiffOptions opts;
  opts.compare_timelines = true;
  const PerfdiffResult res = harness::perfdiff_compare(base, cand, opts);
  EXPECT_FALSE(res.ok());
  EXPECT_NE(res.report.find("nexus#/finishes"), std::string::npos);
  EXPECT_NE(res.report.find("first diverges at t="), std::string::npos);
}

TEST(PerfdiffTimelines, IdenticalTimelinesPassExactly) {
  const std::vector<BenchRecord> recs{timeline_fixture({0, 1, 2, 3},
                                                       {4, 5, 6, 7})};
  PerfdiffOptions opts;
  opts.compare_timelines = true;  // default tolerance: exact
  EXPECT_TRUE(harness::perfdiff_compare(recs, recs, opts).ok());
}

TEST(PerfdiffTimelines, ReportsFirstDivergenceSimTime) {
  // Divergence at rows 2 and 3; only the first (t=20 ps) is reported.
  const std::vector<BenchRecord> base{timeline_fixture({0, 1, 2, 3},
                                                       {4, 4, 4, 4})};
  const std::vector<BenchRecord> cand{timeline_fixture({0, 1, 5, 9},
                                                       {4, 4, 4, 4})};
  PerfdiffOptions opts;
  opts.compare_timelines = true;
  const PerfdiffResult res = harness::perfdiff_compare(base, cand, opts);
  EXPECT_FALSE(res.ok());
  EXPECT_NE(res.report.find("2 -> 5"), std::string::npos) << res.report;
  EXPECT_EQ(res.report.find("3 -> 9"), std::string::npos) << res.report;
}

TEST(PerfdiffTimelines, PerSeriesToleranceFirstGlobWins) {
  const std::vector<BenchRecord> base{timeline_fixture({0, 100, 200, 300},
                                                       {4, 4, 4, 4})};
  const std::vector<BenchRecord> cand{timeline_fixture({0, 104, 208, 312},
                                                       {4, 4, 4, 4})};
  PerfdiffOptions opts;
  opts.compare_timelines = true;
  // Global default stays exact, but the finish-flow series tolerates 5%.
  opts.timeline_tolerances = {{"nexus#/finishes", 5.0}};
  EXPECT_TRUE(harness::perfdiff_compare(base, cand, opts).ok());
  // First match wins: a preceding stricter glob overrides the loose one.
  opts.timeline_tolerances = {{"nexus#/*", 0.0}, {"nexus#/finishes", 5.0}};
  EXPECT_FALSE(harness::perfdiff_compare(base, cand, opts).ok());
}

TEST(PerfdiffTimelines, LostTimelineOrSeriesIsARegression) {
  const BenchRecord with = timeline_fixture({0, 1, 2, 3}, {4, 4, 4, 4});
  BenchRecord without = fixture(1000, 40);
  PerfdiffOptions opts;
  opts.compare_timelines = true;
  // Candidate lost the whole timeline.
  const PerfdiffResult lost =
      harness::perfdiff_compare({with}, {without}, opts);
  EXPECT_FALSE(lost.ok());
  EXPECT_NE(lost.report.find("missing from candidate"), std::string::npos);
  // A candidate *gaining* a timeline is fine (new instrumentation).
  EXPECT_TRUE(harness::perfdiff_compare({without}, {with}, opts).ok());
  // Candidate lost one series.
  BenchRecord fewer = with;
  fewer.timeline.series.pop_back();
  const PerfdiffResult series =
      harness::perfdiff_compare({with}, {fewer}, opts);
  EXPECT_FALSE(series.ok());
  EXPECT_NE(series.report.find("nexus#/pool/occupancy"), std::string::npos);
}

// ---------- quantile gates ----------

/// A schema-3 serving-style record carrying the histogram quantile fields
/// the tail-latency gates watch, plus the knee gauge.
BenchRecord quantile_fixture(double p50, double p99, double p999,
                             double knee_hz = 50000.0) {
  BenchRecord r;
  r.schema = 3;
  r.bench = "ablation_serving";
  r.workload = "serving-poisson-k@knee";
  r.manager = "nexus#";
  r.cores = 32;
  r.makespan = 1000000;
  r.speedup = 1.0;
  r.metrics = {{"runtime/tasks", 100.0},
               {"runtime/sojourn_ps:p50", p50},
               {"runtime/sojourn_ps:p99", p99},
               {"runtime/sojourn_ps:p999", p999},
               {"runtime/serving_latency_ps:p50", p50},
               {"runtime/serving_latency_ps:p99", p99},
               {"runtime/serving_latency_ps:p999", p999},
               {"serving/knee_hz", knee_hz}};
  return r;
}

TEST(PerfdiffQuantiles, P99OnlyRegressionFails) {
  // The makespan and p50 are untouched — only the tail moved. This is
  // exactly the regression shape the quantile gates exist to catch.
  const std::vector<BenchRecord> base{quantile_fixture(1e6, 5e6, 9e6)};
  const std::vector<BenchRecord> cand{quantile_fixture(1e6, 7e6, 9e6)};
  const PerfdiffResult res = harness::perfdiff_compare(base, cand);
  EXPECT_FALSE(res.ok());
  EXPECT_NE(res.report.find("serving_p99"), std::string::npos);
  EXPECT_NE(res.report.find("sojourn_p99"), std::string::npos);
}

TEST(PerfdiffQuantiles, P50NoiseWithinTolerancePasses) {
  // +5% on the median is inside the 10% default band; nothing else moved.
  const std::vector<BenchRecord> base{quantile_fixture(1e6, 5e6, 9e6)};
  const std::vector<BenchRecord> cand{quantile_fixture(1.05e6, 5e6, 9e6)};
  const PerfdiffResult res = harness::perfdiff_compare(base, cand);
  EXPECT_TRUE(res.ok()) << res.report;
}

TEST(PerfdiffQuantiles, P999GetsTheWiderBand) {
  // +12% on p999 is inside its 15% band but would fail p99's 10% band —
  // the extreme tail is allowed more interpolation slack.
  const std::vector<BenchRecord> base{quantile_fixture(1e6, 5e6, 9e6)};
  const std::vector<BenchRecord> cand{quantile_fixture(1e6, 5e6, 10.1e6)};
  const PerfdiffResult res = harness::perfdiff_compare(base, cand);
  EXPECT_TRUE(res.ok()) << res.report;
}

TEST(PerfdiffQuantiles, KneeCollapseFailsGrowthPasses) {
  const std::vector<BenchRecord> base{quantile_fixture(1e6, 5e6, 9e6, 50000)};
  // Knee shrank 20% (> 10% band): a capacity regression.
  std::vector<BenchRecord> cand{quantile_fixture(1e6, 5e6, 9e6, 40000)};
  EXPECT_FALSE(harness::perfdiff_compare(base, cand).ok());
  // Knee grew 20%: higher-is-better, never a failure.
  cand = {quantile_fixture(1e6, 5e6, 9e6, 60000)};
  EXPECT_TRUE(harness::perfdiff_compare(base, cand).ok());
}

TEST(PerfdiffQuantiles, MissingQuantilesOnOldRecordsAreSkippedNotFailed) {
  // A schema-2 baseline has no quantile fields and no knee gauge. Against a
  // schema-3 candidate that carries them, every require_both gate must
  // disengage — not crash, not read absent metrics as zero and flag a
  // was-zero regression.
  const std::vector<BenchRecord> old_base{fixture(1000000, 40)};
  BenchRecord cand3 = fixture(1000000, 40);
  cand3.schema = 3;
  cand3.metrics.emplace_back("runtime/sojourn_ps:p99", 5e6);
  cand3.metrics.emplace_back("runtime/serving_latency_ps:p99", 6e6);
  cand3.metrics.emplace_back("serving/knee_hz", 50000.0);
  const PerfdiffResult res = harness::perfdiff_compare(old_base, {cand3});
  EXPECT_TRUE(res.ok()) << res.report;
  EXPECT_EQ(res.compared, 1);
  // And the reverse direction (quantile baseline, stripped candidate).
  const PerfdiffResult rev = harness::perfdiff_compare({cand3}, old_base);
  EXPECT_TRUE(rev.ok()) << rev.report;
}

TEST(PerfdiffQuantiles, HasMetricDistinguishesAbsentFromZero) {
  const BenchRecord with = quantile_fixture(0.0, 0.0, 0.0, 0.0);
  EXPECT_TRUE(with.has_metric("serving/knee_hz"));
  EXPECT_TRUE(with.has_metric("runtime/sojourn_ps:p99"));
  const BenchRecord without = fixture(1000, 0);
  EXPECT_FALSE(without.has_metric("serving/knee_hz"));
  EXPECT_FALSE(without.has_metric("runtime/*_ps:p99"));
}

// ---------- schema-4 host-time fields (report-only watches) ----------

BenchRecord host_time_fixture(double scale) {
  BenchRecord r = fixture(1000000, 40);
  r.schema = 4;
  r.metrics.emplace_back("prof/push_ns", 1.0e6 * scale);
  r.metrics.emplace_back("prof/pop_ns", 2.0e6 * scale);
  r.metrics.emplace_back("prof/handle_ns", 4.0e6 * scale);
  r.metrics.emplace_back("prof/total_ns", 9.0e6 * scale);
  return r;
}

TEST(PerfdiffHostTime, ReportOnlyFieldsEchoButNeverRegress) {
  // Host wall-clock attribution tracks the machine, not the code under
  // test: a 10x swing must be echoed as an [info] line, never counted as a
  // regression at any tolerance.
  const std::vector<BenchRecord> base{host_time_fixture(1.0)};
  const std::vector<BenchRecord> cand{host_time_fixture(10.0)};
  const PerfdiffResult res = harness::perfdiff_compare(base, cand);
  EXPECT_TRUE(res.ok()) << res.report;
  EXPECT_EQ(res.regressions, 0);
  EXPECT_NE(res.report.find("[info]"), std::string::npos);
  EXPECT_NE(res.report.find("host_pop_ns"), std::string::npos);
  EXPECT_NE(res.report.find("report-only"), std::string::npos);
  // Shrinkage is equally informational in the other direction.
  const PerfdiffResult rev = harness::perfdiff_compare(cand, base);
  EXPECT_TRUE(rev.ok()) << rev.report;
}

TEST(PerfdiffHostTime, MissingHostFieldsOnOldRecordsAreSkippedNotFailed) {
  // A schema-3 baseline carries no prof/* gauges. Against a schema-4
  // candidate that does, the require_both gate must disengage in both
  // directions — no [info] noise, no was-zero misread.
  std::vector<BenchRecord> old_base{fixture(1000000, 40)};
  old_base[0].schema = 3;
  const std::vector<BenchRecord> cand{host_time_fixture(1.0)};
  const PerfdiffResult res = harness::perfdiff_compare(old_base, cand);
  EXPECT_TRUE(res.ok()) << res.report;
  EXPECT_EQ(res.compared, 1);
  EXPECT_EQ(res.report.find("host_pop_ns"), std::string::npos);
  const PerfdiffResult rev = harness::perfdiff_compare(cand, old_base);
  EXPECT_TRUE(rev.ok()) << rev.report;
  EXPECT_EQ(rev.report.find("host_pop_ns"), std::string::npos);
}

TEST(PerfdiffHostTime, QuietSuppressesInfoLines) {
  PerfdiffOptions opts;
  opts.quiet = true;
  const PerfdiffResult res = harness::perfdiff_compare(
      {host_time_fixture(1.0)}, {host_time_fixture(10.0)}, opts);
  EXPECT_TRUE(res.ok()) << res.report;
  EXPECT_EQ(res.report.find("[info]"), std::string::npos);
}

TEST(PerfdiffTimelines, AxisMismatchDetected) {
  const BenchRecord base = timeline_fixture({0, 1, 2, 3}, {4, 4, 4, 4});
  BenchRecord cand = base;
  cand.timeline.interval = 20;  // coarsening diverged
  cand.timeline.t = {0, 20, 40, 60};
  PerfdiffOptions opts;
  opts.compare_timelines = true;
  const PerfdiffResult res = harness::perfdiff_compare({base}, {cand}, opts);
  EXPECT_FALSE(res.ok());
  EXPECT_NE(res.report.find("interval"), std::string::npos);
}

}  // namespace
}  // namespace nexus
