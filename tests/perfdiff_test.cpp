// nexus-perfdiff library tests: the strict JSON reader, BENCH record
// parsing, and the exact comparator over the eight committed BENCH_*.json
// files. Each file must diff clean against itself; each one-field
// perturbation (a makespan, a histogram quantile, a timeline point, a
// per-layer counter, a dropped or swapped row, an older schema) must fail
// and name its field.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "nexus/harness/experiment.hpp"
#include "nexus/harness/perfdiff.hpp"
#include "nexus/telemetry/json.hpp"
#include "nexus/telemetry/registry.hpp"
#include "nexus/telemetry/timeline.hpp"

namespace nexus {
namespace {

using harness::BenchRecord;
using harness::parse_bench_records;
using harness::perfdiff_compare;
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

/// The value of the field named `path`; NaN when the record has none.
long double value(const BenchRecord& r, std::string_view path) {
  for (const auto& [p, v] : r.fields)
    if (p == path) return v;
  return std::nanl("");
}

const char* kRecord = R"([
{"schema":2,"bench":"table2","workload":"c-ray","manager":"nexus#","cores":32,
 "makespan":1000000,"speedup":31.4,
 "metrics":{"nexus#/arbiter/conflicts":40,"runtime/tasks":100,
            "nexus#/pool/occupancy":{"count":10,"sum":50,"min":1,"max":9,
                                     "mean":5.0,"p50":4.5,
                                     "buckets":{"1":2,"8":8}}},
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
  // No "topology" field => ideal, as the writer omits it on the crossbar.
  EXPECT_EQ(r.topology, "ideal");
  EXPECT_EQ(r.key(), "table2|c-ray|nexus#|ideal|32");
  EXPECT_EQ(value(r, "makespan"), 1000000);
  EXPECT_EQ(value(r, "speedup"), static_cast<long double>(31.4));
  EXPECT_EQ(value(r, "nexus#/arbiter/conflicts"), 40);
  EXPECT_EQ(value(r, "nexus#/pool/occupancy:count"), 10);
  EXPECT_EQ(value(r, "nexus#/pool/occupancy:mean"), 5);
  EXPECT_EQ(value(r, "nexus#/pool/occupancy:p50"), 4.5);
  EXPECT_EQ(value(r, "nexus#/pool/occupancy:buckets/8"), 8);
  EXPECT_EQ(value(r, "timeline/m@0ps"), 1);
  // An older schema parses, but only the current one is gated.
  const PerfdiffResult res = perfdiff_compare(recs, recs);
  EXPECT_FALSE(res.ok());
  EXPECT_NE(res.report.find("schema: 2 -> 2"), std::string::npos)
      << res.report;
}

TEST(BenchRecords, TopologyFieldJoinsSeparately) {
  std::vector<BenchRecord> recs;
  std::string error;
  ASSERT_TRUE(parse_bench_records(
      R"([{"schema":4,"bench":"ablation_topology","workload":"h264dec-8x8-10f",
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
  EXPECT_FALSE(perfdiff_compare(recs, recs).ok());
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
  EXPECT_FALSE(parse_bench_records(
      R"([{"schema":4,"bench":"b","makespan":1,
           "timeline":{"interval_ps":10,"t":[0,10],
                       "series":{"m":{"kind":"counter","v":[1]}}}}])",
      &recs, &error));  // a series shorter than the t axis
  EXPECT_NE(error.find("\"m\""), std::string::npos) << error;
}

// ---------- the comparator over the committed records ----------

const char* const kRecordFiles[] = {
    "BENCH_fig7.json",   "BENCH_fig8.json",      "BENCH_fig9.json",
    "BENCH_placement.json", "BENCH_serving.json", "BENCH_table2.json",
    "BENCH_tenancy.json",   "BENCH_topology.json",
};

/// A committed record file, read once the way bench_test reads it.
const std::vector<BenchRecord>& committed(const std::string& file) {
  static std::map<std::string, std::vector<BenchRecord>> cache;
  auto it = cache.find(file);
  if (it == cache.end()) {
    std::ifstream in(std::string(NEXUS_SOURCE_DIR) + "/" + file);
    std::stringstream text;
    text << in.rdbuf();
    std::vector<BenchRecord> records;
    std::string error;
    EXPECT_TRUE(parse_bench_records(text.str(), &records, &error))
        << file << ": " << error;
    it = cache.emplace(file, std::move(records)).first;
  }
  return it->second;
}

/// Indices of the fields of `r` whose path matches `glob`.
std::vector<std::size_t> matching(const BenchRecord& r, std::string_view glob) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < r.fields.size(); ++i)
    if (telemetry::path_glob_match(glob, r.fields[i].first)) out.push_back(i);
  return out;
}

/// Diff one record against another.
PerfdiffResult diff(const BenchRecord& base, const BenchRecord& cand) {
  return perfdiff_compare({&base, 1}, {&cand, 1});
}

/// Diff `base` against `*work` — an equal copy of it — with field `i` set
/// to `v`; `*work` is left as it was.
PerfdiffResult perturbed(const BenchRecord& base, BenchRecord* work,
                         std::size_t i, long double v) {
  const long double was = work->fields[i].second;
  work->fields[i].second = v;
  PerfdiffResult res = diff(base, *work);
  work->fields[i].second = was;
  return res;
}

/// Expect `res` to fail on exactly one record and name `what`.
void expect_names(const PerfdiffResult& res, const std::string& what) {
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.differing, 1);
  EXPECT_NE(res.report.find(what), std::string::npos) << res.report;
}

TEST(Perfdiff, IdenticalRecordsPass) {
  for (const char* file : kRecordFiles) {
    const std::vector<BenchRecord>& recs = committed(file);
    ASSERT_FALSE(recs.empty()) << file;
    for (const BenchRecord& r : recs)
      EXPECT_EQ(r.schema, harness::kBenchRecordSchema) << file;
    const PerfdiffResult res = perfdiff_compare(recs, recs);
    EXPECT_TRUE(res.ok()) << file << "\n" << res.report;
    EXPECT_EQ(res.report.find('['), std::string::npos) << res.report;
    EXPECT_NE(res.report.find(", 0 differ"), std::string::npos);
  }
}

TEST(Perfdiff, MakespanRegressionDetected) {
  for (const char* file : kRecordFiles) {
    for (const BenchRecord& r : committed(file)) {
      BenchRecord work = r;
      const long double ms = value(r, "makespan");
      ASSERT_EQ(r.fields[0].first, "makespan");
      expect_names(perturbed(r, &work, 0, ms + 1),
                   r.key() + ": makespan: " + std::to_string(
                       static_cast<long long>(ms)));
      // Faster is a difference too: the committed record must be redone.
      EXPECT_FALSE(perturbed(r, &work, 0, ms - 1).ok()) << file;
    }
  }
  // A +1.5% makespan on fig9's first row.
  const BenchRecord& fig9 = committed("BENCH_fig9.json")[0];
  BenchRecord work = fig9;
  expect_names(perturbed(fig9, &work, 0, value(fig9, "makespan") * 1.015L),
               "makespan");
}

TEST(Perfdiff, MetricRateRegressionDetectedEvenWithEqualMakespan) {
  // One per-layer counter per record: NoC hops (both managers and the host
  // fabric). The makespan stays put.
  for (const char* file : kRecordFiles) {
    int checked = 0;
    for (const BenchRecord& r : committed(file)) {
      BenchRecord work = r;
      for (std::size_t i : matching(r, "**/noc/hops:sum")) {
        ++checked;
        expect_names(perturbed(r, &work, i, r.fields[i].second + 1),
                     r.fields[i].first + ": ");
      }
    }
    EXPECT_GT(checked, 0) << file;
  }
}

TEST(Perfdiff, NocContentionRatesAreGatedPerTask) {
  int checked = 0;
  for (const char* file : kRecordFiles) {
    for (const BenchRecord& r : committed(file)) {
      BenchRecord work = r;
      for (const char* field : {"stall_ps", "blocked_flits"}) {
        for (std::size_t i : matching(r, std::string("**/noc/") + field)) {
          ++checked;
          expect_names(perturbed(r, &work, i, r.fields[i].second + 1), field);
        }
      }
    }
  }
  EXPECT_GT(checked, 50);
}

TEST(Perfdiff, EventsPerTaskAreGatedPerComponentKind) {
  std::map<std::string, int> kinds;
  for (const char* file : kRecordFiles) {
    for (const BenchRecord& r : committed(file)) {
      BenchRecord work = r;
      for (std::size_t i : matching(r, "sim/c*/events")) {
        const std::string& path = r.fields[i].first;
        ++kinds[path.substr(path.find('_') + 1)];
        expect_names(perturbed(r, &work, i, r.fields[i].second + 1), path);
      }
    }
  }
  for (const char* kind : {"driver/events", "io/events", "tg/events",
                           "arbiter/events", "root/events", "npp/events",
                           "noc/events"})
    EXPECT_GT(kinds[kind], 0) << kind;
}

TEST(Perfdiff, ZeroBaselineRateFlagsNewConflicts) {
  int checked = 0;
  for (const char* file : kRecordFiles) {
    for (const BenchRecord& r : committed(file)) {
      BenchRecord work = r;
      for (std::size_t i : matching(r, "**/arbiter/conflicts")) {
        if (r.fields[i].second != 0) continue;
        ++checked;
        expect_names(perturbed(r, &work, i, 1), "conflicts: 0 -> 1");
      }
    }
  }
  EXPECT_GT(checked, 0);
}

TEST(Perfdiff, PlacementIsPartOfTheJoinKey) {
  // Rows are compared by position, and the key is one of their fields: a
  // row whose placement (or topology) changed is a different row.
  const std::vector<BenchRecord>& placed = committed("BENCH_placement.json");
  int checked = 0;
  for (const BenchRecord& r : placed) {
    if (r.placement == "default") continue;
    ++checked;
    BenchRecord cand = r;
    cand.placement = "default";
    expect_names(diff(r, cand), "key: " + r.key() + " -> ");
  }
  EXPECT_GT(checked, 0);
  BenchRecord cand = committed("BENCH_topology.json").back();
  cand.topology = "ring";
  expect_names(diff(committed("BENCH_topology.json").back(), cand),
               "|ring|");
}

TEST(Perfdiff, PlacementFieldRoundTripsAndDefaultsWhenAbsent) {
  std::vector<BenchRecord> recs;
  std::string error;
  const std::string doc =
      "[" +
      std::string(
          R"({"schema":4,"bench":"ablation_placement","workload":"h264dec-8x8-10f","manager":"nexus#-8TG","topology":"torus","placement":"optimized","cores":16,"makespan":7000,"speedup":1.0,"metrics":{}},)") +
      std::string(
          R"({"schema":4,"bench":"ablation_placement","workload":"h264dec-8x8-10f","manager":"nexus#-8TG","topology":"torus","cores":16,"makespan":7000,"speedup":1.0,"metrics":{}})") +
      "]";
  ASSERT_TRUE(parse_bench_records(doc, &recs, &error)) << error;
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].placement, "optimized");
  EXPECT_EQ(recs[1].placement, "default");
  EXPECT_NE(recs[0].key(), recs[1].key());
}

// End-to-end over the real serializer: a record written by
// metrics_report_json round-trips through parse_bench_records, every value
// it wrote reappears as a field, and it diffs clean against itself.
TEST(Perfdiff, RoundTripsRealReportRecords) {
  telemetry::MetricRegistry reg;
  reg.counter("nexus#/arbiter/conflicts").inc(3);
  reg.gauge("nexus#/pool/live").set(-2);
  for (std::uint64_t v : {1, 5, 9})
    reg.histogram("runtime/sojourn_ps").record(v);
  const telemetry::Snapshot snap = reg.snapshot();
  telemetry::Timeline tl;
  tl.interval = 10;
  tl.t = {0, 10, 20};
  tl.series.push_back({"runtime/finished", telemetry::MetricKind::kCounter,
                       {1, 4, 9}});
  tl.series.push_back({"runtime/ready", telemetry::MetricKind::kGauge,
                       {5, -2, 7}});
  const std::string doc =
      "[" +
      harness::metrics_report_json("fig9", "gaussian-250", "nexus#-2TG@100MHz",
                                   8, 70761000000, 1.1, &snap, &tl, "mesh",
                                   "optimized") +
      "]";
  std::vector<BenchRecord> recs;
  std::string error;
  ASSERT_TRUE(parse_bench_records(doc, &recs, &error)) << error;
  ASSERT_EQ(recs.size(), 1u);
  const BenchRecord& r = recs[0];
  EXPECT_EQ(r.schema, harness::kBenchRecordSchema);
  EXPECT_EQ(r.key(), "fig9|gaussian-250|nexus#-2TG@100MHz|mesh|optimized|8");
  EXPECT_EQ(value(r, "makespan"), 70761000000LL);
  EXPECT_EQ(value(r, "nexus#/arbiter/conflicts"), 3);
  EXPECT_EQ(value(r, "nexus#/pool/live"), -2);
  EXPECT_EQ(value(r, "runtime/sojourn_ps:count"), 3);
  EXPECT_EQ(value(r, "runtime/sojourn_ps:sum"), 15);
  EXPECT_EQ(value(r, "timeline/interval_ps"), 10);
  EXPECT_EQ(value(r, "timeline/runtime/finished@20ps"), 9);
  EXPECT_EQ(value(r, "timeline/runtime/ready@10ps"), -2);
  EXPECT_TRUE(perfdiff_compare(recs, recs).ok());
}

TEST(Perfdiff, DroppedOrSwappedRowsFail) {
  for (const char* file : kRecordFiles) {
    const std::vector<BenchRecord>& base = committed(file);
    std::vector<BenchRecord> cand = base;
    cand.pop_back();
    expect_names(perfdiff_compare(base, cand),
                 base.back().key() + " missing from candidate");
    expect_names(perfdiff_compare(cand, base),
                 base.back().key() + " only in candidate");
    if (base.size() < 2) continue;
    cand = base;
    std::swap(cand[0], cand[1]);
    const PerfdiffResult res = perfdiff_compare(base, cand);
    EXPECT_EQ(res.differing, 2) << file;
    EXPECT_NE(res.report.find("key: " + base[0].key() + " -> " +
                              base[1].key()),
              std::string::npos)
        << res.report;
  }
}

TEST(Perfdiff, SchemaOtherThanCurrentFails) {
  for (const char* file : kRecordFiles) {
    const BenchRecord& r = committed(file).front();
    BenchRecord cand = r;
    cand.schema = 3;
    expect_names(diff(r, cand), "schema: 4 -> 3");
  }
}

TEST(PerfdiffQuantiles, P99OnlyRegressionFails) {
  // One tail quantile moves by one picosecond; nothing else does.
  int checked = 0;
  for (const char* file : kRecordFiles) {
    for (const BenchRecord& r : committed(file)) {
      BenchRecord work = r;
      for (std::size_t i : matching(r, "**:p99")) {
        ++checked;
        expect_names(perturbed(r, &work, i, r.fields[i].second + 1),
                     r.fields[i].first + ": ");
      }
    }
  }
  EXPECT_GT(checked, 100);
}

TEST(PerfdiffQuantiles, EveryQuantileIsExact) {
  for (const char* file : kRecordFiles) {
    const BenchRecord& r = committed(file).front();
    BenchRecord work = r;
    for (const char* q : {"**:p50", "**:p95", "**:p999"})
      for (std::size_t i : matching(r, q))
        expect_names(perturbed(r, &work, i, r.fields[i].second + 1),
                     r.fields[i].first);
  }
  // An 8% shift of serving row 0's p50 and p99 latencies.
  const BenchRecord& serving = committed("BENCH_serving.json")[0];
  BenchRecord cand = serving;
  int shifted = 0;
  for (const char* glob :
       {"runtime/sojourn_ps:p50", "runtime/sojourn_ps:p99",
        "runtime/serving_latency_ps:p50", "runtime/serving_latency_ps:p99"}) {
    for (std::size_t i : matching(cand, glob)) {
      cand.fields[i].second *= 1.08L;
      ++shifted;
    }
  }
  ASSERT_EQ(shifted, 4);
  const PerfdiffResult res = diff(serving, cand);
  expect_names(res, "runtime/sojourn_ps:p99");
  EXPECT_NE(res.report.find("runtime/serving_latency_ps:p50"),
            std::string::npos);
}

// ---------- timelines ----------

TEST(PerfdiffTimelines, ParsesDeltaEncodedTimelineFromRecord) {
  // The on-disk form delta-encodes the t axis and counter-kind series;
  // the parser must undo both and leave gauges raw.
  std::vector<BenchRecord> recs;
  std::string error;
  ASSERT_TRUE(parse_bench_records(
      R"([{"schema":4,"bench":"b","workload":"w","manager":"m","cores":1,
           "makespan":5,"speedup":1.0,"metrics":{},
           "timeline":{"interval_ps":10,"points":3,"encoding":"delta",
                       "t":[0,10,10],
                       "series":{"cnt":{"kind":"counter","v":[1,2,3]},
                                 "gau":{"kind":"gauge","v":[5,-2,7]}}}}])",
      &recs, &error))
      << error;
  ASSERT_EQ(recs.size(), 1u);
  const BenchRecord& r = recs[0];
  EXPECT_EQ(value(r, "timeline/interval_ps"), 10);
  EXPECT_EQ(value(r, "timeline/cnt:gauge"), 0);
  EXPECT_EQ(value(r, "timeline/cnt@0ps"), 1);  // decoded
  EXPECT_EQ(value(r, "timeline/cnt@10ps"), 3);
  EXPECT_EQ(value(r, "timeline/cnt@20ps"), 6);
  EXPECT_EQ(value(r, "timeline/gau:gauge"), 1);
  EXPECT_EQ(value(r, "timeline/gau@10ps"), -2);  // raw
  EXPECT_EQ(value(r, "timeline/gau@20ps"), 7);
}

TEST(PerfdiffTimelines, IdenticalTimelinesPassExactly) {
  int with_timeline = 0;
  for (const char* file : kRecordFiles) {
    for (const BenchRecord& r : committed(file)) {
      if (matching(r, "timeline/**").empty()) continue;
      ++with_timeline;
      EXPECT_GT(matching(r, "timeline/**@*ps").size(), 100u) << r.key();
      EXPECT_TRUE(diff(r, r).ok()) << r.key();
    }
  }
  EXPECT_GT(with_timeline, 40);
}

TEST(PerfdiffTimelines, ReportsFirstDivergenceSimTime) {
  // Two points of one series move; only the first is reported, with the
  // sim-time it happened at.
  for (const char* file : kRecordFiles) {
    const BenchRecord& r = committed(file).front();
    const std::vector<std::size_t> points = matching(r, "timeline/**@*ps");
    if (points.empty()) continue;
    BenchRecord cand = r;
    cand.fields[points[5]].second += 1;
    cand.fields[points[7]].second += 1;
    const PerfdiffResult res = diff(r, cand);
    expect_names(res, r.fields[points[5]].first + ": ");
    EXPECT_EQ(res.report.find(r.fields[points[7]].first), std::string::npos)
        << res.report;
  }
}

TEST(PerfdiffTimelines, LostTimelineOrSeriesIsARegression) {
  const BenchRecord& r = committed("BENCH_fig9.json").front();
  const std::vector<std::size_t> tl = matching(r, "timeline/**");
  ASSERT_FALSE(tl.empty());
  BenchRecord without = r;
  without.fields.resize(tl.front());
  expect_names(diff(r, without), "-> (end)");
  // Gaining one is a difference as well: the committed record must be redone.
  expect_names(diff(without, r), "(end) -> timeline/");
  // Lose the last series (its kind flag and its points).
  const std::vector<std::size_t> kinds = matching(r, "timeline/**:gauge");
  BenchRecord fewer = r;
  fewer.fields.resize(kinds.back());
  expect_names(diff(r, fewer), r.fields[kinds.back()].first);
}

TEST(PerfdiffTimelines, AxisMismatchDetected) {
  const BenchRecord& r = committed("BENCH_fig7.json").front();
  const std::vector<std::size_t> interval = matching(r, "timeline/interval_ps");
  ASSERT_EQ(interval.size(), 1u);
  BenchRecord work = r;
  const std::size_t i = interval[0];
  expect_names(perturbed(r, &work, i, r.fields[i].second * 2),
               "timeline/interval_ps: ");
  // A shifted sample time renames the point: the field lists part ways.
  const std::vector<std::size_t> points = matching(r, "timeline/**@*ps");
  BenchRecord cand = r;
  cand.fields[points[3]].first += "0";
  expect_names(diff(r, cand), r.fields[points[3]].first);
}

}  // namespace
}  // namespace nexus
