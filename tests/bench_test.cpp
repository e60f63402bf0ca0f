// The nexus-bench experiment table: each record-writing experiment's grid,
// expanded without simulating anything, must name the committed
// BENCH_<name>.json rows in file order, so a reordered or renamed row fails
// here and not only in `scripts/check.sh --diff`. The driver's input checks
// and its record-key check run here too, before anything is simulated, and
// so do small --trace and --prof runs.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "nexus/harness/perfdiff.hpp"
#include "nexus/telemetry/json.hpp"
#include "nexus/workloads/workloads.hpp"

namespace nexus::bench {
namespace {

/// Flags as nexus-bench parses `<experiment> <flags>`.
Flags parse(const std::string& flags) {
  std::vector<std::string> words{"nexus-bench"};
  std::istringstream in(flags);
  for (std::string w; in >> w;) words.push_back(w);
  std::vector<const char*> argv;
  for (const std::string& w : words) argv.push_back(w.c_str());
  return Flags(static_cast<int>(argv.size()), argv.data(), flag_spec());
}

const Experiment& experiment(const std::string& name) {
  for (const Experiment& e : experiments())
    if (e.name == name) return e;
  ADD_FAILURE() << "no experiment " << name;
  return experiments().front();
}

/// Finish `e` under `flags` (returns before simulating on bad input).
int finish(const Experiment& e, const std::string& flags) {
  const Flags f = parse(flags);
  Run run(e, f);
  return run.finish();
}

std::vector<harness::BenchRecord> committed(const std::string& file) {
  std::ifstream in(std::string(NEXUS_SOURCE_DIR) + "/" + file);
  std::stringstream text;
  text << in.rdbuf();
  std::vector<harness::BenchRecord> records;
  std::string error;
  EXPECT_TRUE(harness::parse_bench_records(text.str(), &records, &error))
      << file << ": " << error;
  return records;
}

TEST(BenchTable, RecordGridsMatchTheCommittedRecordsRowForRow) {
  int record_experiments = 0;
  for (const Experiment& e : experiments()) {
    if (e.bench == nullptr) continue;
    ++record_experiments;
    const std::string file = "BENCH_" + std::string(e.name) + ".json";
    const std::vector<RowKey> rows =
        record_rows(e, parse(std::string(e.record_flags) + " --json " + file));
    const std::vector<harness::BenchRecord> records = committed(file);
    ASSERT_EQ(rows.size(), records.size()) << file;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      harness::BenchRecord key;
      key.bench = e.bench;
      key.workload = rows[i].workload;
      key.manager = rows[i].manager;
      key.topology = rows[i].topology;
      key.placement = rows[i].placement;
      key.cores = rows[i].cores;
      EXPECT_EQ(key.key(), records[i].key()) << file << " row " << i;
    }
  }
  EXPECT_EQ(record_experiments, 8);
}

TEST(BenchTable, NamesAreUniqueAndEveryExperimentHasABody) {
  std::set<std::string> names;
  for (const Experiment& e : experiments()) {
    EXPECT_TRUE(names.insert(e.name).second) << e.name;
    EXPECT_NE(e.body, nullptr) << e.name;
    EXPECT_EQ(e.bench == nullptr, e.record_flags == nullptr) << e.name;
  }
  EXPECT_EQ(names.size(), 13u);
}

TEST(BenchTable, EveryGridManagerLabelRoundTripsThroughParseManager) {
  for (const Experiment& e : experiments()) {
    if (e.grid == nullptr) continue;
    for (const char* flags : {"", "--quick", "--json x", "--quick --json x"}) {
      for (const ManagerSpec& m : make_grid(e, parse(flags)).managers) {
        ManagerSpec parsed;
        ASSERT_TRUE(harness::parse_manager(m.label, &parsed))
            << e.name << ": " << m.label;
        EXPECT_EQ(parsed.label, m.label);
        EXPECT_EQ(parsed.kind, m.kind);
        EXPECT_EQ(parsed.sharp.num_task_graphs, m.sharp.num_task_graphs);
        EXPECT_EQ(parsed.sharp.freq_mhz, m.sharp.freq_mhz);
      }
    }
  }
}

TEST(BenchTable, WorkloadFabricSuffixPinsOneFabric) {
  Grid g{.workloads = {"sparselu", "gaussian-250:mesh"},
         .fabrics = {noc::TopologyKind::kIdeal, noc::TopologyKind::kTorus},
         .managers = managers({"nexus#-6TG"}),
         .cores = {8}};
  const std::vector<Cell> cells = g.cells();
  ASSERT_EQ(cells.size(), 3u);
  EXPECT_EQ(key_of(cells[0]).topology, "ideal");
  EXPECT_EQ(key_of(cells[1]).topology, "torus");
  EXPECT_EQ(cells[2].workload, "gaussian-250");
  EXPECT_EQ(key_of(cells[2]).topology, "mesh");
  EXPECT_EQ(cells[2].rc.noc.kind, noc::TopologyKind::kMesh);
}

TEST(BenchTable, UnknownWorkloadFabricOrCoreCountExitsTwoBeforeRunning) {
  const Experiment& fig9 = experiment("fig9");
  EXPECT_EQ(finish(fig9, "--workloads gaussian-250:meshh"), 2);
  EXPECT_EQ(finish(fig9, "--workloads gaussian-25"), 2);
  EXPECT_EQ(finish(fig9, "--cores 0"), 2);
  EXPECT_EQ(finish(fig9, "--cores 8,70000"), 2);
  // table3 has no grid for the overrides to replace.
  EXPECT_EQ(finish(experiment("table3"), "--workloads gaussian-250"), 2);
  EXPECT_EQ(finish(experiment("micro"), "--cores 8"), 2);
  // No record, trace run or grid to write or profile.
  EXPECT_EQ(finish(experiment("multiapp"), "--json x.json"), 2);
  EXPECT_EQ(finish(experiment("table1"), "--trace x.json"), 2);
  EXPECT_EQ(finish(experiment("micro"), "--prof x.json"), 2);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(BenchTable, TraceKeepsTheWorkloadsFabricSuffix) {
  const std::string ideal = ::testing::TempDir() + "bench_test_ideal.json";
  const std::string mesh = ::testing::TempDir() + "bench_test_mesh.json";
  const Experiment& fig9 = experiment("fig9");
  ASSERT_EQ(finish(fig9, "--cores 2 --workloads c-ray --trace " + ideal), 0);
  ASSERT_EQ(finish(fig9, "--cores 2 --workloads c-ray:mesh --trace " + mesh), 0);
  EXPECT_FALSE(slurp(ideal).empty());
  EXPECT_NE(slurp(ideal), slurp(mesh));
  std::remove(ideal.c_str());
  std::remove(mesh.c_str());
}

/// Every node of a profile tree: total == self + the children's totals.
void expect_exclusive_ledger(const telemetry::JsonValue& node) {
  std::int64_t children = 0;
  if (const telemetry::JsonValue* kids = node.find("children")) {
    for (const telemetry::JsonValue& kid : kids->array) {
      expect_exclusive_ledger(kid);
      children += kid.find("total_ns")->int_or(-1);
    }
  }
  EXPECT_EQ(node.find("total_ns")->int_or(-1),
            node.find("self_ns")->int_or(-1) + children)
      << node.find("name")->str_or("?");
}

TEST(BenchTable, ProfileWritesOneCellPerGridCellInOrder) {
  const std::string out = ::testing::TempDir() + "bench_test_prof.json";
  const Experiment& table2 = experiment("table2");
  const std::string flags = "--workloads c-ray,rot-cc --cores 2 --prof " + out;
  ASSERT_EQ(finish(table2, flags), 0);
  telemetry::JsonValue doc;
  std::string error;
  ASSERT_TRUE(telemetry::json_parse(slurp(out), &doc, &error)) << error;
  const std::vector<Cell> cells = make_grid(table2, parse(flags)).cells();
  ASSERT_EQ(doc.array.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const telemetry::JsonValue& cell = doc.array[i];
    const Cell& c = cells[i];
    EXPECT_EQ(cell.find("workload")->str_or(""), c.workload);
    EXPECT_EQ(cell.find("manager")->str_or(""), c.spec.label);
    EXPECT_EQ(cell.find("topology")->str_or(""), key_of(c).topology);
    EXPECT_EQ(cell.find("cores")->int_or(0), static_cast<std::int64_t>(c.cores));
    EXPECT_EQ(cell.find("makespan")->int_or(0),
              harness::run_once(workloads::make_workload(c.workload), c.spec,
                                c.cores, c.rc));
    EXPECT_GT(cell.find("detached_wall_ns")->int_or(0), 0);
    expect_exclusive_ledger(*cell.find("profile")->find("tree"));
  }
  const std::string stacks = ::testing::TempDir() + "bench_test_prof.collapsed";
  EXPECT_FALSE(slurp(stacks).empty());
  std::remove(out.c_str());
  std::remove(stacks.c_str());
}

TEST(BenchTable, UnknownFlagExitsTwo) {
  // Every experiment takes the same shared flags and no private ones.
  EXPECT_EXIT(finish(experiment("fig8"), "--host-cost-us 30"),
              ::testing::ExitedWithCode(2), "unknown or malformed flag: --host-cost-us");
  EXPECT_EXIT(finish(experiment("table1"), "--max-overhead-pct 5"),
              ::testing::ExitedWithCode(2),
              "unknown or malformed flag: --max-overhead-pct");
}

Grid two_cells(const Flags&) {
  return {.workloads = {"sparselu"},
          .managers = managers({"nexus#-6TG"}),
          .cores = {8, 32}};
}

int record_in_grid_order(Run& run) {
  for (const Cell& c : run.grid.cells()) run.record(key_of(c), 1, 1.0, nullptr);
  return 0;
}

int record_reversed(Run& run) {
  const std::vector<Cell> cells = run.grid.cells();
  for (auto it = cells.rbegin(); it != cells.rend(); ++it)
    run.record(key_of(*it), 1, 1.0, nullptr);
  return 0;
}

int record_first_only(Run& run) {
  run.record(key_of(run.grid.cells().front()), 1, 1.0, nullptr);
  return 0;
}

TEST(BenchTable, RecordedKeysMustFollowTheGrid) {
  const std::string out = ::testing::TempDir() + "bench_test_keys.json";
  using Body = decltype(&record_reversed);  // gtest's Test::Run hides Run here
  for (const auto& [body, rc] : {std::pair<Body, int>{record_in_grid_order, 0},
                                 {record_reversed, 2},
                                 {record_first_only, 2}}) {
    const Experiment e{.name = "keys", .artefact = "test", .grid = two_cells,
                       .body = body, .bench = "keys", .record_flags = ""};
    EXPECT_EQ(finish(e, "--json " + out), rc);
  }
}

}  // namespace
}  // namespace nexus::bench
