// The nexus-bench experiment table: each record-writing experiment's grid,
// expanded without simulating anything, must name the committed
// BENCH_<name>.json rows in file order, so a reordered or renamed row fails
// here and not only in `scripts/check.sh --diff`. The driver's input checks
// and its record-key check run here too, before anything is simulated.
#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "nexus/harness/perfdiff.hpp"

namespace nexus::bench {
namespace {

/// Flags as nexus-bench parses `<experiment> <flags>`.
Flags parse(const Experiment& e, const std::string& flags) {
  std::vector<std::string> words{"nexus-bench"};
  std::istringstream in(flags);
  for (std::string w; in >> w;) words.push_back(w);
  std::vector<const char*> argv;
  for (const std::string& w : words) argv.push_back(w.c_str());
  return Flags(static_cast<int>(argv.size()), argv.data(), flag_spec(e));
}

const Experiment& experiment(const std::string& name) {
  for (const Experiment& e : experiments())
    if (e.name == name) return e;
  ADD_FAILURE() << "no experiment " << name;
  return experiments().front();
}

/// Finish `e` under `flags` (returns before simulating on bad input).
int finish(const Experiment& e, const std::string& flags) {
  const Flags f = parse(e, flags);
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
        record_rows(e, parse(e, std::string(e.record_flags) + " --json " + file));
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
  EXPECT_EQ(record_experiments, 9);
}

TEST(BenchTable, NamesAreUniqueAndEveryExperimentHasABody) {
  std::set<std::string> names;
  for (const Experiment& e : experiments()) {
    EXPECT_TRUE(names.insert(e.name).second) << e.name;
    EXPECT_NE(e.body, nullptr) << e.name;
    EXPECT_EQ(e.bench == nullptr, e.record_flags == nullptr) << e.name;
  }
  EXPECT_EQ(names.size(), 18u);
}

TEST(BenchTable, EveryGridManagerLabelRoundTripsThroughParseManager) {
  for (const Experiment& e : experiments()) {
    if (e.grid == nullptr) continue;
    for (const char* flags : {"", "--quick", "--json x", "--quick --json x"}) {
      for (const ManagerSpec& m : make_grid(e, parse(e, flags)).managers) {
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
  // No record or no trace run to write.
  EXPECT_EQ(finish(experiment("arbiter"), "--json x.json"), 2);
  EXPECT_EQ(finish(experiment("table1"), "--trace x.json"), 2);
}

TEST(BenchTable, AnotherExperimentsFlagExitsTwo) {
  EXPECT_EXIT(parse(experiment("fig7"), "--host-cost-us 30"),
              ::testing::ExitedWithCode(2), "unknown or malformed flag: --host-cost-us");
  EXPECT_EXIT(parse(experiment("table1"), "--prof"), ::testing::ExitedWithCode(2),
              "unknown or malformed flag: --prof");
  EXPECT_TRUE(parse(experiment("fig8"), "--host-cost-us 30").has("host-cost-us"));
  EXPECT_TRUE(parse(experiment("simspeed"), "--prof").has("prof"));
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
