// Cross-manager integration properties: randomized traces (mixed dependency
// patterns, barriers, taskwait_on) must produce LEGAL schedules under every
// manager model, drain completely, and respect the performance ordering
// ideal <= hardware-managed <= serial-with-overheads where it must hold.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fuzz_trace.hpp"
#include "nexus/nexuspp/nexuspp.hpp"
#include "nexus/nexussharp/nexussharp.hpp"
#include "nexus/runtime/ideal_manager.hpp"
#include "nexus/runtime/list_scheduler.hpp"
#include "nexus/runtime/nanos_model.hpp"
#include "nexus/runtime/schedule_validator.hpp"
#include "nexus/runtime/simulation_driver.hpp"

namespace nexus {
namespace {

class ManagerFuzzTest : public ::testing::TestWithParam<FuzzParams> {};

TEST_P(ManagerFuzzTest, AllManagersProduceLegalSchedules) {
  const Trace tr = fuzz_trace(GetParam());
  const Tick serial = tr.total_work();

  struct Case {
    std::string label;
    std::unique_ptr<TaskManagerModel> mgr;
  };
  std::vector<Case> cases;
  cases.push_back({"ideal", std::make_unique<IdealManager>()});
  cases.push_back({"nanos", std::make_unique<NanosModel>()});
  cases.push_back({"nexus++", std::make_unique<NexusPP>()});
  {
    NexusSharpConfig cfg;
    cfg.num_task_graphs = 4;
    cfg.freq_mhz = 100.0;
    cases.push_back({"nexus#4", std::make_unique<NexusSharp>(cfg)});
  }
  {
    NexusSharpConfig cfg;
    cfg.num_task_graphs = 8;
    cfg.freq_mhz = 100.0;
    cfg.pool_capacity = 32;  // force pool backpressure too
    cases.push_back({"nexus#8-smallpool", std::make_unique<NexusSharp>(cfg)});
  }
  {
    // Hostile: every unit serves in zero cycles (Nexus# TGU, arbiters and
    // root; the Nexus++ table port), on tables and a pool small enough that
    // inserts stall. A serve that leaves work must still wake its port.
    const hw::TableConfig small{.sets = 32, .ways = 2, .kol_entries = 2};
    NexusPPConfig npp;
    npp.table = small;
    npp.pool_capacity = 24;
    npp.insert_base = npp.insert_per_param = npp.finish_per_param = 0;
    npp.kick_cycles = npp.chain_hop_cycles = 0;
    cases.push_back({"nexus++-0cyc", std::make_unique<NexusPP>(npp)});
    for (const std::uint32_t clusters : {0u, 2u}) {
      NexusSharpConfig cfg;
      cfg.num_task_graphs = 4;
      cfg.freq_mhz = 100.0;
      cfg.table = small;
      cfg.pool_capacity = 24;
      cfg.arbiter_clusters = clusters;
      cfg.tg_insert_per_param = cfg.tg_finish_per_param = 0;
      cfg.chain_hop_cycles = cfg.kick_enqueue_cycles = 0;
      cfg.arb_ready_cycles = cfg.arb_wait_cycles = cfg.arb_dep_cycles = 0;
      cfg.root_grant_cycles = 0;
      cases.push_back({"nexus#4-" + std::to_string(clusters) + "cl-0cyc",
                       std::make_unique<NexusSharp>(cfg)});
    }
  }

  // True lower bounds on any legal schedule. (The FIFO "ideal" makespan is
  // NOT a bound: delaying readiness can accidentally pack better — Graham's
  // scheduling anomalies — and the fuzzer does find such cases.)
  const Tick cp_bound = critical_path(tr);
  const Tick work_bound = serial / 8;
  for (auto& c : cases) {
    std::vector<ScheduleEntry> sched;
    RuntimeConfig rc;
    rc.workers = 8;
    rc.schedule_out = &sched;
    const RunResult r = run_trace(tr, *c.mgr, rc);
    std::string err;
    EXPECT_TRUE(validate_schedule(tr, sched, &err)) << c.label << ": " << err;
    EXPECT_EQ(r.tasks, tr.num_tasks()) << c.label;
    if (const auto* sharp = dynamic_cast<const NexusSharp*>(c.mgr.get())) {
      EXPECT_EQ(sharp->sim_tasks_live(), 0u) << c.label;
    }
    if (c.label == "ideal") {
      EXPECT_EQ(r.makespan, list_schedule_makespan(tr, 8));
    }
    EXPECT_GE(r.makespan, cp_bound) << c.label;
    EXPECT_GE(r.makespan, work_bound) << c.label;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Fuzz, ManagerFuzzTest,
    ::testing::ValuesIn(fuzz_cases()),
    [](const ::testing::TestParamInfo<FuzzParams>& pi) {
      return "seed" + std::to_string(pi.param.seed);
    });

// The managers must also agree on *what* ran, not just legality: with one
// worker and FIFO dispatch, the ideal DES execution and the independent
// list scheduler produce identical schedules on fuzz traces.
TEST(Integration, SingleWorkerIdealMatchesOracleExactly) {
  for (const std::uint64_t seed : {21u, 22u, 23u}) {
    const Trace tr =
        fuzz_trace({seed, 300, 12, 3, 0.02, 0.03, us(2), us(60)});
    IdealManager mgr;
    const RunResult r = run_trace(tr, mgr, RuntimeConfig{.workers = 1});
    EXPECT_EQ(r.makespan, list_schedule_makespan(tr, 1)) << seed;
  }
}

// Hardware managers under a hostile configuration: tiny tables, tiny pool,
// minimal kick-off lists — liveness and legality must survive.
TEST(Integration, HostileHardwareConfigsStillDrain) {
  const Trace tr = fuzz_trace({31, 400, 6, 3, 0.02, 0.02, us(2), us(40)});
  {
    NexusPPConfig cfg;
    cfg.pool_capacity = 3;
    cfg.table.sets = 4;
    cfg.table.ways = 2;
    cfg.table.kol_entries = 1;
    cfg.table.chain_probe_limit = 2;
    NexusPP mgr(cfg);
    std::vector<ScheduleEntry> sched;
    RuntimeConfig rc;
    rc.workers = 4;
    rc.schedule_out = &sched;
    const RunResult r = run_trace(tr, mgr, rc);
    EXPECT_EQ(r.tasks, tr.num_tasks());
    std::string err;
    EXPECT_TRUE(validate_schedule(tr, sched, &err)) << err;
  }
  {
    NexusSharpConfig cfg;
    cfg.num_task_graphs = 2;
    cfg.freq_mhz = 100.0;
    cfg.pool_capacity = 3;
    cfg.table.sets = 4;
    cfg.table.ways = 2;
    cfg.table.kol_entries = 1;
    cfg.table.chain_probe_limit = 2;
    NexusSharp mgr(cfg);
    std::vector<ScheduleEntry> sched;
    RuntimeConfig rc;
    rc.workers = 4;
    rc.schedule_out = &sched;
    const RunResult r = run_trace(tr, mgr, rc);
    EXPECT_EQ(r.tasks, tr.num_tasks());
    EXPECT_EQ(mgr.sim_tasks_live(), 0u);
    std::string err;
    EXPECT_TRUE(validate_schedule(tr, sched, &err)) << err;
  }
}

}  // namespace
}  // namespace nexus
