// Cross-manager integration properties: randomized traces (mixed dependency
// patterns, barriers, taskwait_on) must produce LEGAL schedules under every
// manager model, drain completely, and respect the performance ordering
// ideal <= hardware-managed <= serial-with-overheads where it must hold.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "nexus/common/rng.hpp"
#include "nexus/nexuspp/nexuspp.hpp"
#include "nexus/nexussharp/nexussharp.hpp"
#include "nexus/runtime/ideal_manager.hpp"
#include "nexus/runtime/list_scheduler.hpp"
#include "nexus/runtime/nanos_model.hpp"
#include "nexus/runtime/schedule_validator.hpp"
#include "nexus/runtime/simulation_driver.hpp"

namespace nexus {
namespace {

struct FuzzParams {
  std::uint64_t seed;
  int n_tasks;
  int n_addrs;
  int max_params;
  double barrier_prob;      ///< taskwait between submissions
  double taskwait_on_prob;  ///< taskwait_on a previously written address
  Tick min_dur, max_dur;
};

Trace fuzz_trace(const FuzzParams& p) {
  Xoshiro256 rng(p.seed);
  Trace tr("fuzz-" + std::to_string(p.seed));
  std::vector<Addr> written;
  for (int i = 0; i < p.n_tasks; ++i) {
    const int cap = std::min(p.max_params, p.n_addrs);
    const int np = 1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(cap)));
    ParamList params;
    std::vector<Addr> used;
    for (int k = 0; k < np; ++k) {
      Addr a = 0;
      bool dup = true;
      while (dup) {
        a = 0x5000 + rng.below(static_cast<std::uint64_t>(p.n_addrs)) * 0x40;
        dup = false;
        for (const Addr u : used) dup |= (u == a);
      }
      used.push_back(a);
      const auto dir = static_cast<Dir>(rng.below(3));
      params.push_back({a, dir});
      if (is_write(dir)) written.push_back(a);
    }
    const Tick dur =
        p.min_dur + static_cast<Tick>(rng.below(
                        static_cast<std::uint64_t>(p.max_dur - p.min_dur + 1)));
    tr.submit(0, dur, params);
    if (rng.uniform() < p.barrier_prob) tr.taskwait();
    if (!written.empty() && rng.uniform() < p.taskwait_on_prob)
      tr.taskwait_on(written[rng.below(written.size())]);
  }
  tr.taskwait();
  std::string err;
  NEXUS_ASSERT_MSG(tr.validate(&err), err.c_str());
  return tr;
}

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
      EXPECT_EQ(sharp->stats().sim_tasks_live, 0u) << c.label;
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
    ::testing::Values(
        // Dense conflicts on few addresses, coarse tasks.
        FuzzParams{11, 300, 4, 3, 0.00, 0.00, us(20), us(200)},
        // Wide and mostly independent, fine tasks.
        FuzzParams{12, 500, 128, 2, 0.00, 0.00, us(1), us(10)},
        // Barrier-heavy fork/join.
        FuzzParams{13, 400, 16, 3, 0.05, 0.00, us(5), us(50)},
        // taskwait_on-heavy streaming.
        FuzzParams{14, 400, 16, 3, 0.00, 0.08, us(5), us(50)},
        // Everything at once, max params.
        FuzzParams{15, 600, 24, 6, 0.02, 0.04, us(2), us(80)},
        // Single hot address (pure chain).
        FuzzParams{16, 200, 1, 1, 0.00, 0.10, us(5), us(20)},
        // Reader-group heavy: many addresses, writes rare via low dir draw
        // (still random, the seed drives it).
        FuzzParams{17, 500, 8, 4, 0.01, 0.02, us(1), us(40)},
        FuzzParams{18, 800, 48, 5, 0.03, 0.03, us(1), us(30)}),
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
    EXPECT_EQ(mgr.stats().sim_tasks_live, 0u);
    std::string err;
    EXPECT_TRUE(validate_schedule(tr, sched, &err)) << err;
  }
}

// Host-interface sensitivity: adding per-message cost must slow every
// manager monotonically (the `nexus-bench fig8 --host-cost-us` sensitivity
// knob).
TEST(Integration, HostMessageCostIsMonotone) {
  const Trace tr = fuzz_trace({41, 300, 16, 3, 0.01, 0.02, us(2), us(40)});
  Tick prev = 0;
  for (const double cost_us : {0.0, 1.0, 5.0}) {
    NexusSharpConfig cfg;
    cfg.num_task_graphs = 4;
    cfg.freq_mhz = 100.0;
    NexusSharp mgr(cfg);
    RuntimeConfig rc;
    rc.workers = 8;
    rc.host_message_cost = us(cost_us);
    const Tick mk = run_trace(tr, mgr, rc).makespan;
    EXPECT_GE(mk, prev);
    prev = mk;
  }
}

}  // namespace
}  // namespace nexus
