// Million-event stress properties of the DES kernel: a hold-model storm
// must repeat its event order bit for bit even with a TimelineRecorder
// attached mid-run, and a full runtime-over-NoC run must keep its
// conservation ledgers (per-core busy + idle == makespan, injected ==
// delivered flits) intact.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "nexus/common/rng.hpp"
#include "nexus/nexussharp/nexussharp.hpp"
#include "nexus/runtime/simulation_driver.hpp"
#include "nexus/sim/simulation.hpp"
#include "nexus/telemetry/registry.hpp"
#include "nexus/telemetry/timeline.hpp"
#include "nexus/workloads/workloads.hpp"

namespace nexus {
namespace {

// ---------------------------------------------------------------------------
// Hold-model storm: a fixed in-flight population where every handled event
// schedules exactly one successor. The running checksum folds (t, a) in pop
// order, so two runs agree iff their complete event sequences agree.
// ---------------------------------------------------------------------------

constexpr Tick kMeanDelay = 20000;

class StormCore final : public Component {
 public:
  StormCore(std::uint64_t seed, std::uint32_t ncomp, std::uint64_t* checksum)
      : rng_(seed), ncomp_(ncomp), checksum_(checksum) {}

  void handle(Simulation& sim, const Event& ev) override {
    *checksum_ = (*checksum_ * 0x9E3779B97F4A7C15ULL) ^
                 static_cast<std::uint64_t>(ev.t) ^ (ev.a << 17);
    // Draws hoisted: the stream must not depend on evaluation order.
    const std::uint64_t sel = rng_.below(128);
    const Tick delay = sel < 6 ? 0  // same-tick burst
                       : sel < 8
                           ? 100 * kMeanDelay  // far-future straggler
                           : static_cast<Tick>(rng_.below(2 * kMeanDelay));
    const auto dest = static_cast<std::uint32_t>(rng_.below(ncomp_));
    sim.schedule_in(delay, dest, ev.op, ev.a + 1);
  }

 private:
  Xoshiro256 rng_;
  std::uint32_t ncomp_;
  std::uint64_t* checksum_;
};

struct StormOutcome {
  Tick makespan = 0;
  std::uint64_t events = 0;
  std::uint64_t checksum = 0;
};

/// Run `n_events` of the storm. With `timeline` set, kernel telemetry is
/// bound and the recorder is attached *mid-run* (after a third of the
/// budget) — attaching a sampler must not perturb the schedule.
StormOutcome run_storm(std::uint64_t n_events,
                       std::uint64_t inflight,
                       telemetry::TimelineRecorder* timeline = nullptr,
                       telemetry::MetricRegistry* reg = nullptr) {
  constexpr std::uint32_t kComps = 64;
  Simulation sim;
  std::uint64_t checksum = 0x6E78757353696D21ULL;
  std::vector<StormCore> cores;
  cores.reserve(kComps);
  for (std::uint32_t i = 0; i < kComps; ++i)
    cores.emplace_back(0x5EED0000 + i, kComps, &checksum);
  for (auto& c : cores) sim.add_component(&c);
  if (reg != nullptr) sim.bind({.metrics = reg});

  Xoshiro256 prime(99);
  for (std::uint64_t i = 0; i < inflight; ++i) {
    const Tick t = static_cast<Tick>(prime.below(2 * kMeanDelay));
    const auto dest = static_cast<std::uint32_t>(prime.below(kComps));
    sim.schedule(t, dest, 0, i);
  }

  if (timeline != nullptr) {
    EXPECT_TRUE(sim.run_some(n_events / 3));
    sim.set_sampler(timeline);  // mid-run attach
    EXPECT_TRUE(sim.run_some(n_events - n_events / 3));
    timeline->finish(sim.now());
  } else {
    EXPECT_TRUE(sim.run_some(n_events));
  }
  return {sim.now(), sim.events_processed(), checksum};
}

TEST(SimStress, MillionEventStormRepeatsWithMidRunTimeline) {
  constexpr std::uint64_t kEvents = 1000000;
  constexpr std::uint64_t kInflight = 1 << 16;

  const StormOutcome plain = run_storm(kEvents, kInflight);

  telemetry::MetricRegistry reg;
  telemetry::TimelineConfig cfg;
  cfg.interval_ps = 4096;
  telemetry::TimelineRecorder rec(reg, cfg);
  const StormOutcome sampled = run_storm(kEvents, kInflight, &rec, &reg);

  EXPECT_EQ(plain.events, kEvents);
  EXPECT_EQ(sampled.events, kEvents);
  EXPECT_EQ(plain.makespan, sampled.makespan);
  EXPECT_EQ(plain.checksum, sampled.checksum)
      << "attaching a sampler mid-run changed the pop order";

  // The mid-run recorder really sampled, and its event counter is monotone
  // and consistent with the kernel's own count.
  const telemetry::Timeline tl = rec.freeze();
  ASSERT_GT(tl.t.size(), 2u);
  const telemetry::TimelineSeries* events = tl.find("sim/events");
  ASSERT_NE(events, nullptr);
  for (std::size_t i = 1; i < events->v.size(); ++i)
    ASSERT_GE(events->v[i], events->v[i - 1]) << "row " << i;
  EXPECT_EQ(static_cast<std::uint64_t>(events->v.back()), kEvents);
}

// ---------------------------------------------------------------------------
// Conservation ledgers through the full runtime stack.
// ---------------------------------------------------------------------------

TEST(SimStress, LedgerAndFlitConservation) {
  workloads::GaussianConfig gcfg;
  gcfg.n = 100;
  const Trace tr = workloads::make_gaussian(gcfg);
  constexpr std::uint32_t kWorkers = 8;

  telemetry::MetricRegistry reg;
  NexusSharpConfig cfg;
  cfg.num_task_graphs = 4;
  cfg.freq_mhz = 100.0;
  NexusSharp mgr(cfg);
  RuntimeConfig rc;
  rc.workers = kWorkers;
  rc.noc.kind = noc::TopologyKind::kMesh;  // host-side mesh fabric
  rc.metrics = &reg;
  const RunResult r = run_trace(tr, mgr, rc);
  const telemetry::Snapshot snap = reg.snapshot();

  // Time ledger: every core's busy + idle spans the whole run exactly.
  EXPECT_EQ(snap.gauge_at("runtime/makespan_ps"), r.makespan);
  for (std::uint32_t w = 0; w < kWorkers; ++w) {
    const std::string core = "runtime/core" + std::to_string(w);
    EXPECT_EQ(snap.gauge_at(core + "/busy_ps") + snap.gauge_at(core + "/idle_ps"),
              r.makespan)
        << "core " << w;
  }

  // Flit ledger at drain time: the host fabric delivered every flit it
  // accepted (nothing parked in a link when the run ended).
  const std::uint64_t injected = snap.counter_at("runtime/noc/flits");
  const std::uint64_t delivered = snap.counter_at("runtime/noc/delivered_flits");
  EXPECT_GT(injected, 0u);
  EXPECT_EQ(injected, delivered);
  EXPECT_EQ(snap.counter_at("sim/events"), r.events);
}

}  // namespace
}  // namespace nexus
