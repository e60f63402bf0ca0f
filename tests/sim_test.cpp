#include <gtest/gtest.h>

#include <vector>

#include "nexus/sim/server.hpp"
#include "nexus/sim/simulation.hpp"
#include "nexus/sim/time.hpp"
#include "nexus/telemetry/profiler.hpp"
#include "nexus/telemetry/registry.hpp"

namespace nexus {
namespace {

// ---------- time / clock domains ----------

TEST(Time, UnitHelpers) {
  EXPECT_EQ(ns(1), 1000);
  EXPECT_EQ(us(1), 1000000);
  EXPECT_EQ(ms(1), 1000000000);
  EXPECT_DOUBLE_EQ(to_us(us(4.6)), 4.6);
}

TEST(ClockDomain, PeriodsAtPaperFrequencies) {
  EXPECT_EQ(ClockDomain(100.0).period(), 10000);  // 100 MHz -> 10 ns
  EXPECT_EQ(ClockDomain(100.0).cycles(18), ns(180));
  // Table I test frequencies.
  EXPECT_NEAR(ClockDomain(55.56).mhz(), 55.56, 0.01);
  EXPECT_NEAR(ClockDomain(41.66).mhz(), 41.66, 0.01);
}

TEST(ClockDomain, EdgeAlignment) {
  const ClockDomain clk(100.0);  // 10 ns period
  EXPECT_EQ(clk.edge_at_or_after(0), 0);
  EXPECT_EQ(clk.edge_at_or_after(ns(10)), ns(10));
  EXPECT_EQ(clk.edge_at_or_after(ns(10) + 1), ns(20));
  EXPECT_EQ(clk.cycles_in(ns(95)), 9);
}

// ---------- event queue ----------

class Recorder final : public Component {
 public:
  void handle(Simulation& sim, const Event& ev) override {
    order.push_back(ev.op);
    times.push_back(sim.now());
  }
  std::vector<std::uint32_t> order;
  std::vector<Tick> times;
};

TEST(Simulation, DeliversInTimeOrder) {
  Simulation sim;
  Recorder rec;
  const auto id = sim.add_component(&rec);
  sim.schedule(ns(30), id, 3);
  sim.schedule(ns(10), id, 1);
  sim.schedule(ns(20), id, 2);
  sim.run();
  EXPECT_EQ(rec.order, (std::vector<std::uint32_t>{1, 2, 3}));
  EXPECT_EQ(rec.times, (std::vector<Tick>{ns(10), ns(20), ns(30)}));
  EXPECT_EQ(sim.events_processed(), 3u);
}

TEST(Simulation, TiesBreakInIssueOrder) {
  Simulation sim;
  Recorder rec;
  const auto id = sim.add_component(&rec);
  for (std::uint32_t i = 0; i < 10; ++i) sim.schedule(ns(5), id, i);
  sim.run();
  for (std::uint32_t i = 0; i < 10; ++i) EXPECT_EQ(rec.order[i], i);
}

class Chainer final : public Component {
 public:
  void handle(Simulation& sim, const Event& ev) override {
    ++count;
    if (ev.a > 0) sim.schedule_in(ns(1), ev.comp, 0, ev.a - 1);
  }
  int count = 0;
};

TEST(Simulation, SelfSchedulingChain) {
  Simulation sim;
  Chainer c;
  const auto id = sim.add_component(&c);
  sim.schedule(0, id, 0, 100);
  sim.run();
  EXPECT_EQ(c.count, 101);
  EXPECT_EQ(sim.now(), ns(100));
}

TEST(Simulation, RunSomeResumable) {
  Simulation sim;
  Chainer c;
  const auto id = sim.add_component(&c);
  sim.schedule(0, id, 0, 10);
  EXPECT_TRUE(sim.run_some(5));
  EXPECT_EQ(c.count, 5);
  EXPECT_FALSE(sim.run_some(1000));
  EXPECT_EQ(c.count, 11);
}

// ---------- observers ----------

/// A component with its own telemetry label.
class Late final : public Component {
 public:
  void handle(Simulation&, const Event&) override {}
  [[nodiscard]] const char* telemetry_label() const override { return "late"; }
};

TEST(Simulation, ObserversCoverComponentsAddedAfterBind) {
  // Observers are bound once, before or between add_component calls; the
  // kernel covers every component either way, so a block added after the
  // bind cannot silently drop out of the metrics or the profile.
  telemetry::MetricRegistry reg;
  telemetry::Profiler prof;
  Simulation sim;
  Recorder early;
  const auto e = sim.add_component(&early);
  sim.bind({.metrics = &reg, .profiler = &prof});
  Late late;
  const auto l = sim.add_component(&late);
  sim.schedule(ns(10), l, 0);
  sim.schedule(ns(20), e, 0);
  sim.schedule(ns(30), l, 0);
  sim.run();
  const telemetry::Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter_at("sim/events"), 3u);
  EXPECT_EQ(snap.counter_at("sim/c0_comp/events"), 1u);
  EXPECT_EQ(snap.counter_at("sim/c1_late/events"), 2u);
  const telemetry::MetricValue* gap = snap.find("sim/c1_late/gap_ps");
  ASSERT_NE(gap, nullptr);
  EXPECT_EQ(gap->hist.count, 2u);
  EXPECT_EQ(gap->hist.sum, static_cast<std::uint64_t>(ns(30)));
  const telemetry::ProfileData d = prof.freeze();
  ASSERT_NE(d.find("handle;comp"), nullptr);
  const telemetry::ProfileNode* node = d.find("handle;late");
  ASSERT_NE(node, nullptr);
  EXPECT_EQ(node->count, 2u);
}

/// A component that names its first two ops.
class TwoOps final : public Component {
 public:
  void handle(Simulation&, const Event&) override {}
  [[nodiscard]] const char* telemetry_label() const override { return "two"; }
  [[nodiscard]] const char* op_label(std::uint32_t op) const override {
    return op_label_in<2>(kOpNames, op);
  }

 private:
  static constexpr const char* kOpNames[] = {"first", "second"};
};

TEST(Simulation, ProfileSplitsHandleTimeByOp) {
  // Each op gets a child of its component type's node; an op without a
  // name falls back to "op<N>". The type node counts every event and keeps
  // no time of its own, and replicated components share the op nodes.
  telemetry::Profiler prof;
  Simulation sim;
  sim.bind({.profiler = &prof});
  TwoOps a;
  TwoOps b;
  const auto ia = sim.add_component(&a);
  const auto ib = sim.add_component(&b);
  sim.schedule(ns(1), ia, 0);
  sim.schedule(ns(2), ib, 1);
  sim.schedule(ns(3), ia, 1);
  sim.schedule(ns(4), ib, 5);
  sim.run();
  const telemetry::ProfileData d = prof.freeze();
  const telemetry::ProfileNode* type = d.find("handle;two");
  ASSERT_NE(type, nullptr);
  EXPECT_EQ(type->count, 4u);
  EXPECT_EQ(type->self_ns, 0u);
  EXPECT_EQ(type->children.size(), 3u);
  ASSERT_NE(d.find("handle;two;first"), nullptr);
  ASSERT_NE(d.find("handle;two;second"), nullptr);
  ASSERT_NE(d.find("handle;two;op5"), nullptr);
  EXPECT_EQ(d.find("handle;two;first")->count, 1u);
  EXPECT_EQ(d.find("handle;two;second")->count, 2u);
  EXPECT_EQ(d.find("handle;two;op5")->count, 1u);
}

// ---------- server ----------

TEST(Server, SerializesFifo) {
  Server s;
  // Two jobs arriving together: second starts when first completes.
  EXPECT_EQ(s.acquire(ns(0), ns(10)), ns(10));
  EXPECT_EQ(s.acquire(ns(0), ns(10)), ns(20));
  // A job arriving after the server freed starts immediately.
  EXPECT_EQ(s.acquire(ns(50), ns(5)), ns(55));
  EXPECT_EQ(s.jobs(), 3u);
  EXPECT_EQ(s.busy_time(), ns(25));
  EXPECT_EQ(s.total_wait(), ns(10));
}

TEST(Server, IdleQuery) {
  Server s;
  s.acquire(0, ns(10));
  EXPECT_FALSE(s.idle_at(ns(5)));
  EXPECT_TRUE(s.idle_at(ns(10)));
}

// ---------- busy port ----------

constexpr std::uint32_t kWakeOp = 7;

TEST(BusyPort, ClaimsWhileBusyArmOneWakeAtTheFreeTime) {
  Simulation sim;
  Recorder rec;
  BusyPort port(kWakeOp);
  port.bind(sim.add_component(&rec));
  EXPECT_TRUE(port.claim(sim));  // a fresh port is free
  port.occupy(sim.now(), ns(10));
  for (int i = 0; i < 3; ++i) EXPECT_FALSE(port.claim(sim));
  sim.run();
  EXPECT_EQ(rec.order, (std::vector<std::uint32_t>{kWakeOp}));
  EXPECT_EQ(rec.times, (std::vector<Tick>{ns(10)}));
  port.woken();
  EXPECT_TRUE(port.claim(sim));
  EXPECT_EQ(rec.order.size(), 1u);  // a free claim arms nothing
}

TEST(BusyPort, RearmsOnceWhileWorkRemainsAndNotWhenDrained) {
  Simulation sim;
  Recorder rec;
  BusyPort port(kWakeOp);
  port.bind(sim.add_component(&rec));
  port.occupy(sim.now(), ns(5));
  port.rearm(sim, true);
  port.rearm(sim, true);
  sim.run();
  EXPECT_EQ(rec.times, (std::vector<Tick>{ns(5)}));

  port.woken();
  port.occupy(sim.now(), ns(5));
  port.rearm(sim, false);
  sim.run();
  EXPECT_EQ(rec.times.size(), 1u);
}

// A one-item-per-grant stage: op 0 buffers `a` items, every event pumps,
// and each serve occupies the port for `cost`.
class PortUnit final : public Component {
 public:
  explicit PortUnit(Tick cost) : cost_(cost) {}
  void handle(Simulation& sim, const Event& ev) override {
    if (ev.op == kWakeOp) {
      ++wakes;
      port.woken();
    } else {
      backlog += static_cast<std::uint32_t>(ev.a);
    }
    if (!port.claim(sim) || backlog == 0) return;
    --backlog;
    served.push_back(sim.now());
    port.occupy(sim.now(), cost_);
    port.rearm(sim, backlog > 0);
  }
  BusyPort port{kWakeOp};
  std::uint32_t backlog = 0;
  std::uint32_t wakes = 0;
  std::vector<Tick> served;

 private:
  Tick cost_;
};

TEST(BusyPort, ServesABacklogOneItemPerGrant) {
  Simulation sim;
  PortUnit unit(ns(10));
  const auto id = sim.add_component(&unit);
  unit.port.bind(id);
  sim.schedule(ns(0), id, 0, 3);
  sim.schedule(ns(15), id, 0, 1);  // lands mid-serve: no second wake
  sim.run();
  EXPECT_EQ(unit.served, (std::vector<Tick>{ns(0), ns(10), ns(20), ns(30)}));
  EXPECT_EQ(unit.wakes, 3u);
}

TEST(BusyPort, ZeroCostServeWithWorkLeftWakesAtNow) {
  Simulation sim;
  PortUnit unit(0);
  const auto id = sim.add_component(&unit);
  unit.port.bind(id);
  sim.schedule(ns(7), id, 0, 3);
  sim.run();
  EXPECT_EQ(unit.served, (std::vector<Tick>{ns(7), ns(7), ns(7)}));
  EXPECT_EQ(unit.wakes, 2u);
}

}  // namespace
}  // namespace nexus
