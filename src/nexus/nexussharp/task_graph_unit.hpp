// One distributed task graph of Nexus# (Fig. 2).
//
// Each unit owns a Nexus++-style set-associative table and serves two input
// streams: New Args (parameter insertions) and Finished Args (releases).
// Finished args are served first — they free table space and unblock a
// stalled insertion, which also makes the stall handling deadlock-free.
// Results flow to the Dependence Counts Arbiter through the unit's Ready
// Tasks / Dep. Counts / Waiting Tasks buffers (modelled as the arbiter's
// input queues plus the FIFO visibility latency).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "nexus/common/fixed_ring.hpp"
#include "nexus/hw/task_graph_table.hpp"
#include "nexus/hw/task_pool.hpp"
#include "nexus/noc/network.hpp"
#include "nexus/nexussharp/arbiter.hpp"
#include "nexus/nexussharp/config.hpp"
#include "nexus/sim/server.hpp"
#include "nexus/sim/simulation.hpp"

namespace nexus::detail {

class TaskGraphUnit final : public Component {
 public:
  /// `arb_node` places the unit's result-record destination on the NoC:
  /// the arbiter tile of the unit's cluster (the flat arbiter's tile is
  /// cluster 0's). `pool` is the manager's Task Pool, read only to name a
  /// task that stalls on its own parameters.
  TaskGraphUnit(const NexusSharpConfig& cfg, std::uint32_t index,
                SharpArbiter* arbiter, noc::Network* net,
                noc::NodeId arb_node, const hw::TaskPool& pool);

  /// Register with the simulation and pick up its observers: queue-depth
  /// and service metrics (and the table's) under "nexus#/tg<i>"; dependency
  /// edges at kick time plus per-arg table occupancy spans on the
  /// "sharp/tg<i>" trace track.
  void attach(Simulation& sim);

  /// Component id for event addressing (valid after attach).
  [[nodiscard]] std::uint32_t component_id() const { return self_; }

  /// One entry of a New Args / Finished Args buffer.
  struct Arg {
    TaskId task = kInvalidTask;
    Addr addr = 0;
    bool is_writer = false;
    bool single_param = false;  ///< task has exactly one parameter
    std::uint16_t tenant = 0;   ///< attributes table slots (tenancy quotas)
  };

  enum Op : std::uint32_t {
    kNewArg = 0,       ///< a = packed arg meta, b = addr
    kFinishedArg = 1,  ///< a = packed arg meta, b = addr
    kPump = 2,
    kOpCount
  };
  static constexpr const char* kOpNames[] = {"new_arg", "finished_arg",
                                             "pump"};

  static std::uint64_t pack(const Arg& a);
  static Arg unpack(std::uint64_t meta, Addr addr);

  void handle(Simulation& sim, const Event& ev) override;

  [[nodiscard]] const char* telemetry_label() const override { return "tg"; }
  [[nodiscard]] const char* op_label(std::uint32_t op) const override {
    return op_label_in<kOpCount>(kOpNames, op);
  }

  [[nodiscard]] const hw::TaskGraphTable& table() const { return table_; }

 private:
  [[nodiscard]] Tick cycles(std::int64_t n) const { return clk_.cycles(n); }
  void pump(Simulation& sim);
  /// Serve one finished arg (returns service cost).
  Tick serve_finished(Simulation& sim, const Arg& a);
  /// Try to serve the head new arg; false if stalled on table space.
  bool serve_new(Simulation& sim, Tick* cost);

  const NexusSharpConfig& cfg_;
  std::uint32_t index_;
  SharpArbiter* arbiter_;
  noc::Network* net_;  ///< result records travel tg-node -> arb_node_
  noc::NodeId arb_node_ = 0;
  const hw::TaskPool& pool_;
  ClockDomain clk_;
  std::uint32_t self_ = 0;

  hw::TaskGraphTable table_;
  FixedRing<Arg> new_q_;
  FixedRing<Arg> fin_q_;
  BusyPort port_{kPump};

  std::vector<hw::Waiter> kicked_scratch_;
  telemetry::TraceRecorder* trace_ = nullptr;
  std::string trace_track_;  ///< "sharp/tg<i>"

  telemetry::Histogram* m_new_depth_ = nullptr;  ///< New Args depth per push
  telemetry::Histogram* m_fin_depth_ = nullptr;  ///< Finished Args depth
  telemetry::Counter* m_args_ = nullptr;         ///< args served
  telemetry::Counter* m_kicks_ = nullptr;        ///< waiters kicked
};

}  // namespace nexus::detail
