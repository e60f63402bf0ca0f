// Nexus# configuration: task-graph count, clock frequency and the cycle
// budget of every unit in Figs. 4/5.
#pragma once

#include <cstdint>

#include "nexus/hw/distribution.hpp"
#include "nexus/hw/task_graph_table.hpp"
#include "nexus/hw/tenancy.hpp"
#include "nexus/noc/topology.hpp"

namespace nexus {

struct NexusSharpConfig {
  std::uint32_t num_task_graphs = 6;  ///< the paper's chosen configuration
  double freq_mhz = 55.56;            ///< Table I test frequency for 6 TGs
  hw::TableConfig table{};            ///< per-task-graph set-associative table
  /// In-flight task window; see NexusPPConfig::pool_capacity.
  std::size_t pool_capacity = 1024;
  hw::DistributionPolicy distribution = hw::DistributionPolicy::kXorFold;

  /// Shard the task graphs into this many clusters, each with its own leaf
  /// Dependence Counts Arbiter, under a root arbiter that merges per-cluster
  /// readiness and write-backs (Section VI's scaling direction). 0 or 1 keeps
  /// the flat single-arbiter pipeline, bit-identical to the pre-cluster
  /// model. Must divide num_task_graphs; task graph i belongs to cluster
  /// i / (num_task_graphs / clusters) (contiguous shards).
  std::uint32_t arbiter_clusters = 0;

  /// Multi-tenant admission control and QoS (see hw/tenancy.hpp). Disabled
  /// by default; when enabled, per-tenant quotas NACK over-quota tenants at
  /// the IO tile and the root arbiter serves ready tasks per-tenant
  /// weighted-round-robin instead of strictly FIFO.
  hw::TenancyConfig tenancy{};

  /// On-manager interconnect carrying the distributed traffic: Input Parser
  /// -> New/Finished Args, IO -> arbiter kMeta descriptors (non-ideal only;
  /// the ideal crossbar keeps the legacy zero-cost side-band), task graphs
  /// -> arbiter records, arbiter -> IO write-backs. Logical endpoints:
  /// IO/Input Parser at node 0, task graph i at node 1+i, the Dependence
  /// Counts Arbiter at node 1+num_task_graphs; `noc.placement` remaps them
  /// onto fabric tiles. The default (ideal crossbar at `fifo_latency`) is
  /// bit-identical to the pre-NoC model; ring/mesh/torus add per-hop
  /// distance and payload-proportional (multi-flit) per-link contention.
  noc::NocConfig noc{};

  // --- submission pipeline (Fig. 4) ---
  std::int64_t header_cycles = 2;      ///< IPh: header word (fn ptr + #params)
  std::int64_t recv_per_param = 2;     ///< IP: two 32-bit PCIe packets/address
  std::int64_t pool_write_cycles = 1;  ///< IPf: descriptor into the Task Pool
  std::int64_t fifo_latency = 3;       ///< "data needs 3 cycles to appear"
  std::int64_t tg_insert_per_param = 5;///< IN: task-graph insertion
  std::int64_t chain_hop_cycles = 2;   ///< per dummy-entry hop in a kick-off list

  // --- Dependence Counts Arbiter (Section IV-C/D) ---
  std::int64_t arb_ready_cycles = 1;   ///< forward a ready-task record
  std::int64_t arb_wait_cycles = 2;    ///< waiting-task decrement
  std::int64_t arb_dep_cycles = 2;     ///< dep-count gather per record
  std::int64_t writeback_cycles = 3;   ///< WB: ready id + fn ptr to Nexus IO
  /// Root arbiter (clustered mode only): cycles to merge one cluster-ready
  /// report and grant a ready task from the per-tenant queues.
  std::int64_t root_grant_cycles = 1;

  // --- finished-task path ---
  std::int64_t finish_receive = 2;        ///< notification over the IO unit
  std::int64_t pool_read_cycles = 1;      ///< Task Pool I/O-list read
  std::int64_t distribute_per_param = 1;  ///< redistribute to Finished Args
  std::int64_t tg_finish_per_param = 5;   ///< task-graph update
  std::int64_t kick_enqueue_cycles = 1;   ///< per waiter into Wait. Tasks Buffer

  // --- host-visible pragma support ---
  std::int64_t taskwait_on_cycles = 5;  ///< query round trip through the IO unit
};

/// Arbiter service priority (Section IV-D): the paper's policy serves Ready
/// Tasks first, then Waiting Tasks, then Dep Counts. Alternatives exist for
/// the ablation bench.
enum class ArbiterPolicy : std::uint8_t {
  kReadyFirst = 0,  ///< paper: Ready > Waiting > DepCounts
  kDepFirst = 1,    ///< reversed: DepCounts > Waiting > Ready
  kRoundRobin = 2,  ///< rotate between the three buffer classes
};

const char* to_string(ArbiterPolicy p);

/// Nexus# NoC placement (see NexusSharpConfig::noc): the IO/Input Parser
/// tile, one tile per task graph, then the arbiter tile.
constexpr noc::NodeId sharp_io_node() { return 0; }
constexpr noc::NodeId sharp_tg_node(std::uint32_t tg) { return 1 + tg; }
constexpr noc::NodeId sharp_arbiter_node(std::uint32_t num_tgs) {
  return 1 + num_tgs;
}
constexpr std::uint32_t sharp_noc_endpoints(std::uint32_t num_tgs) {
  return num_tgs + 2;
}

/// Clustered placement (arbiter_clusters >= 2): IO at 0, task graphs at
/// 1+i, leaf arbiter of cluster c at 1+num_tgs+c, the root arbiter last.
constexpr noc::NodeId sharp_leaf_node(std::uint32_t num_tgs, std::uint32_t c) {
  return 1 + num_tgs + c;
}
constexpr noc::NodeId sharp_root_node(std::uint32_t num_tgs,
                                      std::uint32_t clusters) {
  return 1 + num_tgs + clusters;
}
constexpr std::uint32_t sharp_noc_endpoints(std::uint32_t num_tgs,
                                            std::uint32_t clusters) {
  return clusters >= 2 ? num_tgs + clusters + 2 : sharp_noc_endpoints(num_tgs);
}

}  // namespace nexus
