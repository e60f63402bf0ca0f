#include "nexus/nexussharp/nexussharp.hpp"

#include <string>

#include "nexus/telemetry/registry.hpp"
#include "nexus/telemetry/trace.hpp"

namespace nexus {

NexusSharp::NexusSharp(const NexusSharpConfig& cfg, ArbiterPolicy arbiter_policy)
    : cfg_(cfg),
      clk_(cfg.freq_mhz),
      pool_(cfg.pool_capacity),
      distributor_(cfg.distribution, cfg.num_task_graphs) {
  NEXUS_ASSERT_MSG(cfg.num_task_graphs >= 1 && cfg.num_task_graphs <= 32,
                   "Nexus# supports 1..32 task graphs");
  NEXUS_ASSERT_MSG(distributor_.preserves_affinity(),
                   "dependency tracking requires an affinity-preserving "
                   "distribution function (Section IV-A)");
  const std::uint32_t clusters = cfg.arbiter_clusters;
  const bool clustered = clusters >= 2;
  if (clustered) {
    NEXUS_ASSERT_MSG(cfg.num_task_graphs % clusters == 0,
                     "arbiter_clusters must divide num_task_graphs");
    tgs_per_cluster_ = cfg.num_task_graphs / clusters;
  } else {
    tgs_per_cluster_ = cfg.num_task_graphs;
  }
  if (cfg_.tenancy.enabled()) pool_.configure_tenancy(cfg_.tenancy.tenants);

  // Op codes are per receiving component; the ambiguous ones carry both
  // spellings (op 0 is kNewArg into a task graph, kReady into the arbiter).
  net_ = std::make_unique<noc::Network>(
      cfg_.noc, sharp_noc_endpoints(cfg.num_task_graphs, clusters),
      cfg.freq_mhz, clk_.cycles(cfg.fifo_latency), "nexus#/noc",
      std::vector<std::string>{"new_arg|ready", "fin_arg|wait", "dep", "meta",
                               "wb"});
  if (clustered) {
    root_ = std::make_unique<detail::RootArbiter>(cfg_, net_.get());
    cluster_params_.resize(clusters);
    for (std::uint32_t c = 0; c < clusters; ++c)
      arbiters_.push_back(std::make_unique<detail::SharpArbiter>(
          cfg_, arbiter_policy, net_.get(),
          sharp_leaf_node(cfg.num_task_graphs, c),
          sharp_root_node(cfg.num_task_graphs, clusters)));
  } else {
    // Flat single-arbiter pipeline: the legacy tile placement, bit-identical
    // to the pre-cluster model.
    arbiters_.push_back(std::make_unique<detail::SharpArbiter>(
        cfg_, arbiter_policy, net_.get()));
  }
  for (std::uint32_t i = 0; i < cfg.num_task_graphs; ++i) {
    const std::uint32_t c = cluster_of(i);
    tgs_.push_back(std::make_unique<detail::TaskGraphUnit>(
        cfg_, i, arbiters_[clustered ? c : 0].get(), net_.get(),
        clustered
            ? static_cast<std::int64_t>(sharp_leaf_node(cfg.num_task_graphs, c))
            : -1));
  }
}

void NexusSharp::attach(Simulation& sim, RuntimeHost* host) {
  NEXUS_ASSERT(host != nullptr);
  host_ = host;
  self_ = sim.add_component(this);
  const telemetry::Observers& obs = sim.observers();
  pool_.bind(obs, "nexus#/pool");
  if (clustered()) {
    const auto clusters = static_cast<std::uint32_t>(arbiters_.size());
    for (std::uint32_t c = 0; c < clusters; ++c) {
      relays_.push_back(std::make_unique<detail::ClusterRelay>(root_.get()));
      arbiters_[c]->attach(
          sim, relays_.back().get(),
          telemetry::path_join(
              telemetry::indexed_path("nexus#/cluster", c, clusters),
              "arbiter"));
    }
    root_->attach(sim, host);
  } else {
    arbiters_[0]->attach(sim, host, "nexus#/arbiter");
  }
  for (auto& tg : tgs_) tg->attach(sim);
  // Last, so the block's own components keep their pre-NoC ids/labels.
  net_->attach(sim);

  if (obs.metrics == nullptr) return;
  telemetry::MetricRegistry& reg = *obs.metrics;
  m_route_.assign(cfg_.num_task_graphs, nullptr);
  for (std::uint32_t i = 0; i < cfg_.num_task_graphs; ++i)
    m_route_[i] = &reg.counter("nexus#/tg" + std::to_string(i) + "/routed");
  m_tasks_in_ = &reg.counter("nexus#/tasks_in");
  m_finishes_ = &reg.counter("nexus#/finishes");
  if (cfg_.tenancy.enabled()) {
    pool_.tenant_ledger().bind(obs, "nexus#/pool");
    m_nacks_ = &reg.counter("nexus#/admission/nacks");
    m_tenant_nacks_.assign(cfg_.tenancy.tenants, nullptr);
    for (std::uint32_t t = 0; t < cfg_.tenancy.tenants; ++t)
      m_tenant_nacks_[t] = &reg.counter(telemetry::path_join(
          telemetry::path_join("nexus#/admission",
                               telemetry::indexed_path("tenant", t,
                                                       cfg_.tenancy.tenants)),
          "nacks"));
  }
}

Tick NexusSharp::taskwait_on_query_cost() const {
  return clk_.cycles(cfg_.taskwait_on_cycles);
}

bool NexusSharp::over_quota(std::uint16_t tenant) const {
  const hw::TenantQuota& q = cfg_.tenancy.quota;
  if (q.pool > 0 && pool_.tenant_ledger().count(tenant) >= q.pool) return true;
  if (q.table > 0) {
    std::uint64_t used = 0;
    for (const auto& tg : tgs_) used += tg->table().tenant_ledger().count(tenant);
    if (used >= q.table) return true;
  }
  if (q.dep > 0) {
    std::uint64_t parked = 0;
    for (const auto& arb : arbiters_)
      parked += arb->dep_counts().tenant_ledger().count(tenant);
    if (parked >= q.dep) return true;
  }
  return false;
}

Tick NexusSharp::submit(Simulation& sim, const TaskDescriptor& task) {
  if (pool_.full()) {
    master_blocked_ = true;
    return kSubmitBlocked;
  }
  if (cfg_.tenancy.enabled()) {
    NEXUS_ASSERT_MSG(task.tenant < cfg_.tenancy.tenants,
                     "task tenant out of range");
    if (over_quota(task.tenant)) {
      // Per-tenant backpressure: only this tenant is held; the structures
      // still have room for others. The single-stream driver degrades this
      // to a plain block (manager.hpp, kSubmitNacked).
      master_blocked_ = true;
      ++nacks_;
      telemetry::inc(m_nacks_);
      if (!m_tenant_nacks_.empty()) telemetry::inc(m_tenant_nacks_[task.tenant]);
      return kSubmitNacked;
    }
  }
  ++tasks_in_;
  telemetry::inc(m_tasks_in_);
  pool_.insert(task, sim.now());

  const auto nparams = static_cast<std::int64_t>(task.num_params());
  const Tick recv_done = io_.acquire(
      sim.now(), cycles(cfg_.header_cycles + cfg_.recv_per_param * nparams +
                        cfg_.pool_write_cycles));
  const Tick recv_start =
      recv_done - cycles(cfg_.header_cycles + cfg_.recv_per_param * nparams +
                         cfg_.pool_write_cycles);

  // The Input Parser distributes each parameter the cycle it arrives
  // (Section IV-B): parameter i is complete after the header plus i+1
  // two-packet address transfers; it reaches its task graph's New Args
  // buffer after the FIFO visibility latency.
  const bool single = task.num_params() == 1;
  if (clustered())
    cluster_params_.assign(cluster_params_.size(), 0);
  for (std::size_t i = 0; i < task.num_params(); ++i) {
    const Param& p = task.params[i];
    const Tick arrival =
        recv_start + cycles(cfg_.header_cycles +
                            cfg_.recv_per_param * static_cast<std::int64_t>(i + 1));
    detail::TaskGraphUnit::Arg arg;
    arg.task = task.id;
    arg.addr = p.addr;
    arg.is_writer = is_write(p.dir);
    arg.single_param = single;
    arg.tenant = task.tenant;
    const std::uint32_t tgt = distributor_.target(p.addr);
    if (clustered()) ++cluster_params_[cluster_of(tgt)];
    if (!m_route_.empty()) m_route_[tgt]->inc();
    net_->send(sim, arrival, sharp_io_node(), sharp_tg_node(tgt),
               tgs_[tgt]->component_id(), detail::TaskGraphUnit::kNewArg,
               detail::TaskGraphUnit::pack(arg), p.addr, noc::kParamBytes);
  }

  // IPf: descriptor committed to the Task Pool one cycle after the last
  // parameter; the arbiter(s) can conclude the task's gather from then on.
  // The tenant field is 0 outside multi-tenant runs, keeping the packing
  // bit-identical to the legacy id|nparams encoding.
  if (!clustered()) {
    const std::uint64_t meta =
        static_cast<std::uint64_t>(task.id) |
        (static_cast<std::uint64_t>(task.num_params() & 0xFFFF) << 32) |
        (static_cast<std::uint64_t>(task.tenant) << 48);
    // The ideal crossbar commits the descriptor on a free side-band. On a
    // real topology it is a parameter-list-sized message from the IO tile
    // to the arbiter tile, and may arrive after the task's ready record;
    // the arbiter parks that record until the descriptor lands (meta_parks
    // metric).
    net_->send_sideband(
        sim, recv_done, sharp_io_node(), sharp_arbiter_node(cfg_.num_task_graphs),
        arbiters_[0]->component_id(), detail::SharpArbiter::kMeta, meta,
        noc::kParamBytes * static_cast<std::uint32_t>(task.num_params()));
  } else {
    // Clustered: each participating leaf gets a descriptor carrying its
    // cluster-local parameter count; the root gets the participating-cluster
    // count so it can AND the leaves' cluster-ready reports.
    std::uint32_t participating = 0;
    for (std::uint32_t c = 0; c < cluster_params_.size(); ++c) {
      if (cluster_params_[c] == 0) continue;
      ++participating;
      const std::uint64_t meta =
          static_cast<std::uint64_t>(task.id) |
          (static_cast<std::uint64_t>(cluster_params_[c] & 0xFFFF) << 32) |
          (static_cast<std::uint64_t>(task.tenant) << 48);
      net_->send_sideband(sim, recv_done, sharp_io_node(),
                          sharp_leaf_node(cfg_.num_task_graphs, c),
                          arbiters_[c]->component_id(),
                          detail::SharpArbiter::kMeta, meta,
                          noc::kParamBytes * cluster_params_[c]);
    }
    const std::uint64_t root_meta =
        static_cast<std::uint64_t>(task.id) |
        (static_cast<std::uint64_t>(participating) << 32) |
        (static_cast<std::uint64_t>(task.tenant) << 48);
    net_->send_sideband(
        sim, recv_done, sharp_io_node(),
        sharp_root_node(cfg_.num_task_graphs, cfg_.arbiter_clusters),
        root_->component_id(), detail::RootArbiter::kMeta, root_meta,
        noc::kParamBytes);
  }
  return recv_done;
}

Tick NexusSharp::notify_finished(Simulation& sim, TaskId id) {
  // Finish notification shares the Nexus IO / Input Parser with
  // submissions; the parser then reads the task's I/O list from the Task
  // Pool and redistributes it to the Finished Args buffers.
  telemetry::inc(m_finishes_);
  const TaskDescriptor& task = pool_.get(id);
  const auto nparams = static_cast<std::int64_t>(task.num_params());
  const Tick recv_done = io_.acquire(sim.now(), cycles(cfg_.finish_receive));
  const Tick dist_done =
      io_.acquire(recv_done, cycles(cfg_.pool_read_cycles +
                                    cfg_.distribute_per_param * nparams));
  const Tick dist_start =
      dist_done -
      cycles(cfg_.pool_read_cycles + cfg_.distribute_per_param * nparams);

  for (std::size_t i = 0; i < task.num_params(); ++i) {
    const Param& p = task.params[i];
    const Tick arrival =
        dist_start +
        cycles(cfg_.pool_read_cycles +
               cfg_.distribute_per_param * static_cast<std::int64_t>(i + 1));
    detail::TaskGraphUnit::Arg arg;
    arg.task = id;
    arg.addr = p.addr;
    arg.is_writer = is_write(p.dir);
    arg.tenant = task.tenant;
    const std::uint32_t tgt = distributor_.target(p.addr);
    if (!m_route_.empty()) m_route_[tgt]->inc();
    net_->send(sim, arrival, sharp_io_node(), sharp_tg_node(tgt),
               tgs_[tgt]->component_id(), detail::TaskGraphUnit::kFinishedArg,
               detail::TaskGraphUnit::pack(arg), p.addr, noc::kParamBytes);
  }
  // The pool slot is reclaimable once the I/O list has been read out.
  sim.schedule(dist_done, self_, kFinishDistributed, id);
  return recv_done;  // the worker is free once the notification is accepted
}

void NexusSharp::handle(Simulation& sim, const Event& ev) {
  switch (ev.op) {
    case kFinishDistributed:
      pool_.erase(static_cast<TaskId>(ev.a), sim.now());
      if (master_blocked_) {
        master_blocked_ = false;
        host_->master_resume(sim);
      }
      break;
    default:
      NEXUS_ASSERT_MSG(false, "unknown NexusSharp op");
  }
}

NexusSharp::Stats NexusSharp::stats() const {
  Stats s;
  s.tasks_in = tasks_in_;
  s.nacks = nacks_;
  s.pool_peak = pool_.peak();
  s.io_busy = io_.busy_time();
  for (const auto& arb : arbiters_) {
    s.sim_tasks_live += arb->sim_tasks_live();
    s.arbiter_busy += arb->busy_time();
  }
  if (root_ != nullptr) {
    s.ready_out = root_->ready_delivered();
    s.sim_tasks_live += root_->live();
    s.arbiter_busy += root_->busy_time();
  } else {
    s.ready_out = arbiters_[0]->ready_delivered();
  }
  for (const auto& tg : tgs_) {
    s.table_stalls += tg->table().total_stalls();
    s.tg_busy.push_back(tg->busy_time());
    s.tg_args.push_back(tg->args_processed());
  }
  return s;
}

}  // namespace nexus
