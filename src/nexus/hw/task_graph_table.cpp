#include "nexus/hw/task_graph_table.hpp"

#include <algorithm>

#include "nexus/common/bit_ops.hpp"
#include "nexus/telemetry/registry.hpp"

namespace nexus::hw {

TaskGraphTable::TaskGraphTable(const TableConfig& cfg) : cfg_(cfg) {
  NEXUS_ASSERT_MSG(is_pow2(cfg.sets), "set count must be a power of two");
  NEXUS_ASSERT(cfg.ways >= 1 && cfg.kol_entries >= 1);
  slots_.resize(static_cast<std::size_t>(cfg.sets) * cfg.ways);
}

std::uint32_t TaskGraphTable::set_of(Addr addr) const {
  // Cache-style index bits above the 64-byte line offset; workload address
  // maps stride by 0x40 so consecutive objects hit consecutive sets.
  return static_cast<std::uint32_t>((addr >> 6) & (cfg_.sets - 1));
}

TaskGraphTable::Entry* TaskGraphTable::find(Addr addr) {
  const std::uint32_t base = set_of(addr) * cfg_.ways;
  for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
    Entry& e = slots_[base + w];
    if (e.valid && !e.is_chain && e.addr == addr) return &e;
  }
  return nullptr;
}

TaskGraphTable::Entry* TaskGraphTable::allocate(Addr addr,
                                                std::uint16_t tenant) {
  const std::uint32_t base = set_of(addr) * cfg_.ways;
  for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
    Entry& e = slots_[base + w];
    if (!e.valid) {
      e = Entry{};
      e.valid = true;
      e.addr = addr;
      e.tenant = tenant;
      if (tenants_.enabled()) tenants_.add(tenant);
      ++used_slots_;
      peak_used_ = std::max<std::uint64_t>(peak_used_, used_slots_);
      return &e;
    }
  }
  return nullptr;
}

bool TaskGraphTable::grow_chain(Entry& e, Addr addr) {
  // Probe other sets for a free way to hold the dummy/extension entry.
  const std::uint32_t home = set_of(addr);
  for (std::uint32_t k = 1; k <= cfg_.chain_probe_limit; ++k) {
    const std::uint32_t s = (home + k * 0x9E37u) & (cfg_.sets - 1);
    const std::uint32_t base = s * cfg_.ways;
    for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
      Entry& c = slots_[base + w];
      if (!c.valid) {
        c = Entry{};
        c.valid = true;
        c.is_chain = true;
        c.addr = addr;
        c.tenant = e.tenant;
        if (tenants_.enabled()) tenants_.add(e.tenant);
        ++used_slots_;
        peak_used_ = std::max<std::uint64_t>(peak_used_, used_slots_);
        e.chain_idx.push_back(base + w);
        return true;
      }
    }
  }
  return false;
}

void TaskGraphTable::shrink_chain(Entry& e) {
  const std::size_t len = e.kol.size();
  const std::size_t needed =
      len <= cfg_.kol_entries
          ? 0
          : (len - cfg_.kol_entries + cfg_.kol_entries - 1) / cfg_.kol_entries;
  while (e.chain_idx.size() > needed) {
    Entry& c = slots_[e.chain_idx.back()];
    NEXUS_DCHECK(c.valid && c.is_chain);
    c.valid = false;
    if (tenants_.enabled()) tenants_.sub(c.tenant);
    NEXUS_ASSERT(used_slots_ > 0);
    --used_slots_;
    e.chain_idx.pop_back();
  }
}

void TaskGraphTable::release_entry(Entry& e) {
  NEXUS_DCHECK(e.kol.empty());
  shrink_chain(e);
  NEXUS_DCHECK(e.chain_idx.empty());
  e.valid = false;
  if (tenants_.enabled()) tenants_.sub(e.tenant);
  NEXUS_ASSERT(used_slots_ > 0);
  --used_slots_;
}

TaskGraphTable::InsertResult TaskGraphTable::insert(Addr addr, TaskId task,
                                                    bool is_writer,
                                                    std::uint16_t tenant) {
  Entry* e = find(addr);
  if (e == nullptr) {
    e = allocate(addr, tenant);
    if (e == nullptr) {
      ++stalls_;
      telemetry::inc(m_stalls_);
      return {InsertKind::kNoSpace, 0};
    }
    e->cur_is_writer = is_writer;
    e->cur_unfinished = 1;
    telemetry::inc(m_inserts_);
    telemetry::record(m_fill_, used_slots_);
    return {InsertKind::kRunsNow, 0};
  }

  if (!is_writer && !e->cur_is_writer && e->kol.empty()) {
    // Reader joins the running reader group.
    ++e->cur_unfinished;
    telemetry::inc(m_inserts_);
    telemetry::record(m_fill_, used_slots_);
    return {InsertKind::kRunsNow, 0};
  }

  // Append to the kick-off list; may need another dummy entry.
  const std::size_t capacity =
      static_cast<std::size_t>(cfg_.kol_entries) * (1 + e->chain_idx.size());
  if (e->kol.size() == capacity) {
    if (!grow_chain(*e, addr)) {
      ++stalls_;
      telemetry::inc(m_stalls_);
      return {InsertKind::kNoSpace, static_cast<std::uint32_t>(e->chain_idx.size())};
    }
  }
  e->kol.push_back(Waiter{task, is_writer});
  telemetry::inc(m_inserts_);
  telemetry::inc(m_queued_);
  telemetry::inc(m_chain_hops_, e->chain_idx.size());
  telemetry::record(m_fill_, used_slots_);
  return {InsertKind::kQueued, static_cast<std::uint32_t>(e->chain_idx.size())};
}

TaskGraphTable::FinishResult TaskGraphTable::finish(Addr addr, TaskId /*task*/,
                                                    std::vector<Waiter>* kicked) {
  NEXUS_ASSERT(kicked != nullptr);
  Entry* e = find(addr);
  NEXUS_ASSERT_MSG(e != nullptr, "finish for untracked address");
  NEXUS_ASSERT(e->cur_unfinished > 0);
  FinishResult r;
  if (--e->cur_unfinished > 0) return r;

  if (e->kol.empty()) {
    release_entry(*e);
    r.entry_freed = true;
    return r;
  }

  // Kick off the next group: a single writer, or every consecutive reader.
  r.chain_hops = static_cast<std::uint32_t>(e->chain_idx.size());
  telemetry::inc(m_chain_hops_, r.chain_hops);
  if (e->kol.front().is_writer) {
    kicked->push_back(e->kol.front());
    e->kol.pop_front();
    e->cur_is_writer = true;
    e->cur_unfinished = 1;
  } else {
    e->cur_is_writer = false;
    e->cur_unfinished = 0;
    while (!e->kol.empty() && !e->kol.front().is_writer) {
      kicked->push_back(e->kol.front());
      e->kol.pop_front();
      ++e->cur_unfinished;
    }
  }
  shrink_chain(*e);
  return r;
}

bool TaskGraphTable::tracks(Addr addr) const {
  return const_cast<TaskGraphTable*>(this)->find(addr) != nullptr;
}

void TaskGraphTable::bind(const telemetry::Observers& obs,
                          std::string_view prefix) {
  if (obs.metrics == nullptr) return;
  telemetry::MetricRegistry& reg = *obs.metrics;
  m_inserts_ = &reg.counter(telemetry::path_join(prefix, "inserts"));
  m_queued_ = &reg.counter(telemetry::path_join(prefix, "queued"));
  m_stalls_ = &reg.counter(telemetry::path_join(prefix, "stalls"));
  m_chain_hops_ = &reg.counter(telemetry::path_join(prefix, "chain_hops"));
  m_fill_ = &reg.histogram(telemetry::path_join(prefix, "fill"));
}

}  // namespace nexus::hw
