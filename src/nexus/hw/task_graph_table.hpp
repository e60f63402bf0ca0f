// The set-associative task-graph structure of Nexus++/Nexus#.
//
// Both designs keep, per tracked memory address, the currently-running
// access group (one writer or concurrent readers) and a FIFO Kick-Off List
// of waiting accesses (Section III / IV-C). The table is set-associative and
// physically bounded:
//
//  - an address maps to a set; allocation takes a free way or stalls,
//  - a kick-off list holds `kol_entries` waiters inline; longer lists chain
//    "dummy entries" allocated elsewhere in the table (the mechanism the
//    Gaussian-elimination benchmark validates, Section V-A/VI),
//  - an entry is reclaimed when its last access finishes and no waiter
//    remains.
//
// The table reports chain-hop counts so the timing models can charge extra
// cycles for walking chained lists, and reports kNoSpace so they can model
// insert-stage stalls ("the task graph must then wait until one task
// finishes", Section IV-D).
#pragma once

#include <cstdint>
#include <deque>
#include <string_view>
#include <vector>

#include "nexus/hw/tenancy.hpp"
#include "nexus/task/task.hpp"
#include "nexus/telemetry/observers.hpp"

namespace nexus::hw {

struct TableConfig {
  std::uint32_t sets = 256;
  std::uint32_t ways = 4;
  std::uint32_t kol_entries = 8;       ///< inline kick-off-list capacity
  std::uint32_t chain_probe_limit = 8; ///< sets probed for a dummy entry
};

/// One waiting access in a kick-off list.
struct Waiter {
  TaskId task = kInvalidTask;
  bool is_writer = false;
};

class TaskGraphTable {
 public:
  explicit TaskGraphTable(const TableConfig& cfg);

  enum class InsertKind : std::uint8_t {
    kRunsNow,  ///< no dependency on this address
    kQueued,   ///< appended to the kick-off list (one dependence)
    kNoSpace,  ///< allocation failed: caller must stall and retry
  };
  struct InsertResult {
    InsertKind kind = InsertKind::kNoSpace;
    std::uint32_t chain_hops = 0;  ///< dummy entries traversed/allocated
  };

  /// Record an access by `task` to `addr`. `tenant` attributes any slots the
  /// access allocates when tenancy accounting is configured; tenant address
  /// windows are disjoint, so every entry belongs to exactly one tenant.
  InsertResult insert(Addr addr, TaskId task, bool is_writer,
                      std::uint16_t tenant = 0);

  struct FinishResult {
    std::uint32_t chain_hops = 0;
    bool entry_freed = false;  ///< address fully drained, ways reclaimed
  };

  /// Retire `task`'s access to `addr`. If the running group drains, the
  /// next kick-off-list group starts running and its members are appended
  /// to *kicked (each represents one dependence satisfied).
  FinishResult finish(Addr addr, TaskId task, std::vector<Waiter>* kicked);

  // --- occupancy / capacity introspection ---
  [[nodiscard]] std::uint32_t entries_in_use() const { return used_slots_; }
  [[nodiscard]] std::uint32_t capacity() const {
    return cfg_.sets * cfg_.ways;
  }
  [[nodiscard]] bool tracks(Addr addr) const;
  [[nodiscard]] std::uint64_t total_stalls() const { return stalls_; }
  [[nodiscard]] std::uint64_t peak_used() const { return peak_used_; }

  /// Enable per-tenant slot accounting (tenancy quotas).
  void configure_tenancy(std::uint32_t tenants) { tenants_.configure(tenants); }
  [[nodiscard]] const TenantLedger& tenant_ledger() const { return tenants_; }

  /// Pick up the run's observers (the owner calls this from its attach):
  /// fill/stall/chain metrics under `prefix`.
  void bind(const telemetry::Observers& obs, std::string_view prefix);

 private:
  struct Entry {
    Addr addr = 0;
    bool valid = false;
    bool is_chain = false;         ///< dummy/extension slot
    bool cur_is_writer = false;
    std::uint16_t tenant = 0;  ///< owner of this slot (tenancy accounting)
    std::uint32_t cur_unfinished = 0;
    std::deque<Waiter> kol;                ///< logical kick-off list (FIFO)
    std::vector<std::uint32_t> chain_idx;  ///< slots of dummy entries backing kol
  };

  [[nodiscard]] std::uint32_t set_of(Addr addr) const;
  Entry* find(Addr addr);
  Entry* allocate(Addr addr, std::uint16_t tenant);
  /// Allocate/free physical dummy slots to cover a kick-off list of `len`.
  bool grow_chain(Entry& e, Addr addr);
  void shrink_chain(Entry& e);
  void release_entry(Entry& e);

  TableConfig cfg_;
  std::vector<Entry> slots_;  ///< sets*ways, row-major by set
  TenantLedger tenants_;
  std::uint32_t used_slots_ = 0;
  std::uint64_t stalls_ = 0;
  std::uint64_t peak_used_ = 0;

  telemetry::Counter* m_inserts_ = nullptr;     ///< accesses recorded
  telemetry::Counter* m_queued_ = nullptr;      ///< accesses that waited
  telemetry::Counter* m_stalls_ = nullptr;      ///< kNoSpace rejections
  telemetry::Counter* m_chain_hops_ = nullptr;  ///< dummy-entry traversals
  telemetry::Histogram* m_fill_ = nullptr;      ///< slots used, per insert
};

}  // namespace nexus::hw
