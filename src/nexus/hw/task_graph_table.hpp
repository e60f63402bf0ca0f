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
// finishes", Section IV-D). It signals no freed space: an owner retries a
// refused insert at each grant of its table port, and every finish it
// serves re-arms that grant.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "nexus/common/fixed_ring.hpp"
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

  /// Fail loudly when parameter `index` of `task`, just refused with
  /// kNoSpace, can never be inserted: every way of its set holds the entry
  /// of one of the task's earlier, already inserted parameters. Those
  /// entries cannot drain before the task runs, and the task cannot run
  /// before this insert, so the stall would never clear. `unit` names the
  /// table's owner in the message. Returns when the stall can still clear.
  void check_self_stall(const char* unit, const TaskDescriptor& task,
                        std::size_t index) const;

  /// Retire `task`'s access to `addr`. If the running group drains, the
  /// next kick-off-list group starts running and its members are appended
  /// to *kicked (each represents one dependence satisfied). Returns the
  /// dummy entries walked to reach that group (0 when nothing is kicked).
  std::uint32_t finish(Addr addr, TaskId task, std::vector<Waiter>* kicked);

  // --- occupancy / capacity introspection ---
  [[nodiscard]] std::uint32_t entries_in_use() const { return used_slots_; }
  [[nodiscard]] std::uint32_t capacity() const {
    return cfg_.sets * cfg_.ways;
  }
  [[nodiscard]] bool tracks(Addr addr) const;

  /// Enable per-tenant slot accounting (tenancy quotas).
  void configure_tenancy(std::uint32_t tenants) { tenants_.configure(tenants); }
  [[nodiscard]] const TenantLedger& tenant_ledger() const { return tenants_; }

  /// Pick up the run's observers (the owner calls this from its attach):
  /// fill/stall/chain metrics under `prefix`.
  void bind(const telemetry::Observers& obs, std::string_view prefix);

 private:
  // A slot is reset in place when (re)allocated: its kick-off list and
  // chain index keep their storage, so a reused slot allocates nothing.
  struct Entry {
    bool valid = false;
    bool is_chain = false;         ///< dummy/extension slot
    bool cur_is_writer = false;
    std::uint16_t tenant = 0;  ///< owner of this slot (tenancy accounting)
    std::uint32_t cur_unfinished = 0;
    FixedRing<Waiter> kol;                 ///< logical kick-off list (FIFO)
    std::vector<std::uint32_t> chain_idx;  ///< slots of dummy entries backing kol
  };

  [[nodiscard]] std::uint32_t set_of(Addr addr) const;
  Entry* find(Addr addr);
  Entry* allocate(Addr addr, std::uint16_t tenant);
  /// Claim free slot `i` in place (chain slots keep a zero tag).
  Entry& claim(std::uint32_t i, std::uint16_t tenant, bool is_chain);
  /// Allocate/free physical dummy slots to cover a kick-off list of `len`.
  bool grow_chain(Entry& e, Addr addr);
  void shrink_chain(Entry& e);
  void release_entry(Entry& e);

  TableConfig cfg_;
  std::vector<Entry> slots_;  ///< sets*ways, row-major by set
  /// Per slot: addr + 1 for a valid non-chain slot, else 0. find() probes a
  /// set's ways in these packed words instead of the wide entries.
  std::vector<std::uint64_t> tags_;
  TenantLedger tenants_;
  std::uint32_t used_slots_ = 0;

  telemetry::Counter* m_inserts_ = nullptr;     ///< accesses recorded
  telemetry::Counter* m_queued_ = nullptr;      ///< accesses that waited
  telemetry::Counter* m_stalls_ = nullptr;      ///< kNoSpace rejections
  telemetry::Counter* m_chain_hops_ = nullptr;  ///< dummy-entry traversals
  telemetry::Histogram* m_fill_ = nullptr;      ///< slots used, per insert
};

}  // namespace nexus::hw
