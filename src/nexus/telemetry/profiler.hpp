// Host-side self-profiler: wall-clock attribution over the simulator
// itself.
//
// Everything else in the telemetry layer observes *sim* time; the Profiler
// answers a different question — where does the simulator's own wall-clock
// time go? — which is the evidence the parallel-DES work needs before any
// partitioning can pay off. It follows the same null-safe contract as
// MetricRegistry and TraceRecorder: hook sites hold a `Profiler*` that
// stays null until a profiler is bound, so a detached run pays one
// predictable branch per site and produces bit-identical schedules (a
// tested contract, like trace_test's).
//
// Nodes form a registration-time tree (find-or-create by (parent, name) at
// bind time, cold), and hot sites accumulate into pre-resolved NodeIds.
// Attribution is *exclusive* by construction: ProfScope keeps an exclusion
// ledger so a scope's recorded time nets out every timed scope that ran
// inside it, no matter how the dynamic nesting relates to the static tree.
// Each measured nanosecond therefore lands in exactly one node, node
// totals (self + descendant sum) can never exceed an ancestor's, and the
// root total reconciles against the measured run wall time — the
// invariants scripts/validate_profile.py checks.
//
// Timestamps are raw TSC ticks on x86-64 (a handful of cycles per read;
// `nexus-bench --prof` reports each cell's attached/detached wall ratio)
// and steady_clock nanoseconds elsewhere; freeze() calibrates ticks against
// steady_clock over the profiler's own lifetime, so no spin-up measurement
// is needed.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace nexus::telemetry {

/// Raw monotonic timestamp: TSC ticks on x86-64, steady_clock ns elsewhere.
/// Only differences are meaningful, and only after Profiler::freeze()
/// converts them to nanoseconds via calibration.
[[nodiscard]] inline std::uint64_t prof_ticks() {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  return __builtin_ia32_rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
#endif
}

/// One frozen profile node. `self_ns` is the exclusively-attributed wall
/// time (never double-counted with any other node); `total_ns` is
/// `self_ns` plus the totals of `children` (computed at freeze, so the
/// reconciliation invariant holds by construction). `count` is the number
/// of closed intervals (or the absolute count for count-only stat nodes);
/// `max` carries high-water stats (queue depth, bucket occupancy) and is 0
/// for plain timer nodes.
struct ProfileNode {
  std::string name;
  std::uint32_t parent = 0;  ///< root points at itself
  std::vector<std::uint32_t> children;  ///< sorted by name (stable shape)
  std::uint64_t self_ns = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t count = 0;
  std::uint64_t max = 0;
};

/// Frozen profile tree: plain data, safe to keep after the profiler (and
/// the run) are gone. nodes[0] is the root, named "all"; a parent always
/// precedes its children in `nodes`.
struct ProfileData {
  std::vector<ProfileNode> nodes;
  double ns_per_tick = 1.0;      ///< the calibration freeze() applied
  std::uint64_t wall_ns = 0;     ///< profiler lifetime at freeze time

  /// ';'-joined path from the root, e.g. "all;run;queue;pop".
  [[nodiscard]] std::string path_of(std::uint32_t ix) const;
  /// Depth-first search by ';'-joined path *below* the root ("queue;pop");
  /// returns nullptr when absent.
  [[nodiscard]] const ProfileNode* find(std::string_view path) const;
};

class Profiler {
 public:
  using NodeId = std::uint32_t;
  static constexpr NodeId kRoot = 0;

  Profiler();
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Find-or-create a child of `parent` named `name`. Cold (bind time):
  /// lookup is a linear scan of the parent's children. The returned id is
  /// stable for the profiler's lifetime.
  NodeId node(NodeId parent, std::string_view name);

  /// Close a measured interval opened at `t0` (prof_ticks) with exclusion
  /// mark `excl0` (excl_mark at open). Attributes the interval net of
  /// every interval closed inside it, then reports the gross interval to
  /// the enclosing scope's ledger. Hot path: ProfScope calls this.
  void close_interval(NodeId n, std::uint64_t t0, std::uint64_t excl0) {
    const std::uint64_t gross = prof_ticks() - t0;
    Node& nd = nodes_[n];
    nd.self_ticks += gross - (excl_ - excl0);
    nd.count += 1;
    excl_ = excl0 + gross;
  }

  /// The exclusion ledger's current mark (capture at scope open).
  [[nodiscard]] std::uint64_t excl_mark() const { return excl_; }

  // --- count/stat nodes (no wall time) ---
  void add_count(NodeId n, std::uint64_t k = 1) { nodes_[n].count += k; }
  /// Absolute count (cumulative structure stats re-flushed at run end).
  void set_count(NodeId n, std::uint64_t v) { nodes_[n].count = v; }
  void stat_max(NodeId n, std::uint64_t v) {
    if (v > nodes_[n].max) nodes_[n].max = v;
  }

  [[nodiscard]] std::size_t num_nodes() const { return nodes_.size(); }

  /// Freeze into plain data: ticks calibrated to nanoseconds against
  /// steady_clock over the profiler's lifetime, totals rolled up bottom-up,
  /// children sorted by name so the exported shape is deterministic.
  [[nodiscard]] ProfileData freeze() const;

 private:
  struct Node {
    std::string name;
    NodeId parent = 0;
    std::vector<NodeId> kids;
    std::uint64_t self_ticks = 0;
    std::uint64_t count = 0;
    std::uint64_t max = 0;
  };

  std::vector<Node> nodes_;
  std::uint64_t excl_ = 0;
  std::chrono::steady_clock::time_point wall0_;
  std::uint64_t ticks0_ = 0;
};

/// RAII scoped timer on a pre-resolved node. Null-safe: with a null
/// profiler both ends are a single branch (the detached-run contract).
class ProfScope {
 public:
  ProfScope(Profiler* p, Profiler::NodeId n) : p_(p) {
    if (p_ != nullptr) {
      node_ = n;
      excl0_ = p_->excl_mark();
      t0_ = prof_ticks();
    }
  }
  ~ProfScope() {
    if (p_ != nullptr) p_->close_interval(node_, t0_, excl0_);
  }
  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

 private:
  Profiler* p_;
  Profiler::NodeId node_ = 0;
  std::uint64_t t0_ = 0;
  std::uint64_t excl0_ = 0;
};

}  // namespace nexus::telemetry
