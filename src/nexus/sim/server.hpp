// Occupancy resources for queueing-style hardware models.
//
// A Server models a unit that processes one item at a time (a pipeline
// stage, a bus, a lock). Work requested at time `now` begins when the server
// frees up and occupies it for `duration`; the caller schedules its
// completion event at the returned finish time. This captures serialization
// and queueing delay exactly for FIFO service order without stepping idle
// cycles, which is what keeps whole-trace simulations fast.
//
// A BusyPort models a single-ported stage that picks one buffered item per
// grant (a Nexus# task graph unit or arbiter, the Nexus++ task-graph table).
// Its owner serves from a pump run on every arrival; while the port is busy
// the pump parks on one self-addressed wake at the port's free time. A pump
// that serves nothing (an empty unit, or a head stalled on table space)
// leaves the port as it is and arms nothing.
#pragma once

#include <algorithm>
#include <cstdint>

#include "nexus/sim/simulation.hpp"
#include "nexus/sim/time.hpp"

namespace nexus {

class Server {
 public:
  /// Reserve the server at `now` for `duration`; returns completion time.
  Tick acquire(Tick now, Tick duration) {
    const Tick start = std::max(now, free_at_);
    free_at_ = start + duration;
    busy_ += duration;
    ++jobs_;
    wait_ += start - now;
    return free_at_;
  }

  /// When the server next becomes free.
  [[nodiscard]] Tick free_at() const { return free_at_; }

  /// True if an acquire at `now` would start immediately.
  [[nodiscard]] bool idle_at(Tick now) const { return free_at_ <= now; }

  // --- utilization accounting (for reports/tests) ---
  [[nodiscard]] Tick busy_time() const { return busy_; }
  [[nodiscard]] std::uint64_t jobs() const { return jobs_; }
  [[nodiscard]] Tick total_wait() const { return wait_; }

  void reset() { *this = Server{}; }

 private:
  Tick free_at_ = 0;
  Tick busy_ = 0;
  Tick wait_ = 0;
  std::uint64_t jobs_ = 0;
};

class BusyPort {
 public:
  /// `wake_op` is the owner's op that `handle()` answers with `woken()`
  /// followed by another pump.
  explicit BusyPort(std::uint32_t wake_op) : op_(wake_op) {}

  /// Address wakes to the owning component (its Simulation id).
  void bind(std::uint32_t component) { component_ = component; }

  /// Claim the port at `sim.now()`. If it is busy, arm the wake at its free
  /// time (at most one is ever in flight) and return false.
  [[nodiscard]] bool claim(Simulation& sim) {
    if (sim.now() >= free_at_) return true;
    arm(sim);
    return false;
  }

  /// Occupy the port for `cost` starting at `now`.
  void occupy(Tick now, Tick cost) { free_at_ = now + cost; }
  /// Lengthen the current occupancy by `step`.
  void extend(Tick step) { free_at_ += step; }

  /// After a serve: arm the wake at the free time iff work remains (a
  /// zero-cost serve with work left wakes at `now`).
  void rearm(Simulation& sim, bool work_left) {
    if (work_left) arm(sim);
  }

  /// The wake op arrived.
  void woken() { wake_pending_ = false; }

  [[nodiscard]] Tick free_at() const { return free_at_; }

 private:
  void arm(Simulation& sim) {
    if (wake_pending_) return;
    wake_pending_ = true;
    sim.schedule(free_at_, component_, op_);
  }

  std::uint32_t op_;
  std::uint32_t component_ = 0;
  Tick free_at_ = 0;
  bool wake_pending_ = false;
};

}  // namespace nexus
