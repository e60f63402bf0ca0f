// Negative coverage for the schedule oracle (nexus::validate_schedule):
// every class of illegal schedule — missing/duplicated tasks, forged
// durations, worker overlap, dependency and fence violations — must be
// rejected with a diagnostic naming the violation. The positive direction
// is exercised constantly by the integration suites (every manager run is
// validated); what was untested is that the oracle actually *fails* on bad
// schedules, i.e. that those suites are capable of catching a buggy
// manager.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "nexus/runtime/schedule_validator.hpp"
#include "nexus/task/trace.hpp"

namespace nexus {
namespace {

constexpr Addr kA = 0x1000;
constexpr Addr kB = 0x2000;

/// writer(A) -> reader(A), plus an independent writer(B).
///   task 0: out A, duration 10
///   task 1: in  A, duration 10  (RAW on task 0)
///   task 2: out B, duration 10  (independent)
Trace diamond() {
  Trace tr("diamond");
  tr.submit(0, 10, {{kA, Dir::kOut}});
  tr.submit(1, 10, {{kA, Dir::kIn}});
  tr.submit(2, 10, {{kB, Dir::kOut}});
  return tr;
}

/// The canonical legal schedule for diamond(): task 1 after task 0, task 2
/// parallel on another worker.
std::vector<ScheduleEntry> good_schedule() {
  return {{0, 0, 0, 10}, {1, 0, 10, 20}, {2, 1, 0, 10}};
}

std::string why(const Trace& tr, const std::vector<ScheduleEntry>& sched) {
  std::string error;
  EXPECT_FALSE(validate_schedule(tr, sched, &error));
  EXPECT_FALSE(error.empty()) << "rejection must carry a diagnostic";
  return error;
}

TEST(ScheduleValidator, AcceptsALegalSchedule) {
  std::string error;
  EXPECT_TRUE(validate_schedule(diamond(), good_schedule(), &error))
      << error;
  EXPECT_TRUE(error.empty());
}

TEST(ScheduleValidator, NullErrorPointerIsAccepted) {
  auto sched = good_schedule();
  sched.pop_back();
  EXPECT_FALSE(validate_schedule(diamond(), sched));  // no *error out
}

TEST(ScheduleValidator, RejectsMissingTask) {
  auto sched = good_schedule();
  sched.pop_back();
  EXPECT_NE(why(diamond(), sched).find("2 of 3 tasks"), std::string::npos);
}

TEST(ScheduleValidator, RejectsDoubleCommit) {
  // Task 2's slot re-executes task 0: same count, one task twice.
  auto sched = good_schedule();
  sched[2] = {0, 1, 30, 40};
  EXPECT_NE(why(diamond(), sched).find("executed twice"), std::string::npos);
}

TEST(ScheduleValidator, RejectsUnknownTaskId) {
  auto sched = good_schedule();
  sched[2].task = 7;  // diamond() has tasks 0..2
  EXPECT_NE(why(diamond(), sched).find("unknown task"), std::string::npos);
}

TEST(ScheduleValidator, RejectsForgedDuration) {
  auto sched = good_schedule();
  sched[2].end = sched[2].start + 9;  // declared duration is 10
  EXPECT_NE(why(diamond(), sched).find("wrong duration"), std::string::npos);
}

TEST(ScheduleValidator, RejectsWorkerOverlap) {
  // Legal dependency order, but tasks 1 and 2 share worker 0 while their
  // intervals intersect.
  const std::vector<ScheduleEntry> sched = {
      {0, 0, 0, 10}, {1, 0, 10, 20}, {2, 0, 15, 25}};
  EXPECT_NE(why(diamond(), sched).find("overlaps"), std::string::npos);
}

TEST(ScheduleValidator, RejectsRawViolation) {
  // The reader (task 1) is committed in a reordered position: it starts
  // before its producer's end.
  const std::vector<ScheduleEntry> sched = {
      {0, 0, 0, 10}, {1, 1, 5, 15}, {2, 1, 15, 25}};
  const std::string error = why(diamond(), sched);
  EXPECT_NE(error.find("task 1"), std::string::npos);
  EXPECT_NE(error.find("before its dependences"), std::string::npos);
}

TEST(ScheduleValidator, RejectsWarViolation) {
  // writer(A), reader(A), writer(A) again: the second writer must wait for
  // the reader group to drain, not only for the first writer.
  Trace tr("war");
  tr.submit(0, 10, {{kA, Dir::kOut}});
  tr.submit(1, 20, {{kA, Dir::kIn}});  // long reader: the WAR window
  tr.submit(2, 10, {{kA, Dir::kOut}});
  // Writer 2 starts when writer 0 ends but while reader 1 is still running.
  const std::vector<ScheduleEntry> sched = {
      {0, 0, 0, 10}, {1, 1, 10, 30}, {2, 0, 10, 20}};
  EXPECT_NE(why(tr, sched).find("before its dependences"), std::string::npos);

  const std::vector<ScheduleEntry> legal = {
      {0, 0, 0, 10}, {1, 1, 10, 30}, {2, 0, 30, 40}};
  EXPECT_TRUE(validate_schedule(tr, legal));
}

TEST(ScheduleValidator, RejectsTaskwaitFenceViolation) {
  // Independent tasks separated by a barrier: the second may not start
  // until everything before the barrier has finished.
  Trace tr("fence");
  tr.submit(0, 10, {{kA, Dir::kOut}});
  tr.taskwait();
  tr.submit(1, 10, {{kB, Dir::kOut}});
  const std::vector<ScheduleEntry> bad = {{0, 0, 0, 10}, {1, 1, 5, 15}};
  EXPECT_NE(why(tr, bad).find("before its dependences"), std::string::npos);
  const std::vector<ScheduleEntry> legal = {{0, 0, 0, 10}, {1, 1, 10, 20}};
  EXPECT_TRUE(validate_schedule(tr, legal));
}

TEST(ScheduleValidator, RejectsTaskwaitOnProducerFenceViolation) {
  // taskwait_on(A) fences A's producer only: task 2 touches neither A nor
  // B, so the *only* thing ordering it is the producer fence — and unlike a
  // full taskwait, the long-running writer(B) does not hold it back.
  constexpr Addr kC = 0x3000;
  Trace tr("twon");
  tr.submit(0, 20, {{kA, Dir::kOut}});
  tr.submit(1, 50, {{kB, Dir::kOut}});
  tr.taskwait_on(kA);
  tr.submit(2, 10, {{kC, Dir::kOut}});
  // Task 2 starting at 15 violates the producer fence (task 0 ends at 20).
  const std::vector<ScheduleEntry> bad = {
      {0, 0, 0, 20}, {1, 1, 0, 50}, {2, 2, 15, 25}};
  EXPECT_NE(why(tr, bad).find("before its dependences"), std::string::npos);
  // Starting exactly at the producer's end is legal even though writer(B)
  // is still running — the fence is per-producer, not a full barrier.
  const std::vector<ScheduleEntry> legal = {
      {0, 0, 0, 20}, {1, 1, 0, 50}, {2, 2, 20, 30}};
  EXPECT_TRUE(validate_schedule(tr, legal));
}

TEST(ScheduleValidator, ReaderGroupMayOverlapItself) {
  // Two readers of A may run concurrently; the oracle must not serialize
  // the reader group (that would reject every parallel manager).
  Trace tr("readers");
  tr.submit(0, 10, {{kA, Dir::kOut}});
  tr.submit(1, 10, {{kA, Dir::kIn}});
  tr.submit(2, 10, {{kA, Dir::kIn}});
  const std::vector<ScheduleEntry> sched = {
      {0, 0, 0, 10}, {1, 1, 10, 20}, {2, 2, 12, 22}};
  std::string error;
  EXPECT_TRUE(validate_schedule(tr, sched, &error)) << error;
}

}  // namespace
}  // namespace nexus
