#include "sim/des.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/error.hpp"

namespace latol::sim {
namespace {

TEST(Simulator, StartsAtTimeZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0.0);
  EXPECT_EQ(sim.events_executed(), 0u);
}

TEST(Simulator, ExecutesEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(3.0, [&] { order.push_back(3); });
  sim.schedule(1.0, [&] { order.push_back(1); });
  sim.schedule(2.0, [&] { order.push_back(2); });
  sim.run_until(10.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.events_executed(), 3u);
}

TEST(Simulator, TiesFireInSchedulingOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) sim.schedule(1.0, [&, i] { order.push_back(i); });
  sim.run_until(2.0);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, ClockAdvancesToEventTimes) {
  Simulator sim;
  double seen = -1.0;
  sim.schedule(4.5, [&] { seen = sim.now(); });
  sim.run_until(100.0);
  EXPECT_DOUBLE_EQ(seen, 4.5);
  EXPECT_DOUBLE_EQ(sim.now(), 100.0);  // clock ends at the horizon
}

TEST(Simulator, EventsBeyondHorizonStayScheduled) {
  Simulator sim;
  int fired = 0;
  sim.schedule(5.0, [&] { ++fired; });
  sim.schedule(50.0, [&] { ++fired; });
  sim.run_until(10.0);
  EXPECT_EQ(fired, 1);
  sim.run_until(100.0);
  EXPECT_EQ(fired, 2);
}

/// Trivially-copyable self-rescheduling action: event closures live in
/// arena slots, so recursion goes through a struct, not std::function.
struct ChainStep {
  Simulator* sim;
  int* chain;
  void operator()() const {
    if (++*chain < 10) sim->schedule_after(1.0, ChainStep{sim, chain});
  }
};

TEST(Simulator, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int chain = 0;
  sim.schedule(0.0, ChainStep{&sim, &chain});
  sim.run_until(100.0);
  EXPECT_EQ(chain, 10);
  EXPECT_DOUBLE_EQ(sim.now(), 100.0);
}

TEST(Simulator, RejectsSchedulingInThePast) {
  Simulator sim;
  sim.schedule(5.0, [] {});
  sim.run_until(5.0);
  EXPECT_THROW(sim.schedule(1.0, [] {}), InvalidArgument);
  EXPECT_THROW(sim.schedule_after(-1.0, [] {}), InvalidArgument);
}

TEST(Simulator, ArenaRecyclesSlotsAcrossManyEvents) {
  // Thousands of sequential events must not grow the arena beyond the
  // peak number simultaneously pending.
  Simulator sim;
  int count = 0;
  for (int i = 0; i < 5000; ++i) {
    sim.schedule(static_cast<double>(i), [&] { ++count; });
  }
  sim.run_until(1e9);
  EXPECT_EQ(count, 5000);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, ScheduleAfterUsesCurrentTime) {
  Simulator sim;
  double fired_at = -1.0;
  sim.schedule(2.0, [&] {
    sim.schedule_after(3.0, [&] { fired_at = sim.now(); });
  });
  sim.run_until(10.0);
  EXPECT_DOUBLE_EQ(fired_at, 5.0);
}

}  // namespace
}  // namespace latol::sim
