// TickScheduler dispatch order, driven directly: a component activated from
// inside a tick at an id the sweep has not reached yet ticks in the same
// sweep, after the activator; one activated at an id already passed ticks
// only on the next cycle.
#include "noc/scheduler.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace hybridnoc {
namespace {

constexpr int kComponents = 10;

/// A scheduler over kComponents ids with every component asleep as of
/// cycle 7: each one reaches its sampling slot once in cycles 0..7 and
/// reports idle with no pending event.
TickScheduler all_asleep() {
  TickScheduler s;
  s.reset(kComponents);
  for (Cycle c = 0; c < 8; ++c) {
    s.begin_cycle(c);
    s.sweep([](int) {});
    s.compact([](int) { return false; }, [](int) { return kCycleNever; });
  }
  EXPECT_FALSE(s.anything_active());
  return s;
}

/// One engine cycle: dispatch, recording the order; then compaction with
/// every component busy, so nothing sleeps between the recorded cycles.
template <typename TickFn>
std::vector<int> cycle(TickScheduler& s, Cycle now, TickFn&& on_tick) {
  std::vector<int> order;
  s.begin_cycle(now);
  s.sweep([&](int id) {
    order.push_back(id);
    on_tick(id);
  });
  s.compact([](int) { return true; }, [](int) { return kCycleNever; });
  return order;
}

TEST(TickScheduler, MidSweepActivationAheadOfCursorTicksThisCycle) {
  TickScheduler s = all_asleep();
  s.wake_at(3, 8);
  int activations = 0;
  const auto on_tick = [&](int id) {
    if (id == 3 && activations++ == 0) s.wake_at(7, 8);
  };
  EXPECT_EQ(cycle(s, 8, on_tick), (std::vector<int>{3, 7}));
  // Both stay listed once, in ascending order.
  EXPECT_EQ(cycle(s, 9, on_tick), (std::vector<int>{3, 7}));
}

TEST(TickScheduler, MidSweepActivationBehindCursorTicksNextCycle) {
  TickScheduler s = all_asleep();
  s.wake_at(3, 8);
  int activations = 0;
  const auto on_tick = [&](int id) {
    if (id == 3 && activations++ == 0) s.wake_at(1, 8);
  };
  EXPECT_EQ(cycle(s, 8, on_tick), (std::vector<int>{3}));
  EXPECT_EQ(cycle(s, 9, on_tick), (std::vector<int>{1, 3}));
}

TEST(TickScheduler, SplicedActivationsKeepAscendingOrder) {
  // Activations at 9, then 5, from 2: both ahead of the cursor, dispatched
  // between the listed 4 and 8 in id order.
  TickScheduler s = all_asleep();
  for (const int id : {2, 4, 8}) s.wake_at(id, 8);
  int activations = 0;
  const auto on_tick = [&](int id) {
    if (id == 2 && activations++ == 0) {
      s.wake_at(9, 8);
      s.wake_at(5, 8);
    }
  };
  EXPECT_EQ(cycle(s, 8, on_tick), (std::vector<int>{2, 4, 5, 8, 9}));
}

}  // namespace
}  // namespace hybridnoc
