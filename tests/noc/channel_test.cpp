#include "noc/channel.hpp"

#include <gtest/gtest.h>

namespace hybridnoc {
namespace {

TEST(Channel, LatencyTwoDelivery) {
  Channel<int> ch(2);
  ch.send(42, 10);
  EXPECT_FALSE(ch.receive(10).has_value());
  EXPECT_FALSE(ch.receive(11).has_value());
  const auto v = ch.receive(12);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 42);
  EXPECT_TRUE(ch.empty());
}

TEST(Channel, LatencyOneDelivery) {
  Channel<int> ch(1);
  ch.send(7, 5);
  const auto v = ch.receive(6);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 7);
}

TEST(Channel, PreservesOrder) {
  Channel<int> ch(2);
  ch.send(1, 0);
  ch.send(2, 1);
  ch.send(3, 2);
  EXPECT_EQ(*ch.receive(2), 1);
  EXPECT_EQ(*ch.receive(3), 2);
  EXPECT_EQ(*ch.receive(4), 3);
}

TEST(Channel, MultipleSameCycleItems) {
  // Two items written in the same cycle both become readable together.
  Channel<int> ch(2);
  ch.send(1, 0);
  ch.send(2, 0);
  EXPECT_EQ(*ch.receive(2), 1);
  EXPECT_EQ(*ch.receive(2), 2);
  EXPECT_FALSE(ch.receive(2).has_value());
}

TEST(Channel, ArrivalAtModelsAdvanceSignal) {
  // The slot-stealing decision for crossbar cycle C is taken in C-1; an
  // arrival scheduled for C must be visible then, and one for C+1 too.
  // arrival_at/peek_arrival only inspect the cycle-ordered front, so a query
  // past an unconsumed item is a harness bug (see the death test below);
  // consume before moving on.
  Channel<int> ch(2);
  ch.send(9, 4);  // readable at 6
  EXPECT_FALSE(ch.arrival_at(5));
  EXPECT_TRUE(ch.arrival_at(6));
  const int* p = ch.peek_arrival(6);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(*p, 9);
  ASSERT_TRUE(ch.receive(6).has_value());
  EXPECT_FALSE(ch.arrival_at(7));
  EXPECT_EQ(ch.peek_arrival(7), nullptr);
}

TEST(ChannelDeathTest, ArrivalQueryPastUnconsumedItemIsAnError) {
  Channel<int> ch(2);
  ch.send(9, 4);  // readable at 6
  EXPECT_DEATH((void)ch.arrival_at(7), "unconsumed");
}

TEST(Channel, InFlightCount) {
  Channel<int> ch(2);
  ch.send(1, 0);
  ch.send(2, 1);
  EXPECT_EQ(ch.in_flight(), 2u);
  (void)ch.receive(2);
  EXPECT_EQ(ch.in_flight(), 1u);
}

TEST(Channel, ReadyHintTracksNextReady) {
  // The consumer-owned hint mirrors next_ready() through eager sends,
  // receives, and attaching to a channel that already holds items.
  Channel<int> ch(2);
  ch.send(1, 0);  // readable at 2
  ch.send(2, 3);  // readable at 5
  Cycle hint = 0;
  ch.set_ready_hint(&hint);
  EXPECT_EQ(hint, 2u);
  EXPECT_EQ(hint, ch.next_ready());
  ASSERT_TRUE(ch.receive(2).has_value());
  EXPECT_EQ(hint, 5u);
  EXPECT_FALSE(ch.receive(4).has_value());
  EXPECT_EQ(hint, 5u);
  ASSERT_TRUE(ch.receive(5).has_value());
  EXPECT_EQ(hint, kCycleNever);
  ch.send(3, 6);  // push into an empty queue: readable at 8
  EXPECT_EQ(hint, 8u);
  ch.send(4, 7);  // behind the front: hint unchanged
  EXPECT_EQ(hint, 8u);
  EXPECT_EQ(hint, ch.next_ready());
}

TEST(Channel, ReadyHintFollowsStagedCommit) {
  // Staged sends leave the hint alone (the producer must not write the
  // consumer's slot); commit_staged publishes the new front.
  Channel<int> ch(1);
  Cycle hint = 0;
  ch.set_ready_hint(&hint);
  EXPECT_EQ(hint, kCycleNever);
  ch.set_staged(true);
  ch.send(1, 4);  // readable at 5
  ch.send(2, 4);
  EXPECT_EQ(hint, kCycleNever);
  ch.commit_staged();
  EXPECT_EQ(hint, 5u);
  EXPECT_EQ(hint, ch.next_ready());
  ch.send(3, 5);  // staged behind a live front
  ch.commit_staged();
  EXPECT_EQ(hint, 5u);
  ASSERT_TRUE(ch.receive(5).has_value());
  ASSERT_TRUE(ch.receive(5).has_value());
  EXPECT_EQ(hint, 6u);
  ASSERT_TRUE(ch.receive(6).has_value());
  EXPECT_EQ(hint, kCycleNever);
  EXPECT_EQ(hint, ch.next_ready());
}

TEST(ChannelDeathTest, MissedItemIsAnError) {
  Channel<int> ch(1);
  ch.send(1, 0);  // readable at 1
  // Asking at cycle 2 with an unconsumed cycle-1 item trips the invariant.
  EXPECT_DEATH((void)ch.receive(2), "unconsumed");
}

}  // namespace
}  // namespace hybridnoc
