#include "src/sim/event_queue.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace nova::sim {
namespace {

// Every event carries a tag describing its closure, so any pending event
// can be snapshotted and re-bound on restore.
constexpr std::uint64_t kTestOwner = EventQueue::OwnerToken("test.events");

EventQueue::EventId At(EventQueue& q, PicoSeconds when,
                       EventQueue::Callback cb) {
  return q.ScheduleAtTagged(when, EventTag{kTestOwner, 1}, std::move(cb));
}

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  At(q, Nanoseconds(30), [&] { order.push_back(3); });
  At(q, Nanoseconds(10), [&] { order.push_back(1); });
  At(q, Nanoseconds(20), [&] { order.push_back(2); });
  q.AdvanceTo(Nanoseconds(25));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  q.AdvanceTo(Nanoseconds(100));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameDeadlineIsFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    At(q, Nanoseconds(10), [&order, i] { order.push_back(i); });
  }
  q.AdvanceTo(Nanoseconds(10));
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CallbackMaySchedule) {
  EventQueue q;
  int fired = 0;
  At(q, Nanoseconds(10), [&] {
    ++fired;
    q.ScheduleAfterTagged(Nanoseconds(5), EventTag{kTestOwner, 1},
                          [&] { ++fired; });
  });
  q.AdvanceTo(Nanoseconds(20));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(q.now(), Nanoseconds(20));
}

TEST(EventQueue, CancelPreventsFiring) {
  EventQueue q;
  int fired = 0;
  const auto id = At(q, Nanoseconds(10), [&] { ++fired; });
  EXPECT_TRUE(q.Cancel(id));
  EXPECT_FALSE(q.Cancel(id));  // Second cancel is a no-op.
  q.AdvanceTo(Nanoseconds(20));
  EXPECT_EQ(fired, 0);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelUnknownIdFails) {
  EventQueue q;
  EXPECT_FALSE(q.Cancel(0));
  EXPECT_FALSE(q.Cancel(1234));
}

TEST(EventQueue, RunOneJumpsToDeadline) {
  EventQueue q;
  int fired = 0;
  At(q, Microseconds(7), [&] { ++fired; });
  EXPECT_TRUE(q.RunOne());
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.now(), Microseconds(7));
  EXPECT_FALSE(q.RunOne());
}

TEST(EventQueue, NextDeadlineSkipsCancelled) {
  EventQueue q;
  const auto id = At(q, Nanoseconds(5), [] {});
  At(q, Nanoseconds(9), [] {});
  q.Cancel(id);
  EXPECT_EQ(q.NextDeadline(), Nanoseconds(9));
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, PastEventsFireOnAdvance) {
  EventQueue q;
  q.AdvanceTo(Nanoseconds(100));
  int fired = 0;
  // Already in the past.
  At(q, Nanoseconds(10), [&] { ++fired; });
  q.AdvanceTo(Nanoseconds(100));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.now(), Nanoseconds(100));  // Time never moves backwards.
}

TEST(EventQueue, SnapshotRebindsPendingEvents) {
  EventQueue q;
  q.ScheduleAtTagged(Nanoseconds(10), EventTag{kTestOwner, 1, 7, 0}, [] {});
  SnapWriter w;
  ASSERT_EQ(q.SaveState(w), Status::kSuccess);

  EventQueue twin;
  std::vector<std::uint64_t> fired;
  twin.RegisterRebinder(kTestOwner, [&fired](const EventTag& tag) {
    return EventQueue::Callback([&fired, a = tag.a] { fired.push_back(a); });
  });
  SnapReader r(w.data().data(), w.size());
  ASSERT_EQ(twin.LoadState(r), Status::kSuccess);
  ASSERT_EQ(r.Finish(), Status::kSuccess);
  twin.AdvanceTo(Nanoseconds(10));
  EXPECT_EQ(fired, (std::vector<std::uint64_t>{7}));
}

TEST(EventQueue, SnapshotRefusesUntaggedEvent) {
  EventQueue q;
  q.ScheduleAtTagged(Nanoseconds(10), EventTag{}, [] {});
  SnapWriter w;
  EXPECT_EQ(q.SaveState(w), Status::kBadParameter);
}

}  // namespace
}  // namespace nova::sim
