#include "src/sim/event_queue.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace nova::sim {
namespace {

// Every event is a tag whose closure the owner's factory builds. The
// "test.events" factory maps tag.a to a closure the test handed in.
constexpr std::uint64_t kTestOwner = EventQueue::OwnerToken("test.events");

class TestEvents {
 public:
  explicit TestEvents(EventQueue& q) : q_(q) {
    q_.RegisterOwner(kTestOwner,
                     [this](const EventTag& tag) { return actions_[tag.a]; });
  }

  EventQueue::EventId At(PicoSeconds when, EventQueue::Callback cb) {
    actions_.push_back(std::move(cb));
    return q_.ScheduleAt(when, EventTag{kTestOwner, 1, actions_.size() - 1});
  }

 private:
  EventQueue& q_;
  std::vector<EventQueue::Callback> actions_;
};

// The stderr pattern of a refused schedule for `owner`.
std::string OwnerPattern(std::uint64_t owner) {
  char hex[32];
  std::snprintf(hex, sizeof(hex), "owner 0x%016llx",
                static_cast<unsigned long long>(owner));
  return hex;
}

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  TestEvents ev(q);
  std::vector<int> order;
  ev.At(Nanoseconds(30), [&] { order.push_back(3); });
  ev.At(Nanoseconds(10), [&] { order.push_back(1); });
  ev.At(Nanoseconds(20), [&] { order.push_back(2); });
  q.AdvanceTo(Nanoseconds(25));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  q.AdvanceTo(Nanoseconds(100));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameDeadlineIsFifo) {
  EventQueue q;
  TestEvents ev(q);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    ev.At(Nanoseconds(10), [&order, i] { order.push_back(i); });
  }
  q.AdvanceTo(Nanoseconds(10));
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CallbackMaySchedule) {
  EventQueue q;
  TestEvents ev(q);
  int fired = 0;
  ev.At(Nanoseconds(10), [&] {
    ++fired;
    ev.At(q.now() + Nanoseconds(5), [&] { ++fired; });
  });
  q.AdvanceTo(Nanoseconds(20));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(q.now(), Nanoseconds(20));
}

TEST(EventQueue, ScheduleAfterIsRelativeToNow) {
  EventQueue q;
  int fired = 0;
  q.RegisterOwner(kTestOwner, [&](const EventTag&) {
    return [&] { ++fired; };
  });
  q.AdvanceTo(Nanoseconds(10));
  q.ScheduleAfter(Nanoseconds(5), EventTag{kTestOwner, 1});
  EXPECT_EQ(q.NextDeadline(), Nanoseconds(15));
  q.AdvanceTo(Nanoseconds(15));
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, CancelPreventsFiring) {
  EventQueue q;
  TestEvents ev(q);
  int fired = 0;
  const auto id = ev.At(Nanoseconds(10), [&] { ++fired; });
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
  TestEvents ev(q);
  int fired = 0;
  ev.At(Microseconds(7), [&] { ++fired; });
  EXPECT_TRUE(q.RunOne());
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.now(), Microseconds(7));
  EXPECT_FALSE(q.RunOne());
}

TEST(EventQueue, NextDeadlineSkipsCancelled) {
  EventQueue q;
  TestEvents ev(q);
  const auto id = ev.At(Nanoseconds(5), [] {});
  ev.At(Nanoseconds(9), [] {});
  q.Cancel(id);
  EXPECT_EQ(q.NextDeadline(), Nanoseconds(9));
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, PastEventsFireOnAdvance) {
  EventQueue q;
  TestEvents ev(q);
  q.AdvanceTo(Nanoseconds(100));
  int fired = 0;
  // Already in the past.
  ev.At(Nanoseconds(10), [&] { ++fired; });
  q.AdvanceTo(Nanoseconds(100));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.now(), Nanoseconds(100));  // Time never moves backwards.
}

TEST(EventQueue, UnregisterCancelsOnlyThatOwnersEvents) {
  EventQueue q;
  TestEvents ev(q);
  constexpr std::uint64_t kOther = EventQueue::OwnerToken("test.other");
  int other_fired = 0;
  q.RegisterOwner(kOther, [&](const EventTag&) {
    return [&] { ++other_fired; };
  });
  int test_fired = 0;
  ev.At(Nanoseconds(5), [&] { ++test_fired; });
  q.ScheduleAt(Nanoseconds(7), EventTag{kOther, 1});
  const auto cancelled = ev.At(Nanoseconds(9), [&] { ++test_fired; });
  EXPECT_TRUE(q.Cancel(cancelled));
  q.Unregister(kTestOwner);
  EXPECT_EQ(q.size(), 1u);
  q.AdvanceTo(Nanoseconds(20));
  EXPECT_EQ(test_fired, 0);
  EXPECT_EQ(other_fired, 1);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, SnapshotRebindsPendingEvents) {
  EventQueue q;
  TestEvents ev(q);
  ev.At(Nanoseconds(3), [] {});
  ev.At(Nanoseconds(10), [] {});  // Pending at the save, tagged a = 1.
  q.AdvanceTo(Nanoseconds(5));
  SnapWriter w;
  ASSERT_EQ(q.SaveState(w), Status::kSuccess);

  // The twin's own factory rebuilds the saved event from its tag.
  EventQueue twin;
  std::vector<std::uint64_t> fired;
  twin.RegisterOwner(kTestOwner, [&fired](const EventTag& tag) {
    return EventQueue::Callback([&fired, a = tag.a] { fired.push_back(a); });
  });
  SnapReader r(w.data().data(), w.size());
  ASSERT_EQ(twin.LoadState(r), Status::kSuccess);
  ASSERT_EQ(r.Finish(), Status::kSuccess);
  EXPECT_EQ(twin.now(), Nanoseconds(5));
  twin.AdvanceTo(Nanoseconds(10));
  EXPECT_EQ(fired, (std::vector<std::uint64_t>{1}));
}

TEST(EventQueue, SnapshotRefusesOwnerWithoutFactory) {
  EventQueue q;
  TestEvents ev(q);
  ev.At(Nanoseconds(10), [] {});
  SnapWriter w;
  ASSERT_EQ(q.SaveState(w), Status::kSuccess);

  EventQueue twin;  // No "test.events" factory.
  SnapReader r(w.data().data(), w.size());
  EXPECT_EQ(twin.LoadState(r), Status::kBadCapability);
}

TEST(EventQueue, ScheduleWithoutFactoryAborts) {
  EventQueue q;
  EXPECT_DEATH(q.ScheduleAt(Nanoseconds(10), EventTag{}), OwnerPattern(0));
  constexpr std::uint64_t kUnknown = EventQueue::OwnerToken("test.unknown");
  EXPECT_DEATH(q.ScheduleAfter(Nanoseconds(10), EventTag{kUnknown, 1}),
               OwnerPattern(kUnknown) + ": no factory registered");
  q.RegisterOwner(kTestOwner,
                  [](const EventTag&) { return EventQueue::Callback(); });
  EXPECT_DEATH(q.ScheduleAt(Nanoseconds(10), EventTag{kTestOwner, 1}),
               OwnerPattern(kTestOwner) + ": its factory built no closure");
}

}  // namespace
}  // namespace nova::sim
