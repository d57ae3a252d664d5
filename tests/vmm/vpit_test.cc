#include "src/vmm/vpit.h"

#include <gtest/gtest.h>

#include <memory>

namespace nova::vmm {
namespace {

class VPitTest : public ::testing::Test {
 protected:
  VPitTest()
      : pic_([] {}),
        pit_(&events_, &pic_, sim::EventQueue::OwnerToken("test.vpit")) {}

  void Program(std::uint32_t micros) {
    (void)pit_.PioWrite(vpit::kPortPeriodLo, micros & 0xffff);
    (void)pit_.PioWrite(vpit::kPortPeriodHi, micros >> 16);
  }

  sim::EventQueue events_;
  VPic pic_;
  VPit pit_;
};

TEST_F(VPitTest, PeriodicTicksRaiseTimerVector) {
  Program(1000);  // 1 ms period.
  EXPECT_TRUE(pit_.running());
  events_.AdvanceTo(sim::Milliseconds(10));
  EXPECT_EQ(pit_.ticks(), 10u);
  EXPECT_TRUE(pic_.HasDeliverable());
  EXPECT_EQ(pic_.HighestDeliverable(), vpit::kVector);
}

TEST_F(VPitTest, StopViaControlPort) {
  Program(1000);
  events_.AdvanceTo(sim::Milliseconds(3));
  (void)pit_.PioWrite(vpit::kPortControl, 0);
  EXPECT_FALSE(pit_.running());
  const std::uint64_t at_stop = pit_.ticks();
  events_.AdvanceTo(sim::Milliseconds(20));
  EXPECT_EQ(pit_.ticks(), at_stop);  // No more ticks.
}

TEST_F(VPitTest, ReprogramChangesRate) {
  Program(1000);
  events_.AdvanceTo(sim::Milliseconds(5));
  const std::uint64_t fast_ticks = pit_.ticks();
  Program(5000);  // 5 ms period.
  events_.AdvanceTo(sim::Milliseconds(25));
  // 20 ms at 5 ms/tick = 4 more ticks.
  EXPECT_EQ(pit_.ticks(), fast_ticks + 4);
}

TEST_F(VPitTest, ReadBackPeriod) {
  Program(70000);  // > 16 bits of microseconds.
  EXPECT_EQ(pit_.PioRead(vpit::kPortPeriodLo), 70000u & 0xffff);
  EXPECT_EQ(pit_.PioRead(vpit::kPortPeriodHi), 70000u >> 16);
  EXPECT_EQ(pit_.PioRead(vpit::kPortControl), 1u);
}

TEST_F(VPitTest, HighFrequencyMatchesWallClock) {
  Program(100);  // 10 kHz.
  events_.AdvanceTo(sim::Milliseconds(50));
  EXPECT_EQ(pit_.ticks(), 500u);
}

// A VMM restart destroys the vPIT of the crashed monitor while its next
// tick is pending; that tick must not fire into the freed object.
TEST(VPit, DestroyedPitLeavesNoPendingEvent) {
  sim::EventQueue events;
  VPic pic([] {});
  auto pit = std::make_unique<VPit>(&events, &pic,
                                    sim::EventQueue::OwnerToken("test.vpit"));
  pit->PioWrite(vpit::kPortPeriodLo, 1000);
  pit->PioWrite(vpit::kPortPeriodHi, 0);
  ASSERT_FALSE(events.empty());
  pit.reset();
  EXPECT_TRUE(events.empty());
  events.AdvanceTo(sim::Milliseconds(10));
}

}  // namespace
}  // namespace nova::vmm
