#include "src/sim/stats.h"

#include <gtest/gtest.h>

namespace nova::sim {
namespace {

TEST(Counter, AddsAndResets) {
  Counter c;
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(UtilizationTracker, HalfBusy) {
  UtilizationTracker u;
  u.Reset(0);
  u.SetBusy(0, true);
  u.SetBusy(Microseconds(5), false);
  EXPECT_DOUBLE_EQ(u.Utilization(Microseconds(10)), 0.5);
}

TEST(UtilizationTracker, OpenBusyIntervalCounts) {
  UtilizationTracker u;
  u.Reset(0);
  u.SetBusy(Microseconds(2), true);
  // Still busy at query time.
  EXPECT_DOUBLE_EQ(u.Utilization(Microseconds(4)), 0.5);
}

TEST(UtilizationTracker, RedundantTransitionsIgnored) {
  UtilizationTracker u;
  u.Reset(0);
  u.SetBusy(Microseconds(1), true);
  u.SetBusy(Microseconds(2), true);  // No-op.
  u.SetBusy(Microseconds(3), false);
  u.SetBusy(Microseconds(4), false);  // No-op.
  EXPECT_DOUBLE_EQ(u.Utilization(Microseconds(4)), 0.5);
}

TEST(StatRegistry, NamedCounters) {
  StatRegistry reg;
  reg.counter("Port I/O").Add(5);
  reg.counter("HLT").Add();
  EXPECT_EQ(reg.Value("Port I/O"), 5u);
  EXPECT_EQ(reg.Value("HLT"), 1u);
  EXPECT_EQ(reg.Value("missing"), 0u);
  reg.ResetAll();
  EXPECT_EQ(reg.Value("Port I/O"), 0u);
}

}  // namespace
}  // namespace nova::sim
