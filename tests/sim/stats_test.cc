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

TEST(Distribution, TracksMoments) {
  Distribution d;
  for (std::uint64_t v : {10, 20, 30}) {
    d.Record(v);
  }
  EXPECT_EQ(d.count(), 3u);
  EXPECT_EQ(d.sum(), 60u);
  EXPECT_EQ(d.min(), 10u);
  EXPECT_EQ(d.max(), 30u);
  EXPECT_DOUBLE_EQ(d.Mean(), 20.0);
}

TEST(Distribution, Percentiles) {
  Distribution d;
  for (std::uint64_t v = 1; v <= 100; ++v) {
    d.Record(v);
  }
  EXPECT_EQ(d.Percentile(0), 1u);
  EXPECT_EQ(d.Percentile(100), 100u);
  EXPECT_NEAR(static_cast<double>(d.Percentile(50)), 50.0, 1.0);
  EXPECT_NEAR(static_cast<double>(d.Percentile(99)), 99.0, 1.0);
}

TEST(Distribution, EmptyPercentileIsZero) {
  Distribution d;
  EXPECT_EQ(d.Percentile(50), 0u);
}

TEST(Distribution, ReservoirRetainsLateValues) {
  // Stream 10x the reservoir capacity. A keep-the-prefix scheme would
  // never see past the first `cap` values and report p50 ~ cap/2;
  // Algorithm R keeps a uniform sample, so the percentiles track the full
  // stream 1..10*cap.
  constexpr std::size_t kCap = 256;
  Distribution d(kCap);
  for (std::uint64_t v = 1; v <= 10 * kCap; ++v) {
    d.Record(v);
  }
  EXPECT_EQ(d.count(), 10 * kCap);
  EXPECT_GT(d.Percentile(50), kCap);  // Prefix-only sampling caps at kCap.
  EXPECT_NEAR(static_cast<double>(d.Percentile(50)), 5.0 * kCap, 1.5 * kCap);
  EXPECT_GT(d.Percentile(90), 6 * kCap);
}

TEST(Distribution, ReservoirDeterministicAcrossReset) {
  // Fixed RNG seed: the same stream yields the same reservoir after Reset,
  // keeping simulation runs bit-for-bit reproducible.
  constexpr std::size_t kCap = 64;
  Distribution d(kCap);
  auto feed = [&d] {
    for (std::uint64_t v = 1; v <= 1000; ++v) {
      d.Record(v * 7);
    }
  };
  feed();
  const std::uint64_t p50 = d.Percentile(50);
  const std::uint64_t p99 = d.Percentile(99);
  d.Reset();
  EXPECT_EQ(d.count(), 0u);
  feed();
  EXPECT_EQ(d.Percentile(50), p50);
  EXPECT_EQ(d.Percentile(99), p99);
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

// A checksum-valid section whose sample count is forged must fail the
// load with kBadParameter instead of allocating the count.
TEST(Distribution, ForgedSampleCountFailsLoadCleanly) {
  Snapshot snap;
  SnapWriter& w = snap.Section("dist", 1);
  for (int i = 0; i < 8; ++i) {
    w.U64(1);  // count, sum, min, max, then the four RNG words.
  }
  w.U64(1ull << 40);  // Forged sample count.
  w.U64(7);           // The one sample actually present.
  Snapshot shipped;
  ASSERT_EQ(shipped.Decode(snap.Encode()), Status::kSuccess);

  SnapReader r = shipped.Open("dist", 1);
  Distribution d;
  EXPECT_EQ(d.LoadState(r), Status::kBadParameter);
}

}  // namespace
}  // namespace nova::sim
