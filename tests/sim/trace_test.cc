// Tracer unit tests: interning, digest determinism, ring wraparound with
// digest coverage of evicted records, nested-span attribution through the
// TraceReport sink, disabled-mode no-ops and the Chrome JSON exporter.
//
// These tests exercise the raw Begin/End API that ScopedSpan wraps; the
// raw-span source check (cmake/check_sources.cmake) admits this file.
#include "src/sim/trace.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

namespace nova::sim {
namespace {

// FNV-1a 64 offset basis: the digest of an empty stream.
constexpr std::uint64_t kEmptyDigest = 1469598103934665603ull;

TEST(TracerTest, InterningIsIdempotentAndDense) {
  Tracer t;
  const std::uint16_t a = t.Intern("alpha");
  const std::uint16_t b = t.Intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(t.Intern("alpha"), a);
  EXPECT_EQ(t.Name(a), "alpha");
  EXPECT_EQ(t.Name(b), "beta");
  // Id 0 is reserved so "no name" is representable.
  EXPECT_NE(a, 0);
  EXPECT_NE(b, 0);
}

TEST(TracerTest, DisabledEmitsNothingAndKeepsDigestEmpty) {
  Tracer t;
  const std::uint16_t n = t.Intern("ev");
  ASSERT_FALSE(t.enabled());
  t.InstantAt(100, TraceCat::kVmExit, n, 0, 1, 2);
  t.BeginAt(200, TraceCat::kIpc, n, 0);
  t.EndAt(300, TraceCat::kIpc, n, 0);
  EXPECT_EQ(t.total_records(), 0u);
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.digest(), kEmptyDigest);
}

TEST(TracerTest, DigestIsDeterministicAndOrderSensitive) {
  auto emit = [](Tracer& t, bool swapped) {
    const std::uint16_t a = t.Intern("a");
    const std::uint16_t b = t.Intern("b");
    t.set_enabled(true);
    if (swapped) {
      t.InstantAt(10, TraceCat::kIrq, b, 1, 7);
      t.InstantAt(10, TraceCat::kIrq, a, 1, 7);
    } else {
      t.InstantAt(10, TraceCat::kIrq, a, 1, 7);
      t.InstantAt(10, TraceCat::kIrq, b, 1, 7);
    }
  };
  Tracer t1, t2, t3;
  emit(t1, false);
  emit(t2, false);
  emit(t3, true);
  EXPECT_EQ(t1.digest(), t2.digest());
  EXPECT_NE(t1.digest(), t3.digest());
  EXPECT_NE(t1.digest(), kEmptyDigest);

  // Every record field participates: a changed arg changes the digest.
  Tracer t4;
  const std::uint16_t a = t4.Intern("a");
  t4.Intern("b");
  t4.set_enabled(true);
  t4.InstantAt(10, TraceCat::kIrq, a, 1, 8);
  EXPECT_NE(t4.digest(), t1.digest());
}

TEST(TracerTest, RingWrapsButDigestCoversEvictedRecords) {
  Tracer t(nullptr, /*capacity=*/4);
  const std::uint16_t n = t.Intern("tick");
  t.set_enabled(true);
  for (std::uint64_t i = 0; i < 10; ++i) {
    t.InstantAt(static_cast<PicoSeconds>(i), TraceCat::kSched, n, 0, i);
  }
  EXPECT_EQ(t.total_records(), 10u);
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.dropped(), 6u);
  // Retained window is the newest four, oldest first.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(t.at(i).arg0, 6u + i);
  }

  // A tracer that saw only the retained four records digests differently:
  // the digest covers the evicted six as well.
  Tracer tail(nullptr, 4);
  const std::uint16_t n2 = tail.Intern("tick");
  tail.set_enabled(true);
  for (std::uint64_t i = 6; i < 10; ++i) {
    tail.InstantAt(static_cast<PicoSeconds>(i), TraceCat::kSched, n2, 0, i);
  }
  EXPECT_NE(t.digest(), tail.digest());

  // And a same-capacity tracer fed the identical full stream agrees.
  Tracer full(nullptr, 4);
  const std::uint16_t n3 = full.Intern("tick");
  full.set_enabled(true);
  for (std::uint64_t i = 0; i < 10; ++i) {
    full.InstantAt(static_cast<PicoSeconds>(i), TraceCat::kSched, n3, 0, i);
  }
  EXPECT_EQ(t.digest(), full.digest());
}

TEST(TracerTest, SinkPlusRetainedWindowCoverTheFullRunExactlyOnce) {
  Tracer t(nullptr, /*capacity=*/4);
  TraceReport report;
  t.set_sink(&report);
  const std::uint16_t n = t.Intern("tick");
  t.set_enabled(true);
  for (std::uint64_t i = 0; i < 10; ++i) {
    t.InstantAt(static_cast<PicoSeconds>(i), TraceCat::kSched, n, 0, i);
  }
  // Six records were evicted into the sink; folding the retained window
  // once accounts for the other four.
  EXPECT_EQ(report.Count(n), 6u);
  report.FoldRemaining(t);
  EXPECT_EQ(report.Count(n), 10u);
}

// A tracer that never records holds no ring, yet reads, saves and loads as
// an empty window: a twin loaded from it records exactly like a fresh
// tracer, and a load that brings back records fills an idle twin's ring.
TEST(TracerTest, IdleTracerSavesAndLoadsLikeAnEmptyWindow) {
  const auto make = [] {
    auto t = std::make_unique<Tracer>(nullptr, /*capacity=*/4);
    t->Intern("tick");
    return t;
  };
  const auto save = [](const Tracer& t) {
    SnapWriter w;
    EXPECT_EQ(t.SaveState(w), Status::kSuccess);
    return w.data();
  };
  const auto load = [](Tracer& t, const std::vector<std::uint8_t>& bytes) {
    SnapReader r(bytes.data(), bytes.size());
    EXPECT_EQ(t.LoadState(r), Status::kSuccess);
    EXPECT_EQ(r.Finish(), Status::kSuccess);
  };
  const auto record = [](Tracer& t, std::uint64_t from, std::uint64_t to) {
    t.set_enabled(true);
    for (std::uint64_t i = from; i < to; ++i) {
      t.InstantAt(static_cast<PicoSeconds>(i), TraceCat::kSched, 1, 0, i);
    }
  };
  const auto expect_same = [&save](const Tracer& a, const Tracer& b) {
    EXPECT_EQ(a.digest(), b.digest());
    EXPECT_EQ(a.total_records(), b.total_records());
    EXPECT_EQ(a.size(), b.size());
    EXPECT_EQ(a.dropped(), b.dropped());
    ASSERT_EQ(a.Snapshot().size(), b.Snapshot().size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a.at(i).ts, b.at(i).ts);
      EXPECT_EQ(a.at(i).arg0, b.at(i).arg0);
    }
    EXPECT_EQ(save(a), save(b));
  };

  const auto idle = make();
  EXPECT_EQ(idle->size(), 0u);
  EXPECT_EQ(idle->dropped(), 0u);
  const auto twin = make();
  load(*twin, save(*idle));
  const auto fresh = make();
  expect_same(*twin, *fresh);
  record(*twin, 0, 6);
  record(*fresh, 0, 6);
  EXPECT_EQ(twin->size(), 4u);
  EXPECT_EQ(twin->dropped(), 2u);
  expect_same(*twin, *fresh);

  // A recorded window travels into a twin that never recorded.
  const auto late = make();
  load(*late, save(*fresh));
  expect_same(*late, *fresh);
  record(*late, 6, 9);
  record(*fresh, 6, 9);
  expect_same(*late, *fresh);
}

TEST(TraceReportTest, NestedSpansChargeInclusiveTimePerName) {
  Tracer t;
  TraceReport report;
  const std::uint16_t outer = t.Intern("outer");
  const std::uint16_t inner = t.Intern("inner");
  t.set_enabled(true);
  t.BeginAt(0, TraceCat::kVmExit, outer, 0);
  t.BeginAt(10, TraceCat::kIpc, inner, 0);
  t.EndAt(20, TraceCat::kIpc, inner, 0);
  t.EndAt(30, TraceCat::kVmExit, outer, 0);
  report.FoldRemaining(t);
  EXPECT_EQ(report.Count(outer), 1u);
  EXPECT_EQ(report.Count(inner), 1u);
  EXPECT_EQ(report.TotalPs(outer), 30);
  EXPECT_EQ(report.TotalPs(inner), 10);
}

TEST(TraceReportTest, SpansPairPerTid) {
  // Concurrent spans on different tids must not steal each other's Begin.
  Tracer t;
  TraceReport report;
  const std::uint16_t a = t.Intern("cpu0-span");
  const std::uint16_t b = t.Intern("cpu1-span");
  t.set_enabled(true);
  t.BeginAt(0, TraceCat::kVmExit, a, 0);
  t.BeginAt(5, TraceCat::kVmExit, b, 1);
  t.EndAt(50, TraceCat::kVmExit, a, 0);
  t.EndAt(6, TraceCat::kVmExit, b, 1);
  report.FoldRemaining(t);
  EXPECT_EQ(report.TotalPs(a), 50);
  EXPECT_EQ(report.TotalPs(b), 1);
}

TEST(ScopedSpanTest, EmitsBeginEndAndSkipsClockWhenDisabled) {
  Tracer t;
  const std::uint16_t n = t.Intern("span");
  int clock_calls = 0;
  PicoSeconds now = 100;
  auto clock = [&] {
    ++clock_calls;
    return now;
  };
  {
    ScopedSpan span(&t, TraceCat::kIpc, n, 0, clock);
    now = 250;
  }
  EXPECT_EQ(clock_calls, 0) << "disabled tracer must not read the clock";
  EXPECT_EQ(t.total_records(), 0u);

  t.set_enabled(true);
  now = 100;
  {
    ScopedSpan span(&t, TraceCat::kIpc, n, 2, clock, 42);
    now = 250;
  }
  ASSERT_EQ(t.total_records(), 2u);
  EXPECT_EQ(t.at(0).type, static_cast<std::uint8_t>(TraceType::kBegin));
  EXPECT_EQ(t.at(0).ts, 100);
  EXPECT_EQ(t.at(0).arg0, 42u);
  EXPECT_EQ(t.at(0).tid, 2);
  EXPECT_EQ(t.at(1).type, static_cast<std::uint8_t>(TraceType::kEnd));
  EXPECT_EQ(t.at(1).ts, 250);
}

TEST(TracerTest, ResetClearsStreamButKeepsNames) {
  Tracer t;
  const std::uint16_t n = t.Intern("ev");
  t.set_enabled(true);
  t.InstantAt(1, TraceCat::kFault, n, 0);
  ASSERT_NE(t.digest(), kEmptyDigest);
  t.Reset();
  EXPECT_EQ(t.total_records(), 0u);
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.digest(), kEmptyDigest);
  EXPECT_EQ(t.Name(n), "ev");
  EXPECT_EQ(t.Intern("ev"), n);
}

TEST(TracerTest, ChromeJsonExportsRetainedWindow) {
  Tracer t;
  const std::uint16_t span = t.Intern("vmexit \"quoted\"");
  const std::uint16_t inst = t.Intern("irq");
  t.set_enabled(true);
  t.BeginAt(1'000'000, TraceCat::kVmExit, span, 0, 0xdead);
  t.InstantAt(1'500'000, TraceCat::kIrq, inst, kDeviceTid, 9);
  t.EndAt(2'000'000, TraceCat::kVmExit, span, 0);

  const std::string path = ::testing::TempDir() + "/trace_test.json";
  ASSERT_TRUE(t.WriteChromeJsonFile(path));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string body(1 << 16, '\0');
  body.resize(std::fread(body.data(), 1, body.size(), f));
  std::fclose(f);

  EXPECT_EQ(body.front(), '{');
  EXPECT_NE(body.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(body.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(body.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(body.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(body.find("vmexit \\\"quoted\\\""), std::string::npos);
  EXPECT_EQ(body.find('\xff'), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace nova::sim
