#include "src/hw/disk.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

namespace nova::hw {
namespace {

// Convenience: latch completions through the registered handler.
struct Catcher {
  explicit Catcher(DiskModel* disk) {
    disk->set_completion_handler([this](DiskModel::RequestId, std::uint64_t c,
                                        Status s, const std::uint8_t* data,
                                        std::uint64_t len) {
      cookies.push_back(c);
      statuses.push_back(s);
      last_data.assign(data, data + len);
    });
  }
  std::vector<std::uint64_t> cookies;
  std::vector<Status> statuses;
  std::vector<std::uint8_t> last_data;
};

TEST(DiskModel, ContentRoundTrip) {
  sim::EventQueue events;
  DiskModel disk(&events, DiskGeometry{});
  const char data[] = "hello disk";
  disk.WriteContent(12345, data, sizeof(data));
  char out[sizeof(data)] = {};
  disk.ReadContent(12345, out, sizeof(data));
  EXPECT_STREQ(out, "hello disk");
}

TEST(DiskModel, UnwrittenSectorsDeterministic) {
  sim::EventQueue events;
  DiskModel disk(&events, DiskGeometry{});
  std::uint8_t a[64], b[64];
  disk.ReadContent(777777, a, sizeof(a));
  disk.ReadContent(777777, b, sizeof(b));
  EXPECT_EQ(0, memcmp(a, b, sizeof(a)));
}

// Unwritten bytes read as the per-byte formula below at any offset and
// length: unaligned, around the fill's 16-byte blocks, across sector
// boundaries, across the 2^32 offset (where the fill's 32-bit product
// wraps) and beside a written sector, including the pattern a partial
// write leaves in the rest of its fresh sector.
TEST(DiskModel, PatternFillMatchesPerByteFormula) {
  const auto pattern = [](std::uint64_t offset) {
    return static_cast<std::uint8_t>((offset * 2654435761u) >> 24);
  };
  sim::EventQueue events;
  DiskModel disk(&events, DiskGeometry{});
  const std::uint64_t written = 5000 * kSectorSize + 100;
  const std::uint8_t data[40] = {1, 2, 3, 4, 5, 6, 7, 8};
  disk.WriteContent(written, data, sizeof(data));

  const struct {
    std::uint64_t offset;
    std::uint64_t bytes;
  } reads[] = {
      {0, 1},
      {1, 15},  // Shorter than, equal to and one past a 16-byte block.
      {1, 16},
      {1, 17},
      {3, 509},
      {511, 2},
      {12345, 4096},
      {(1ull << 32) - 700, 1400},
      {(1ull << 32) + 1, 3},
      {(7ull << 32) - 1, 2},
      {4999 * kSectorSize + 17, 3 * kSectorSize},
  };
  for (const auto& read : reads) {
    std::vector<std::uint8_t> got(read.bytes);
    disk.ReadContent(read.offset, got.data(), got.size());
    for (std::uint64_t i = 0; i < read.bytes; ++i) {
      const std::uint64_t at = read.offset + i;
      const std::uint8_t want = at >= written && at < written + sizeof(data)
                                    ? data[at - written]
                                    : pattern(at);
      ASSERT_EQ(got[i], want) << "offset " << at;
    }
  }
}

TEST(DiskModel, ReadCompletesAfterServiceTime) {
  sim::EventQueue events;
  DiskGeometry geo;
  geo.request_overhead = sim::Microseconds(100);
  geo.bandwidth_bps = 100'000'000;  // 100 MB/s.
  DiskModel disk(&events, geo);
  Catcher done(&disk);

  disk.SubmitRead(0, 4096, 1);
  // 4 KiB at 100 MB/s is ~41 us of media time: the fixed overhead
  // dominates, so completion lands at 100 us.
  events.AdvanceTo(sim::Microseconds(99));
  EXPECT_TRUE(done.cookies.empty());
  events.AdvanceTo(sim::Microseconds(101));
  EXPECT_EQ(done.cookies.size(), 1u);
}

// A disk that dies with a request in flight takes its completion event
// with it, so nothing is left to fire into the freed model.
TEST(DiskModel, DestroyedDiskLeavesNoPendingEvent) {
  sim::EventQueue events;
  auto disk = std::make_unique<DiskModel>(&events, DiskGeometry{});
  disk->SubmitRead(0, 4096, 1);
  ASSERT_EQ(events.size(), 1u);
  disk.reset();
  ASSERT_TRUE(events.empty());
  EXPECT_FALSE(events.RunOne());
}

TEST(DiskModel, LargeReadLimitedByBandwidth) {
  sim::EventQueue events;
  DiskGeometry geo;
  geo.request_overhead = sim::Microseconds(100);
  geo.bandwidth_bps = 100'000'000;
  DiskModel disk(&events, geo);
  Catcher done(&disk);

  disk.SubmitRead(0, 1 << 20, 1);  // 1 MiB: ~10.5 ms of media time.
  events.AdvanceTo(sim::Milliseconds(10));
  EXPECT_TRUE(done.cookies.empty());
  events.AdvanceTo(sim::Milliseconds(11));
  EXPECT_EQ(done.cookies.size(), 1u);
}

TEST(DiskModel, RequestsServicedInOrder) {
  sim::EventQueue events;
  DiskGeometry geo;
  geo.request_overhead = sim::Microseconds(100);
  DiskModel disk(&events, geo);
  Catcher done(&disk);

  disk.SubmitRead(0, 512, 1);
  disk.SubmitRead(512, 512, 2);
  // Second request queues behind the first: 200 us total.
  events.AdvanceTo(sim::Microseconds(150));
  EXPECT_EQ(done.cookies.size(), 1u);
  events.AdvanceTo(sim::Microseconds(250));
  ASSERT_EQ(done.cookies.size(), 2u);
  EXPECT_EQ(done.cookies, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(disk.completed_requests(), 2u);
}

TEST(DiskModel, WritePersists) {
  sim::EventQueue events;
  DiskModel disk(&events, DiskGeometry{});
  Catcher done(&disk);
  const std::uint8_t data[8] = {9, 8, 7, 6, 5, 4, 3, 2};
  disk.SubmitWrite(4096, data, sizeof(data), 7);
  events.AdvanceTo(sim::Seconds(1));
  ASSERT_EQ(done.cookies.size(), 1u);
  std::uint8_t out[8] = {};
  disk.ReadContent(4096, out, sizeof(out));
  EXPECT_EQ(0, memcmp(data, out, 8));
}

TEST(DiskModel, ReadHandlerDeliversData) {
  sim::EventQueue events;
  DiskModel disk(&events, DiskGeometry{});
  Catcher done(&disk);
  const char msg[] = "payload";
  disk.WriteContent(0, msg, sizeof(msg));
  disk.SubmitRead(0, sizeof(msg), 3);
  events.AdvanceTo(sim::Seconds(1));
  ASSERT_EQ(done.cookies.size(), 1u);
  EXPECT_STREQ(reinterpret_cast<const char*>(done.last_data.data()),
               "payload");
}

// In-flight requests survive a snapshot/restore cycle: the pending table
// carries the request parameters and the tagged completion event re-binds
// to the twin's Fire path.
TEST(DiskModel, PendingRequestRoundTrip) {
  DiskGeometry geo;
  geo.request_overhead = sim::Microseconds(100);

  sim::EventQueue events;
  DiskModel disk(&events, geo);
  Catcher done(&disk);
  const char msg[] = "snapshot me";
  disk.WriteContent(0, msg, sizeof(msg));
  disk.SubmitRead(0, sizeof(msg), 11);
  disk.SubmitWrite(8192, reinterpret_cast<const std::uint8_t*>(msg),
                   sizeof(msg), 22);
  events.AdvanceTo(sim::Microseconds(50));  // Both still in flight.
  ASSERT_TRUE(done.cookies.empty());

  sim::Snapshot snap;
  ASSERT_EQ(disk.SaveState(snap.Section("disk", 1)), Status::kSuccess);
  ASSERT_EQ(events.SaveState(snap.Section("events", 1)), Status::kSuccess);

  // Twin: identical construction, then overlay the saved state.
  sim::EventQueue twin_events;
  DiskModel twin(&twin_events, geo);
  Catcher twin_done(&twin);
  sim::SnapReader dr = snap.Open("disk", 1);
  ASSERT_EQ(twin.LoadState(dr), Status::kSuccess);
  ASSERT_EQ(dr.Finish(), Status::kSuccess);
  sim::SnapReader er = snap.Open("events", 1);
  ASSERT_EQ(twin_events.LoadState(er), Status::kSuccess);
  ASSERT_EQ(er.Finish(), Status::kSuccess);
  EXPECT_EQ(twin.pending_requests(), 2u);

  // Both copies run to completion and agree exactly.
  events.AdvanceTo(sim::Seconds(1));
  twin_events.AdvanceTo(sim::Seconds(1));
  ASSERT_EQ(done.cookies.size(), 2u);
  ASSERT_EQ(twin_done.cookies.size(), 2u);
  EXPECT_EQ(done.cookies, twin_done.cookies);
  EXPECT_EQ(done.last_data, twin_done.last_data);
  char out[sizeof(msg)] = {};
  twin.ReadContent(8192, out, sizeof(msg));
  EXPECT_STREQ(out, "snapshot me");
}

}  // namespace
}  // namespace nova::hw
