#include "src/hw/phys_mem.h"

#include <gtest/gtest.h>

#include <vector>

namespace nova::hw {
namespace {

TEST(PhysMem, ReadZeroBeforeWrite) {
  PhysMem mem(1 << 20);
  EXPECT_EQ(mem.Read64(0x1000), 0u);
  EXPECT_EQ(mem.resident_frames(), 0u);  // Reads do not materialize frames.
}

TEST(PhysMem, WriteReadRoundTrip) {
  PhysMem mem(1 << 20);
  EXPECT_EQ(mem.Write64(0x2008, 0xdeadbeefcafebabeull), Status::kSuccess);
  EXPECT_EQ(mem.Read64(0x2008), 0xdeadbeefcafebabeull);
  EXPECT_EQ(mem.resident_frames(), 1u);
}

TEST(PhysMem, CrossPageAccess) {
  PhysMem mem(1 << 20);
  const std::uint8_t data[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  EXPECT_EQ(mem.Write(kPageSize - 4, data, 8), Status::kSuccess);
  std::uint8_t out[8] = {};
  EXPECT_EQ(mem.Read(kPageSize - 4, out, 8), Status::kSuccess);
  EXPECT_EQ(0, memcmp(data, out, 8));
  EXPECT_EQ(mem.resident_frames(), 2u);
}

TEST(PhysMem, OutOfBoundsFaults) {
  PhysMem mem(1 << 20);
  std::uint8_t buf[16];
  EXPECT_EQ(mem.Read((1 << 20), buf, 1), Status::kMemoryFault);
  EXPECT_EQ(mem.Read((1 << 20) - 8, buf, 16), Status::kMemoryFault);
  EXPECT_EQ(mem.Write((1 << 20) - 1, buf, 2), Status::kMemoryFault);
  EXPECT_EQ(mem.Write((1 << 20) - 1, buf, 1), Status::kSuccess);
}

TEST(PhysMem, ZeroClearsRange) {
  PhysMem mem(1 << 20);
  (void)mem.Write64(0x3000, ~0ull);
  (void)mem.Write64(0x3ff8, ~0ull);
  EXPECT_EQ(mem.Zero(0x3000, kPageSize), Status::kSuccess);
  EXPECT_EQ(mem.Read64(0x3000), 0u);
  EXPECT_EQ(mem.Read64(0x3ff8), 0u);
}

TEST(PhysMem, ContainsChecks) {
  PhysMem mem(0x10000);
  EXPECT_TRUE(mem.Contains(0, 0x10000));
  EXPECT_FALSE(mem.Contains(0, 0x10001));
  EXPECT_FALSE(mem.Contains(0x10000, 1));
  EXPECT_TRUE(mem.Contains(0xffff, 1));
}

// A checksum-valid section whose frame count is forged must fail the
// load with kBadParameter promptly instead of looping over the count.
TEST(PhysMem, ForgedFrameCountFailsLoadCleanly) {
  constexpr std::uint64_t kRam = 1 << 20;
  sim::Snapshot snap;
  sim::SnapWriter& w = snap.Section("mem", 1);
  w.U64(kRam);        // Installed RAM, matching the twin.
  w.U64(1ull << 40);  // Forged frame count.
  w.U64(0);           // The one frame actually present.
  const std::vector<std::uint8_t> page(kPageSize, 0xab);
  w.Bytes(page.data(), page.size());
  sim::Snapshot shipped;
  ASSERT_EQ(shipped.Decode(snap.Encode()), Status::kSuccess);

  sim::SnapReader r = shipped.Open("mem", 1);
  PhysMem mem(kRam);
  EXPECT_EQ(mem.LoadState(r), Status::kBadParameter);
}

// Every resident frame lies below installed RAM, so a saved frame number
// at or beyond it can only be forged.
TEST(PhysMem, SnapshotFrameBeyondRamFailsLoad) {
  constexpr std::uint64_t kRam = 4 * kPageSize;
  const auto load = [](std::uint64_t frame_no) {
    sim::SnapWriter w;
    w.U64(kRam);  // Installed RAM, matching the twin.
    w.U64(1);     // One frame...
    w.U64(frame_no);
    const std::vector<std::uint8_t> page(kPageSize, 0xab);
    w.Bytes(page.data(), page.size());
    sim::SnapReader r(w.data().data(), w.size());
    PhysMem mem(kRam);
    return mem.LoadState(r);
  };
  EXPECT_EQ(load(3), Status::kSuccess);
  EXPECT_EQ(load(4), Status::kBadParameter);
  EXPECT_EQ(load(1ull << 40), Status::kBadParameter);
}

// A memory image has one encoding: frame numbers strictly ascend, so a
// section that repeats a frame or goes back can only be forged.
TEST(PhysMem, SnapshotFramesOutOfOrderFailLoad) {
  constexpr std::uint64_t kRam = 4 * kPageSize;
  const auto load = [](std::uint64_t first, std::uint64_t second) {
    sim::SnapWriter w;
    w.U64(kRam);  // Installed RAM, matching the twin.
    w.U64(2);     // Two frames...
    const std::vector<std::uint8_t> page(kPageSize, 0xab);
    for (const std::uint64_t frame_no : {first, second}) {
      w.U64(frame_no);
      w.Bytes(page.data(), page.size());
    }
    sim::SnapReader r(w.data().data(), w.size());
    PhysMem mem(kRam);
    return mem.LoadState(r);
  };
  EXPECT_EQ(load(1, 2), Status::kSuccess);
  EXPECT_EQ(load(2, 1), Status::kBadParameter);  // Descending.
  EXPECT_EQ(load(2, 2), Status::kBadParameter);  // Duplicate.
}

}  // namespace
}  // namespace nova::hw
