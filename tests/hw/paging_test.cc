#include "src/hw/paging.h"

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <set>
#include <vector>

#include "src/hw/phys_mem.h"
#include "src/sim/rng.h"

namespace nova::hw {
namespace {

class PagingTest : public ::testing::TestWithParam<PagingMode> {
 protected:
  PagingTest() : mem_(256ull << 20), next_frame_(0x100000) {}

  PageTable::FrameAllocator Alloc() {
    return [this] {
      const PhysAddr f = next_frame_;
      next_frame_ += kPageSize;
      return f;
    };
  }

  PhysMem mem_;
  PhysAddr next_frame_;
};

TEST_P(PagingTest, MapWalkRoundTrip) {
  PageTable pt(&mem_, GetParam(), 0x1000);
  ASSERT_EQ(pt.Map(0x40000000, 0x200000, kPageSize,
                   pte::kWritable | pte::kUser, Alloc()),
            Status::kSuccess);
  const WalkResult r = pt.Walk(0x40000123, Access{}, false);
  ASSERT_EQ(r.status, Status::kSuccess);
  EXPECT_EQ(r.pa, 0x200123u);
  EXPECT_EQ(r.page_size, kPageSize);
  EXPECT_EQ(r.accesses, Levels(GetParam()));
}

TEST_P(PagingTest, UnmappedFaultsNotPresent) {
  PageTable pt(&mem_, GetParam(), 0x1000);
  const WalkResult r = pt.Walk(0x12345000, Access{.write = true}, false);
  EXPECT_EQ(r.status, Status::kMemoryFault);
  EXPECT_FALSE(r.fault.present);
  EXPECT_TRUE(r.fault.write);
}

TEST_P(PagingTest, WriteToReadOnlyFaults) {
  PageTable pt(&mem_, GetParam(), 0x1000);
  ASSERT_EQ(pt.Map(0x5000, 0x9000, kPageSize, pte::kUser, Alloc()),
            Status::kSuccess);
  EXPECT_EQ(pt.Walk(0x5000, Access{.write = false}, false).status, Status::kSuccess);
  const WalkResult r = pt.Walk(0x5000, Access{.write = true}, false);
  EXPECT_EQ(r.status, Status::kMemoryFault);
  EXPECT_TRUE(r.fault.present);  // Protection violation, not a miss.
}

TEST_P(PagingTest, UserBitEnforced) {
  PageTable pt(&mem_, GetParam(), 0x1000);
  ASSERT_EQ(pt.Map(0x6000, 0xa000, kPageSize, pte::kWritable, Alloc()),
            Status::kSuccess);
  EXPECT_EQ(pt.Walk(0x6000, Access{.user = false}, false).status, Status::kSuccess);
  EXPECT_EQ(pt.Walk(0x6000, Access{.user = true}, false).status,
            Status::kMemoryFault);
}

TEST_P(PagingTest, LargePageMapping) {
  const std::uint64_t large = LargePageSize(GetParam());
  PageTable pt(&mem_, GetParam(), 0x1000);
  ASSERT_EQ(pt.Map(large * 4, large * 8, large, pte::kWritable | pte::kUser, Alloc()),
            Status::kSuccess);
  const WalkResult r = pt.Walk(large * 4 + 0xabc, Access{}, false);
  ASSERT_EQ(r.status, Status::kSuccess);
  EXPECT_EQ(r.pa, large * 8 + 0xabc);
  EXPECT_EQ(r.page_size, large);
  // A superpage walk touches one fewer level than a 4 KiB walk.
  EXPECT_EQ(r.accesses, Levels(GetParam()) - 1);
}

TEST_P(PagingTest, MisalignedLargeMapRejected) {
  const std::uint64_t large = LargePageSize(GetParam());
  PageTable pt(&mem_, GetParam(), 0x1000);
  EXPECT_EQ(pt.Map(large + kPageSize, 0, large, 0, Alloc()), Status::kBadParameter);
  EXPECT_EQ(pt.Map(large, kPageSize, large, 0, Alloc()), Status::kBadParameter);
  EXPECT_EQ(pt.Map(0, 0, 12345, 0, Alloc()), Status::kBadParameter);
}

TEST_P(PagingTest, AccessedDirtyBits) {
  PageTable pt(&mem_, GetParam(), 0x1000);
  ASSERT_EQ(pt.Map(0x7000, 0xb000, kPageSize, pte::kWritable | pte::kUser, Alloc()),
            Status::kSuccess);
  // Read walk sets A only.
  WalkResult r = pt.Walk(0x7000, Access{}, /*set_ad=*/true);
  ASSERT_EQ(r.status, Status::kSuccess);
  EXPECT_TRUE(r.pte & pte::kAccessed);
  EXPECT_FALSE(r.pte & pte::kDirty);
  // Write walk sets D.
  r = pt.Walk(0x7000, Access{.write = true}, /*set_ad=*/true);
  ASSERT_EQ(r.status, Status::kSuccess);
  EXPECT_TRUE(r.pte & pte::kDirty);
}

TEST_P(PagingTest, UnmapRemovesMapping) {
  PageTable pt(&mem_, GetParam(), 0x1000);
  ASSERT_EQ(pt.Map(0x8000, 0xc000, kPageSize, pte::kUser, Alloc()), Status::kSuccess);
  EXPECT_EQ(pt.Walk(0x8000, Access{}, false).status, Status::kSuccess);
  EXPECT_EQ(pt.Unmap(0x8000), Status::kSuccess);
  EXPECT_EQ(pt.Walk(0x8000, Access{}, false).status, Status::kMemoryFault);
  EXPECT_EQ(pt.Unmap(0x8000), Status::kSuccess);  // Idempotent.
}

TEST_P(PagingTest, RemapReplacesTranslation) {
  PageTable pt(&mem_, GetParam(), 0x1000);
  ASSERT_EQ(pt.Map(0x9000, 0xd000, kPageSize, pte::kUser, Alloc()), Status::kSuccess);
  ASSERT_EQ(pt.Map(0x9000, 0xe000, kPageSize, pte::kUser, Alloc()), Status::kSuccess);
  EXPECT_EQ(pt.Walk(0x9000, Access{}, false).pa, 0xe000u);
}

// FreeTables releases every paging-structure frame of a tree exactly once,
// each child before its parent and the root last, and never a leaf page:
// the vTLB's LIFO frame pool relies on that order. Trees are random, with
// superpages beside 4 KiB pages.
TEST_P(PagingTest, FreeTablesReleasesEveryTableOnceChildrenFirst) {
  const PagingMode mode = GetParam();
  const bool two_level = mode == PagingMode::kTwoLevel;
  const std::uint64_t large = LargePageSize(mode);
  const std::uint64_t entry_size = two_level ? 4 : 8;
  const std::uint64_t entries = kPageSize / entry_size;
  // Superpage-sized slots of the virtual address space the format maps.
  const std::uint64_t slots = (two_level ? 1ull << 32 : 1ull << 48) / large;
  constexpr PhysAddr kRoot = 0x1000;
  constexpr PhysAddr kLeafBase = 128ull << 20;  // Leaf pages, never tables.
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    PhysMem mem(256ull << 20);
    std::set<PhysAddr> tables = {kRoot};
    PhysAddr next = 0x100000;
    const auto alloc = [&] {
      tables.insert(next);
      next += kPageSize;
      return next - kPageSize;
    };
    PageTable pt(&mem, mode, kRoot);
    sim::Rng rng(seed);
    std::set<std::uint64_t> used;
    std::uint64_t slot = 0;
    for (int i = 0; i < 64; ++i) {
      // Half the slots land next to the previous one, so tables share
      // parents; the rest anywhere.
      slot = rng.Chance(0.5) ? (slot + rng.Range(1, 8)) % slots
                             : rng.Below(slots);
      if (!used.insert(slot).second) {
        continue;
      }
      if (rng.Chance(0.3)) {
        ASSERT_EQ(pt.Map(slot * large, kLeafBase + rng.Below(16) * large,
                         large, pte::kUser, alloc),
                  Status::kSuccess);
        continue;
      }
      for (std::uint64_t p = rng.Range(1, 8); p > 0; --p) {
        const VirtAddr va =
            slot * large + rng.Below(large / kPageSize) * kPageSize;
        ASSERT_EQ(pt.Map(va, kLeafBase + rng.Below(4096) * kPageSize,
                         kPageSize, pte::kUser, alloc),
                  Status::kSuccess);
      }
    }

    // Each table's parent, read back from memory.
    std::map<PhysAddr, PhysAddr> parent;
    const std::function<void(PhysAddr, int)> visit = [&](PhysAddr table,
                                                         int level) {
      for (std::uint64_t i = 0; level > 0 && i < entries; ++i) {
        const std::uint64_t entry = entry_size == 4
                                        ? mem.Read32(table + i * 4)
                                        : mem.Read64(table + i * 8);
        if (!(entry & pte::kPresent) || (level == 1 && (entry & pte::kLarge))) {
          continue;
        }
        const PhysAddr child = entry & pte::kAddrMask;
        EXPECT_TRUE(parent.emplace(child, table).second) << child;
        visit(child, level - 1);
      }
    };
    visit(kRoot, Levels(mode) - 1);
    ASSERT_EQ(parent.size() + 1, tables.size());  // Every table is reachable.

    std::vector<PhysAddr> released;
    pt.FreeTables([&released](PhysAddr f) { released.push_back(f); });
    ASSERT_EQ(released.size(), tables.size());
    EXPECT_EQ(std::set<PhysAddr>(released.begin(), released.end()), tables);
    EXPECT_EQ(released.back(), kRoot);
    std::map<PhysAddr, std::size_t> order;
    for (std::size_t i = 0; i < released.size(); ++i) {
      order[released[i]] = i;
    }
    for (const auto& [child, table] : parent) {
      EXPECT_LT(order[child], order[table]) << child << " under " << table;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Formats, PagingTest,
                         ::testing::Values(PagingMode::kTwoLevel,
                                           PagingMode::kFourLevel),
                         [](const auto& info_param) {
                           return info_param.param == PagingMode::kTwoLevel
                                      ? "TwoLevel"
                                      : "FourLevel";
                         });

TEST(Paging, FourLevelCoversHighAddresses) {
  PhysMem mem(64 << 20);
  PhysAddr next = 0x100000;
  PageTable pt(&mem, PagingMode::kFourLevel, 0x1000);
  const VirtAddr high = 0x7f00'1234'5000ull;
  ASSERT_EQ(pt.Map(high, 0x200000, kPageSize, pte::kUser, [&] {
              const PhysAddr f = next;
              next += kPageSize;
              return f;
            }),
            Status::kSuccess);
  EXPECT_EQ(pt.Walk(high + 0x10, Access{}, false).pa, 0x200010u);
}

}  // namespace
}  // namespace nova::hw
