#include "src/guest/guest_pt.h"

#include <gtest/gtest.h>

#include "src/hw/phys_mem.h"

namespace nova::guest {
namespace {

class GuestPtTest : public ::testing::Test {
 protected:
  static constexpr std::uint64_t kBase = 32ull << 20;  // GPA 0 == HPA 32M.

  GuestPtTest()
      : mem_(128ull << 20),
        gpt_(&mem_, [](std::uint64_t gpa) { return kBase + gpa; }, 0x110000) {}

  // Walk the built table the way the hardware walker would.
  hw::WalkResult Walk(std::uint64_t gva, bool write = false) {
    // Guest tables hold GPAs; translate the root for the host-side walker
    // and verify entries manually (two-level walk with GPA arithmetic).
    const std::uint32_t pde = mem_.Read32(kBase + 0x100000 + ((gva >> 22) & 0x3ff) * 4);
    hw::WalkResult r;
    if (!(pde & hw::pte::kPresent)) {
      r.status = Status::kMemoryFault;
      return r;
    }
    if (pde & hw::pte::kLarge) {
      r.pa = (pde & hw::pte::kAddrMask & ~((4ull << 20) - 1)) | (gva & ((4ull << 20) - 1));
      r.page_size = 4ull << 20;
      r.pte = pde;
      return r;
    }
    const std::uint64_t pt_gpa = pde & hw::pte::kAddrMask;
    const std::uint32_t pte = mem_.Read32(kBase + pt_gpa + ((gva >> 12) & 0x3ff) * 4);
    if (!(pte & hw::pte::kPresent) || (write && !(pte & hw::pte::kWritable))) {
      r.status = Status::kMemoryFault;
      return r;
    }
    r.pa = (pte & hw::pte::kAddrMask) | (gva & hw::kPageMask);
    r.page_size = hw::kPageSize;
    r.pte = pte;
    return r;
  }

  hw::PhysMem mem_;
  GuestPageTableBuilder gpt_;
};

TEST_F(GuestPtTest, MapsSmallPages) {
  ASSERT_EQ(gpt_.Map(0x100000, 0x400000, 0x200000, hw::kPageSize,
                     hw::pte::kWritable),
            Status::kSuccess);
  const hw::WalkResult r = Walk(0x400123);
  ASSERT_EQ(r.status, Status::kSuccess);
  EXPECT_EQ(r.pa, 0x200123u);
}

TEST_F(GuestPtTest, IntermediateEntriesAreGuestPhysical) {
  ASSERT_EQ(gpt_.Map(0x100000, 0x400000, 0x200000, hw::kPageSize,
                     hw::pte::kWritable),
            Status::kSuccess);
  const std::uint32_t pde = mem_.Read32(kBase + 0x100000 + 1 * 4);
  // The page-table frame came from the pool and is addressed as a GPA,
  // below the guest's memory size — NOT a host-physical address.
  EXPECT_LT(pde & hw::pte::kAddrMask, 32ull << 20);
  EXPECT_GE(pde & hw::pte::kAddrMask, 0x110000u);
}

TEST_F(GuestPtTest, MapsLargePages) {
  ASSERT_EQ(gpt_.Map(0x100000, 8ull << 22, 4ull << 22, 4ull << 20,
                     hw::pte::kWritable | hw::pte::kGlobal),
            Status::kSuccess);
  const hw::WalkResult r = Walk((8ull << 22) + 0x1234);
  ASSERT_EQ(r.status, Status::kSuccess);
  EXPECT_EQ(r.pa, (4ull << 22) + 0x1234);
  EXPECT_EQ(r.page_size, 4ull << 20);
  EXPECT_TRUE(r.pte & hw::pte::kGlobal);
}

TEST_F(GuestPtTest, MisalignedMappingRejected) {
  EXPECT_EQ(gpt_.Map(0x100000, 0x1234, 0x2000, hw::kPageSize, 0),
            Status::kBadParameter);
  EXPECT_EQ(gpt_.Map(0x100000, 4ull << 20, 0x1000, 4ull << 20, 0),
            Status::kBadParameter);
  EXPECT_EQ(gpt_.Map(0x100000, 0, 0, 8192, 0), Status::kBadParameter);
}

TEST_F(GuestPtTest, SmallUnderLargeRejected) {
  ASSERT_EQ(gpt_.Map(0x100000, 0, 0, 4ull << 20, hw::pte::kWritable),
            Status::kSuccess);
  EXPECT_EQ(gpt_.Map(0x100000, 0x1000, 0x1000, hw::kPageSize, 0), Status::kBusy);
}

TEST_F(GuestPtTest, LeafEntryGpaLocatesPte) {
  (void)gpt_.Map(0x100000, 0x400000, 0x200000, hw::kPageSize, hw::pte::kWritable);
  const std::uint64_t pte_gpa = gpt_.LeafEntryGpa(0x100000, 0x400000);
  ASSERT_NE(pte_gpa, 0u);
  const std::uint32_t pte = mem_.Read32(kBase + pte_gpa);
  EXPECT_EQ(pte & hw::pte::kAddrMask, 0x200000u);
  EXPECT_EQ(gpt_.LeafEntryGpa(0x100000, 0x9990000), 0u);  // Unmapped.
}

TEST_F(GuestPtTest, SeparateRootsAreIndependent) {
  (void)gpt_.Map(0x100000, 0x400000, 0x200000, hw::kPageSize, hw::pte::kWritable);
  (void)gpt_.Map(0x108000, 0x400000, 0x300000, hw::kPageSize, hw::pte::kWritable);
  EXPECT_EQ(Walk(0x400000).pa, 0x200000u);
  // Manually walk the second root.
  const std::uint32_t pde2 = mem_.Read32(kBase + 0x108000 + 1 * 4);
  const std::uint64_t pt2 = pde2 & hw::pte::kAddrMask;
  const std::uint32_t pte2 = mem_.Read32(kBase + pt2);
  EXPECT_EQ(pte2 & hw::pte::kAddrMask, 0x300000u);
}

}  // namespace
}  // namespace nova::guest
