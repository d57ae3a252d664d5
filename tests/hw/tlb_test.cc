#include "src/hw/tlb.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

namespace nova::hw {
namespace {

constexpr std::uint64_t k2M = 2ull << 20;

TEST(Tlb, MissThenHit) {
  Tlb tlb(16, 4);
  EXPECT_FALSE(tlb.Lookup(kHostTag, 0x1000, Access{}).has_value());
  (void)tlb.Insert(kHostTag, 0x1000, 0x5000, kPageSize, true, true, true);
  const auto hit = tlb.Lookup(kHostTag, 0x1234, Access{});
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, 0x5234u);
  EXPECT_EQ(tlb.hits().value(), 1u);
  EXPECT_EQ(tlb.misses().value(), 1u);
}

// Probe is the lookup and Lookup its optional view. On a hit, a miss,
// permission misses, a write to a clean entry, a superpage hit and a hit
// that translates to ~0, two twins, one probed and one looked up, answer
// alike and end with equal counters, stamps and LRU order (their snapshot
// bytes).
TEST(Tlb, ProbeEqualsLookup) {
  constexpr VirtAddr kTop = ~VirtAddr{0};
  Tlb probed(16, 4);
  Tlb looked_up(16, 4);
  for (Tlb* tlb : {&probed, &looked_up}) {
    (void)tlb->Insert(1, 0x1000, 0x5000, kPageSize, true, true, true);
    (void)tlb->Insert(1, 0x2000, 0x6000, kPageSize, /*writable=*/false, true, true);
    (void)tlb->Insert(1, 0x3000, 0x7000, kPageSize, true, /*user=*/false, true);
    (void)tlb->Insert(1, 0x4000, 0x8000, kPageSize, true, true, /*dirty=*/false);
    (void)tlb->Insert(1, k2M, k2M * 3, k2M, true, true, true);
    (void)tlb->Insert(1, kTop, kTop, kPageSize, true, true, true);  // Identity.
  }
  const struct {
    VirtAddr va;
    Access access;
    std::optional<PhysAddr> want;  // nullopt: a miss.
  } probes[] = {
      {0x1234, Access{}, 0x5234},                       // Hit.
      {0x9000, Access{}, std::nullopt},                 // Miss.
      {0x2008, Access{.write = true}, std::nullopt},    // Read-only entry.
      {0x3008, Access{.user = true}, std::nullopt},     // Supervisor entry.
      {0x4010, Access{.write = true}, std::nullopt},    // Clean entry.
      {0x4010, Access{}, 0x8010},                       // Its read hits.
      {k2M + 0x12345, Access{.write = true}, k2M * 3 + 0x12345},  // Superpage.
      {0x1ff8, Access{.execute = true}, 0x5ff8},
      {kTop, Access{}, kTop},  // The translation equals Probe's miss value.
  };
  for (const auto& p : probes) {
    SCOPED_TRACE(::testing::Message() << std::hex << "va 0x" << p.va);
    const std::uint64_t delta = probed.Probe(1, p.va, p.access);
    if (p.want.has_value()) {
      EXPECT_NE(delta, Tlb::kMiss);
      EXPECT_EQ(p.va + delta, *p.want);
    } else {
      EXPECT_EQ(delta, Tlb::kMiss);
    }
    EXPECT_EQ(looked_up.Lookup(1, p.va, p.access), p.want);
  }
  EXPECT_EQ(probed.hits().value(), 5u);
  EXPECT_EQ(probed.misses().value(), 4u);
  EXPECT_EQ(looked_up.hits().value(), probed.hits().value());
  EXPECT_EQ(looked_up.misses().value(), probed.misses().value());
  sim::SnapWriter a;
  sim::SnapWriter b;
  ASSERT_EQ(probed.SaveState(a), Status::kSuccess);
  ASSERT_EQ(looked_up.SaveState(b), Status::kSuccess);
  EXPECT_EQ(a.data(), b.data());
}

TEST(Tlb, TagsIsolate) {
  Tlb tlb(16, 4);
  (void)tlb.Insert(1, 0x1000, 0x5000, kPageSize, true, true, true);
  EXPECT_FALSE(tlb.Lookup(2, 0x1000, Access{}).has_value());
  EXPECT_TRUE(tlb.Lookup(1, 0x1000, Access{}).has_value());
}

TEST(Tlb, WriteToCleanEntryMisses) {
  Tlb tlb(16, 4);
  // Installed by a read walk: not dirty.
  (void)tlb.Insert(kHostTag, 0x1000, 0x5000, kPageSize, true, true, /*dirty=*/false);
  EXPECT_TRUE(tlb.Lookup(kHostTag, 0x1000, Access{.write = false}).has_value());
  EXPECT_FALSE(tlb.Lookup(kHostTag, 0x1000, Access{.write = true}).has_value());
  // Re-walked with dirty set: write hits now.
  (void)tlb.Insert(kHostTag, 0x1000, 0x5000, kPageSize, true, true, /*dirty=*/true);
  EXPECT_TRUE(tlb.Lookup(kHostTag, 0x1000, Access{.write = true}).has_value());
}

TEST(Tlb, ReadOnlyEntryRejectsWrites) {
  Tlb tlb(16, 4);
  (void)tlb.Insert(kHostTag, 0x1000, 0x5000, kPageSize, /*writable=*/false, true, true);
  EXPECT_FALSE(tlb.Lookup(kHostTag, 0x1000, Access{.write = true}).has_value());
}

TEST(Tlb, SupervisorEntryRejectsUser) {
  Tlb tlb(16, 4);
  (void)tlb.Insert(kHostTag, 0x1000, 0x5000, kPageSize, true, /*user=*/false, true);
  EXPECT_FALSE(tlb.Lookup(kHostTag, 0x1000, Access{.user = true}).has_value());
  EXPECT_TRUE(tlb.Lookup(kHostTag, 0x1000, Access{.user = false}).has_value());
}

TEST(Tlb, LargePageCoversRange) {
  Tlb tlb(16, 4);
  (void)tlb.Insert(kHostTag, k2M, k2M * 3, k2M, true, true, true);
  const auto hit = tlb.Lookup(kHostTag, k2M + 0x12345, Access{});
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, k2M * 3 + 0x12345);
}

TEST(Tlb, CapacityEvictsLru) {
  Tlb tlb(2, 2);
  (void)tlb.Insert(kHostTag, 0x1000, 0xa000, kPageSize, true, true, true);
  (void)tlb.Insert(kHostTag, 0x2000, 0xb000, kPageSize, true, true, true);
  // Touch the first entry so the second becomes LRU.
  EXPECT_TRUE(tlb.Lookup(kHostTag, 0x1000, Access{}).has_value());
  (void)tlb.Insert(kHostTag, 0x3000, 0xc000, kPageSize, true, true, true);
  EXPECT_TRUE(tlb.Lookup(kHostTag, 0x1000, Access{}).has_value());
  EXPECT_FALSE(tlb.Lookup(kHostTag, 0x2000, Access{}).has_value());  // Evicted.
  EXPECT_TRUE(tlb.Lookup(kHostTag, 0x3000, Access{}).has_value());
}

TEST(Tlb, SizeClassesIndependent) {
  Tlb tlb(1, 1);
  (void)tlb.Insert(kHostTag, 0x1000, 0xa000, kPageSize, true, true, true);
  (void)tlb.Insert(kHostTag, 0, k2M * 5, k2M, true, true, true);
  // Both survive: they occupy different arrays.
  EXPECT_TRUE(tlb.Lookup(kHostTag, 0x1000, Access{}).has_value());
  EXPECT_TRUE(tlb.Lookup(kHostTag, 0x100, Access{}).has_value());
}

TEST(Tlb, FlushTagOnlyAffectsTag) {
  Tlb tlb(16, 4);
  (void)tlb.Insert(1, 0x1000, 0xa000, kPageSize, true, true, true);
  (void)tlb.Insert(2, 0x1000, 0xb000, kPageSize, true, true, true);
  tlb.FlushTag(1);
  EXPECT_FALSE(tlb.Lookup(1, 0x1000, Access{}).has_value());
  EXPECT_TRUE(tlb.Lookup(2, 0x1000, Access{}).has_value());
}

TEST(Tlb, FlushNonGlobalKeepsGlobalEntries) {
  Tlb tlb(16, 4);
  (void)tlb.Insert(1, 0x1000, 0xa000, kPageSize, true, true, true, /*global=*/true);
  (void)tlb.Insert(1, 0x2000, 0xb000, kPageSize, true, true, true, /*global=*/false);
  tlb.FlushNonGlobal(1);
  EXPECT_TRUE(tlb.Lookup(1, 0x1000, Access{}).has_value());
  EXPECT_FALSE(tlb.Lookup(1, 0x2000, Access{}).has_value());
}

TEST(Tlb, FlushVaRemovesSingleTranslation) {
  Tlb tlb(16, 4);
  (void)tlb.Insert(1, 0x1000, 0xa000, kPageSize, true, true, true);
  (void)tlb.Insert(1, 0x2000, 0xb000, kPageSize, true, true, true);
  tlb.FlushVa(1, 0x1000);
  EXPECT_FALSE(tlb.Lookup(1, 0x1000, Access{}).has_value());
  EXPECT_TRUE(tlb.Lookup(1, 0x2000, Access{}).has_value());
}

TEST(Tlb, FlushAllEmpties) {
  Tlb tlb(16, 4);
  (void)tlb.Insert(1, 0x1000, 0xa000, kPageSize, true, true, true);
  (void)tlb.Insert(2, 0, k2M, k2M, true, true, true);
  tlb.FlushAll();
  EXPECT_EQ(tlb.size(), 0u);
  EXPECT_EQ(tlb.flushes().value(), 1u);
}

struct HandEntry {
  TlbTag tag;
  std::uint64_t vpage;
  bool large;
  std::uint64_t page_size;
};

// A TLB snapshot written field by field in Tlb::Io's wire order.
std::vector<std::uint8_t> HandBuiltSnapshot(
    std::uint32_t count_4k, std::uint32_t count_large,
    const std::vector<HandEntry>& entries) {
  sim::SnapWriter w;
  w.U32(count_4k);
  w.U32(count_large);
  w.U64(entries.size());  // LRU clock.
  w.U64(0);               // Hits.
  w.U64(0);               // Misses.
  w.U64(0);               // Flushes.
  w.U32(static_cast<std::uint32_t>(entries.size()));
  std::uint64_t stamp = 0;
  for (const HandEntry& e : entries) {
    w.U16(e.tag);
    w.U64(e.vpage);
    w.Bool(e.large);
    w.U64(0x40000000);  // Physical page.
    w.U64(e.page_size);
    for (int b = 0; b < 4; ++b) {
      w.Bool(true);  // Writable, user, dirty, global.
    }
    w.U64(++stamp);
  }
  return w.data();
}

Status LoadSnapshot(Tlb& tlb, const std::vector<std::uint8_t>& bytes) {
  sim::SnapReader r(bytes.data(), bytes.size());
  return tlb.LoadState(r);
}

TEST(Tlb, SnapshotItCannotHoldFailsLoad) {
  // More entries of a class than the twin has slots for it.
  Tlb full(16, 4);
  for (std::uint64_t i = 0; i < 16; ++i) {
    full.Insert(1, i << 12, (i + 100) << 12, kPageSize, true, true, true);
  }
  sim::SnapWriter w;
  ASSERT_EQ(full.SaveState(w), Status::kSuccess);
  Tlb smaller(8, 4);
  EXPECT_EQ(LoadSnapshot(smaller, w.data()), Status::kBadParameter);
  for (std::uint64_t i = 0; i < 4; ++i) {
    full.Insert(1, i * k2M, 0, k2M, true, true, true);
  }
  sim::SnapWriter large_w;
  ASSERT_EQ(full.SaveState(large_w), Status::kSuccess);
  Tlb fewer_large(16, 2);
  EXPECT_EQ(LoadSnapshot(fewer_large, large_w.data()), Status::kBadParameter);

  // The hand-built layout loads while it is consistent...
  const HandEntry page{1, 0x10, false, kPageSize};
  const HandEntry superpage{1, k2M >> kPageShift, true, k2M};
  Tlb twin(16, 4);
  ASSERT_EQ(LoadSnapshot(twin, HandBuiltSnapshot(1, 1, {page, superpage})),
            Status::kSuccess);
  EXPECT_EQ(twin.size(), 2u);
  EXPECT_TRUE(twin.Lookup(1, 0x10000, Access{}).has_value());
  EXPECT_TRUE(twin.Lookup(1, k2M + 0x1000, Access{}).has_value());

  // ...but not with a forged 4 KiB count,
  Tlb forged_count(16, 4);
  EXPECT_EQ(
      LoadSnapshot(forged_count, HandBuiltSnapshot(2, 1, {page, superpage})),
      Status::kBadParameter);
  // nor with a large entry of 4 KiB.
  Tlb forged_size(16, 4);
  const HandEntry large_4k{1, 0x400, true, kPageSize};
  EXPECT_EQ(
      LoadSnapshot(forged_size, HandBuiltSnapshot(1, 1, {page, large_4k})),
      Status::kBadParameter);
}

TEST(Tlb, EntryCountPerTag) {
  Tlb tlb(16, 4);
  (void)tlb.Insert(1, 0x1000, 0xa000, kPageSize, true, true, true);
  (void)tlb.Insert(1, 0x2000, 0xb000, kPageSize, true, true, true);
  (void)tlb.Insert(2, 0x3000, 0xc000, kPageSize, true, true, true);
  EXPECT_EQ(tlb.EntryCount(1), 2u);
  EXPECT_EQ(tlb.EntryCount(2), 1u);
}

}  // namespace
}  // namespace nova::hw
