// MemSpace's runs, dirty-log collection over them and IoSpace's port
// words, each held against an executable reference of the per-page rules
// they replaced.
#include "src/hv/spaces.h"

#include <gtest/gtest.h>

#include <bitset>
#include <map>
#include <tuple>
#include <vector>

#include "src/hv/dirty_log.h"
#include "src/sim/rng.h"
#include "tests/hv/test_util.h"

namespace nova::hv {
namespace {

constexpr hw::PhysAddr kRoot = hw::kPageSize;

// One page's holding, as the reference keeps it and `Keyed` encodes it.
struct Holding {
  std::uint64_t hpa_page = 0;
  std::uint8_t perms = 0;
  bool large = false;
  template <class Ar>
  void Io(Ar& ar) {
    ar.Io(hpa_page, perms, large);
  }
};
using PageMap = std::map<std::uint64_t, Holding>;

// Page-table frames handed out upward from `next` while `budget` lasts,
// then 0 (exhausted: the walker's kOverflow, MemSpace's kNoMem).
struct FramePool {
  hw::PhysAddr next = 2 * hw::kPageSize;
  std::uint64_t budget = ~0ull;
  hw::PhysAddr Alloc() {
    if (budget == 0) {
      return 0;
    }
    --budget;
    next += hw::kPageSize;
    return next - hw::kPageSize;
  }
};

std::uint64_t PteFlags(std::uint8_t perms) {
  return hw::pte::kUser | ((perms & perm::kWrite) != 0 ? hw::pte::kWritable : 0);
}

// MemSpace as it was before it kept runs: a map of pages beside its own
// page table, every Map and Unmap applied page by page. Its table refuses
// the same frames, those beyond what an entry holds (hw::EntryReach).
class ReferenceSpace {
 public:
  ReferenceSpace(hw::PhysMem* mem, hw::PagingMode mode, FramePool* pool)
      : table_(mem, mode, kRoot), alloc_([pool] { return pool->Alloc(); }) {}

  Status Map(std::uint64_t page, std::uint64_t hpa_page, std::uint64_t count,
             std::uint8_t perms, bool large) {
    const std::uint64_t large_size = hw::LargePageSize(table_.mode());
    const std::uint64_t step = large ? large_size / hw::kPageSize : 1;
    if (large && (page % step != 0 || hpa_page % step != 0 || count % step != 0)) {
      return Status::kBadParameter;
    }
    for (std::uint64_t off = 0; off < count; off += step) {
      const Status s = table_.Map((page + off) << hw::kPageShift,
                                  (hpa_page + off) << hw::kPageShift,
                                  large ? large_size : hw::kPageSize,
                                  PteFlags(perms), alloc_);
      if (!Ok(s)) {
        Restore(page, off, large, step);
        return s == Status::kOverflow ? Status::kNoMem : s;
      }
    }
    for (std::uint64_t off = 0; off < count; ++off) {
      pages_[page + off] = Holding{hpa_page + off, perms, large};
    }
    return Status::kSuccess;
  }

  // A failed Map's undo, unit by unit: a page or superpage held before
  // the call gets its frame and perms back, any other unit is unmapped,
  // and the 4 KiB pages of a block a superpage leaf overwrote are dropped.
  void Restore(std::uint64_t page, std::uint64_t count, bool large,
               std::uint64_t step) {
    for (std::uint64_t p = page; p < page + count; p += step) {
      const auto it = pages_.find(p);
      if (it != pages_.end() && it->second.large == large) {
        (void)table_.Map(p << hw::kPageShift, it->second.hpa_page << hw::kPageShift,
                         step * hw::kPageSize, PteFlags(it->second.perms), alloc_);
        continue;
      }
      (void)table_.Unmap(p << hw::kPageShift);
      for (std::uint64_t i = 0; large && i < step; ++i) {
        pages_.erase(p + i);
      }
    }
  }

  void Unmap(std::uint64_t page, std::uint64_t count) {
    const std::uint64_t large_pages =
        hw::LargePageSize(table_.mode()) / hw::kPageSize;
    for (std::uint64_t off = 0; off < count; ++off) {
      auto it = pages_.find(page + off);
      if (it == pages_.end()) {
        continue;
      }
      if (it->second.large) {
        const std::uint64_t base = (page + off) & ~(large_pages - 1);
        (void)table_.Unmap(base << hw::kPageShift);
        for (std::uint64_t i = 0; i < large_pages; ++i) {
          pages_.erase(base + i);
        }
      } else {
        (void)table_.Unmap((page + off) << hw::kPageShift);
        pages_.erase(it);
      }
    }
  }

  PageMap& pages() { return pages_; }

 private:
  hw::PageTable table_;
  hw::PageTable::FrameAllocator alloc_;
  PageMap pages_;
};

using RunRow = std::tuple<std::uint64_t, std::uint64_t, std::uint64_t,
                          std::uint8_t, bool>;  // first, count, hpa, perms, large

std::vector<RunRow> RunsOf(const MemSpace& space) {
  std::vector<RunRow> runs;
  for (const auto& [first, run] : space.runs()) {
    runs.emplace_back(first, run.count, run.hpa_page, run.perms, run.large);
  }
  return runs;
}

// The maximal runs of a map of pages: consecutive pages on consecutive
// frames with equal perms and page size.
std::vector<RunRow> MaximalRuns(const PageMap& pages) {
  std::vector<RunRow> runs;
  for (const auto& [page, h] : pages) {
    if (!runs.empty()) {
      auto& [first, count, hpa, perms, large] = runs.back();
      if (first + count == page && hpa + count == h.hpa_page &&
          perms == h.perms && large == h.large) {
        ++count;
        continue;
      }
    }
    runs.emplace_back(page, 1, h.hpa_page, h.perms, h.large);
  }
  return runs;
}

template <class T>
std::vector<std::uint8_t> SaveBytes(const T& obj) {
  sim::SnapWriter w;
  EXPECT_EQ(obj.SaveState(w), Status::kSuccess);
  return w.data();
}

std::vector<std::uint8_t> KeyedBytes(PageMap& pages) {
  sim::SnapWriter w;
  w.Keyed(sim::kCount64, pages);
  EXPECT_EQ(w.status(), Status::kSuccess);
  return w.data();
}

struct SpaceCase {
  hw::PagingMode mode;
  std::uint64_t seed;
};

class MemSpaceProperty : public ::testing::TestWithParam<SpaceCase> {};

// Whether the space's own page table maps `page` the way its runs say: a
// walk faults where PermsFor reads 0 and otherwise reaches HpaPageFor's
// frame, writable exactly when the perms grant writing.
::testing::AssertionResult WalkAgrees(MemSpace& space, std::uint64_t page) {
  const hw::WalkResult w =
      space.table().Walk(page << hw::kPageShift, hw::Access{}, /*set_ad=*/false);
  const std::uint8_t perms = space.PermsFor(page);
  if (perms == 0 ? !Ok(w.status)
                 : Ok(w.status) && w.user() &&
                       w.pa == space.HpaPageFor(page) << hw::kPageShift &&
                       w.writable() == ((perms & perm::kWrite) != 0)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "page " << page << ": perms " << int{perms} << ", frame "
         << space.HpaPageFor(page) << ", walk status " << StatusName(w.status)
         << " pa " << w.pa;
}

// Random Map/Unmap sequences: superpages, overlaps, re-maps with other
// perms, table allocation failing part-way, and unmaps of partial ranges,
// of ranges across runs and of ranges inside a superpage. After every step
// the runs, lookups and snapshot bytes equal the reference's, and so do
// the page tables both built. The reference shares MemSpace's rules, so a
// walk of every superpage block the step touched must also agree with the
// space's own lookups.
TEST_P(MemSpaceProperty, MatchesPerPageReference) {
  const SpaceCase c = GetParam();
  constexpr std::uint64_t kRam = 32ull << 20;
  const std::uint64_t large_pages = hw::LargePageSize(c.mode) / hw::kPageSize;
  const std::uint64_t space_pages = 4 * large_pages;
  hw::PhysMem mem(kRam);
  hw::PhysMem ref_mem(kRam);
  FramePool pool;
  FramePool ref_pool;
  MemSpace space(&mem, c.mode, kRoot, [&pool] { return pool.Alloc(); });
  ReferenceSpace ref(&ref_mem, c.mode, &ref_pool);
  sim::Rng rng(c.seed);

  static constexpr std::uint8_t kPerms[] = {perm::kRw, perm::kRw, perm::kRead,
                                            perm::kRwx};
  // Half the mappings back page p with frame p + kShift, so neighbouring
  // maps continue each other and merge; the rest scatter.
  constexpr std::uint64_t kShift = 4096;
  const auto pick_hpa = [&](std::uint64_t page, std::uint64_t align) {
    return rng.Chance(0.5) ? page + kShift : rng.Below(4096) * align;
  };

  int successes = 0;
  int no_mem = 0;
  int busy = 0;
  for (int step = 0; step < 2000; ++step) {
    SCOPED_TRACE(::testing::Message() << "step " << step);
    const std::uint8_t perms = kPerms[rng.Below(4)];
    if (rng.Chance(0.15)) {
      pool.budget = ref_pool.budget = rng.Below(3);
    }
    std::uint64_t touched = 0;  // The step's first page and page count.
    std::uint64_t touched_count = 0;
    switch (rng.Below(5)) {
      case 0:
      case 1: {  // 4 KiB pages, at times across a superpage boundary.
        const std::uint64_t page = rng.Below(space_pages);
        const std::uint64_t count =
            rng.Chance(0.8) ? rng.Range(1, 40) : rng.Range(1, 2 * large_pages);
        touched = page;
        touched_count = count;
        const std::uint64_t hpa = pick_hpa(page, 1);
        const Status st = space.Map(page, hpa, count, perms, false);
        ASSERT_EQ(st, ref.Map(page, hpa, count, perms, false));
        successes += Ok(st) ? 1 : 0;
        no_mem += st == Status::kNoMem ? 1 : 0;
        busy += st == Status::kBusy ? 1 : 0;
        break;
      }
      case 2: {  // Superpages, at times misaligned.
        const std::uint64_t page =
            rng.Below(space_pages / large_pages) * large_pages +
            (rng.Chance(0.1) ? 1 : 0);
        const std::uint64_t count = rng.Range(1, 2) * large_pages;
        touched = page;
        touched_count = count;
        const std::uint64_t hpa = pick_hpa(page, large_pages);
        const Status st = space.Map(page, hpa, count, perms, true);
        ASSERT_EQ(st, ref.Map(page, hpa, count, perms, true));
        successes += Ok(st) ? 1 : 0;
        break;
      }
      default: {  // Unmap: a few pages, inside a superpage or across runs.
        const std::uint64_t page = rng.Below(space_pages);
        const std::uint64_t count =
            rng.Chance(0.5) ? rng.Range(1, 8) : rng.Range(1, 2 * large_pages);
        touched = page;
        touched_count = count;
        ASSERT_EQ(space.Unmap(page, count), Status::kSuccess);
        ref.Unmap(page, count);
        break;
      }
    }
    pool.budget = ref_pool.budget = ~0ull;

    ASSERT_EQ(RunsOf(space), MaximalRuns(ref.pages()));
    for (int probe = 0; probe < 16; ++probe) {
      const std::uint64_t page = rng.Below(space_pages + 2);
      const auto it = ref.pages().find(page);
      ASSERT_EQ(space.PermsFor(page), it == ref.pages().end() ? 0 : it->second.perms)
          << "page " << page;
      ASSERT_EQ(space.HpaPageFor(page),
                it == ref.pages().end() ? ~0ull : it->second.hpa_page)
          << "page " << page;
    }
    const std::uint64_t touched_end =
        (touched + touched_count + large_pages - 1) & ~(large_pages - 1);
    for (std::uint64_t p = touched & ~(large_pages - 1); p < touched_end; ++p) {
      ASSERT_TRUE(WalkAgrees(space, p));
    }
    ASSERT_EQ(SaveBytes(space), KeyedBytes(ref.pages()));
    ASSERT_EQ(pool.next, ref_pool.next);
    if (step % 500 == 499) {
      ASSERT_EQ(SaveBytes(mem), SaveBytes(ref_mem));
    }
  }
  EXPECT_GT(successes, 500);
  EXPECT_GT(no_mem, 0);
  EXPECT_GT(busy, 0);

  // Save -> Load -> Save is byte-identical and rebuilds the same runs.
  const std::vector<std::uint8_t> saved = SaveBytes(space);
  hw::PhysMem twin_mem(kRam);
  MemSpace twin(&twin_mem, c.mode, kRoot, [] { return hw::PhysAddr{0}; });
  sim::SnapReader r(saved.data(), saved.size());
  ASSERT_EQ(twin.LoadState(r), Status::kSuccess);
  ASSERT_EQ(r.Finish(), Status::kSuccess);
  EXPECT_EQ(RunsOf(twin), RunsOf(space));
  EXPECT_EQ(SaveBytes(twin), saved);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, MemSpaceProperty,
    ::testing::Values(SpaceCase{hw::PagingMode::kFourLevel, 7},
                      SpaceCase{hw::PagingMode::kFourLevel, 42},
                      SpaceCase{hw::PagingMode::kTwoLevel, 7}),
    [](const auto& test) {
      return std::string(test.param.mode == hw::PagingMode::kTwoLevel
                             ? "TwoLevel"
                             : "FourLevel") +
             "Seed" + std::to_string(test.param.seed);
    });

// A 4 KiB map that runs into a superpage fails with kBusy after it has
// overwritten the pages before it. Those it found held go back to their
// old frames and the rest are unmapped, with no new table frame; a walk of
// each agrees with the bookkeeping the failed call left alone.
TEST(MemSpace, FailedMapRestoresPagesItOverwrote) {
  hw::PhysMem mem(32ull << 20);
  FramePool pool;
  MemSpace space(&mem, hw::PagingMode::kFourLevel, kRoot,
                 [&pool] { return pool.Alloc(); });
  ASSERT_EQ(space.Map(0, 100, 4, perm::kRw, false), Status::kSuccess);
  ASSERT_EQ(space.Map(512, 1024, 512, perm::kRead, true), Status::kSuccess);
  const std::vector<RunRow> before = RunsOf(space);
  const hw::PhysAddr frames_before = pool.next;

  EXPECT_EQ(space.Map(0, 6000, 600, perm::kRw, false), Status::kBusy);
  EXPECT_EQ(RunsOf(space), before);
  EXPECT_EQ(pool.next, frames_before);
  const hw::WalkResult w = space.table().Walk(0x10, hw::Access{}, false);
  ASSERT_EQ(w.status, Status::kSuccess);
  EXPECT_EQ(w.pa, (std::uint64_t{100} << hw::kPageShift) + 0x10);
  for (std::uint64_t page = 0; page < 1100; ++page) {
    ASSERT_TRUE(WalkAgrees(space, page));
  }
}

// A superpage map whose third block finds no table frame. The first block
// had held a superpage, which goes back into its old entry; the second had
// held three 4 KiB pages, whose table the new leaf replaced, so they leave
// the runs and the table alike.
TEST(MemSpace, FailedSuperpageMapRestoresSuperpagesItOverwrote) {
  hw::PhysMem mem(32ull << 20);
  FramePool pool;
  MemSpace space(&mem, hw::PagingMode::kFourLevel, kRoot,
                 [&pool] { return pool.Alloc(); });
  // The last two blocks of the first GiB; the third needs a new table.
  constexpr std::uint64_t kBlock = 512;
  constexpr std::uint64_t kFirst = (1ull << 18) - 2 * kBlock;
  ASSERT_EQ(space.Map(kFirst, 4 * kBlock, kBlock, perm::kRead, true),
            Status::kSuccess);
  ASSERT_EQ(space.Map(kFirst + kBlock + 7, 900, 3, perm::kRw, false),
            Status::kSuccess);
  const hw::PhysAddr frames_before = pool.next;

  pool.budget = 0;
  EXPECT_EQ(space.Map(kFirst, 8 * kBlock, 3 * kBlock, perm::kRw, true),
            Status::kNoMem);
  EXPECT_EQ(RunsOf(space),
            (std::vector<RunRow>{{kFirst, kBlock, 4 * kBlock, perm::kRead, true}}));
  EXPECT_EQ(pool.next, frames_before);
  for (std::uint64_t page = kFirst; page < kFirst + 3 * kBlock; ++page) {
    ASSERT_TRUE(WalkAgrees(space, page));
  }
}

// A frame beyond what an entry holds cannot be mapped: 4 GiB for a
// two-level table, whose entries are 32 bits wide, and 2^52 for a
// four-level one. The map fails before it writes anything, so the walk and
// the runs stay as they were.
TEST(MemSpace, MapRefusesFramesBeyondEntryReach) {
  hw::PhysMem mem(32ull << 20);
  FramePool pool;
  MemSpace space(&mem, hw::PagingMode::kTwoLevel, kRoot,
                 [&pool] { return pool.Alloc(); });
  ASSERT_EQ(space.Map(0, 100, 4, perm::kRw, false), Status::kSuccess);
  const std::vector<RunRow> before = RunsOf(space);
  constexpr std::uint64_t k4GiB = 1ull << 20;  // In pages.
  EXPECT_EQ(space.Map(2, k4GiB, 1, perm::kRw, false), Status::kBadParameter);
  EXPECT_EQ(space.Map(8, k4GiB, 1, perm::kRw, false), Status::kBadParameter);
  EXPECT_EQ(space.Map(1024, k4GiB, 1024, perm::kRw, true), Status::kBadParameter);
  EXPECT_EQ(RunsOf(space), before);
  for (std::uint64_t page = 0; page < 2048; ++page) {
    ASSERT_TRUE(WalkAgrees(space, page));
  }
  // The last frame below 4 GiB still maps.
  EXPECT_EQ(space.Map(8, k4GiB - 1, 1, perm::kRw, false), Status::kSuccess);
  EXPECT_TRUE(WalkAgrees(space, 8));

  hw::PhysMem wide_mem(32ull << 20);
  FramePool wide_pool;
  MemSpace wide(&wide_mem, hw::PagingMode::kFourLevel, kRoot,
                [&wide_pool] { return wide_pool.Alloc(); });
  EXPECT_EQ(wide.Map(0, 1ull << 40, 1, perm::kRw, false), Status::kBadParameter);
  EXPECT_EQ(wide.Map(0, k4GiB, 1, perm::kRw, false), Status::kSuccess);
  EXPECT_TRUE(WalkAgrees(wide, 0));
}

// A page whose record repeats or descends has no run to extend: the load
// fails, as Keyed's did for the hashed pages.
TEST(MemSpace, LoadRejectsPagesThatDoNotStrictlyAscend) {
  const auto load = [](std::vector<std::uint64_t> pages) {
    sim::SnapWriter w;
    w.U64(pages.size());
    for (const std::uint64_t page : pages) {
      w.U64(page);
      w.U64(page + 100);
      w.U8(perm::kRw);
      w.Bool(false);
    }
    hw::PhysMem mem(1ull << 20);
    MemSpace space(&mem, hw::PagingMode::kFourLevel, kRoot,
                   [] { return hw::PhysAddr{0}; });
    sim::SnapReader r(w.data().data(), w.size());
    const Status st = space.LoadState(r);
    return std::make_pair(st, RunsOf(space));
  };
  EXPECT_EQ(load({5, 5}).first, Status::kBadParameter);
  EXPECT_EQ(load({9, 3}).first, Status::kBadParameter);
  EXPECT_EQ(load({1, 2, 7, 7}).first, Status::kBadParameter);
  const auto [st, runs] = load({3, 4, 5, 9});
  EXPECT_EQ(st, Status::kSuccess);
  EXPECT_EQ(runs, (std::vector<RunRow>{{3, 3, 103, perm::kRw, false},
                                       {9, 1, 109, perm::kRw, false}}));
}

class DirtyLogTest : public HvTest {};

// Collection over several runs equals the per-page intersection of the
// written host frames with the VM's mappings, round after round. One run
// crosses the end of RAM into a device window, one is a superpage, and one
// page aliases a frame another run backs.
TEST_F(DirtyLogTest, CollectionOverRunsEqualsPerPageIntersection) {
  Pd* vm = nullptr;
  ASSERT_EQ(hv_.CreatePd(root_, 100, "vm", true, &vm), Status::kSuccess);
  const std::uint64_t user = (hv_.kernel_reserve() >> hw::kPageShift) + 1024;
  const std::uint64_t ram_frames = machine_.mem().size() >> hw::kPageShift;
  struct Mapping {
    std::uint64_t page, hpa_page, count;
    std::uint8_t perms;
    bool large;
  };
  const Mapping mappings[] = {
      {0, user, 100, perm::kRw, false},
      {100, user + 300, 50, perm::kRw, false},   // A gap in the frames.
      {150, user + 350, 70, perm::kRead, false},  // Other perms.
      {512, user + 512, 512, perm::kRw, true},
      {1500, ram_frames - 4, 16, perm::kRw, false},  // RAM, then a device.
      {1600, user + 5, 1, perm::kRw, false},          // Alias of page 5.
  };
  std::map<std::uint64_t, std::uint64_t> hpa_of;  // Per page.
  for (const Mapping& m : mappings) {
    ASSERT_EQ(vm->mem_space().Map(m.page, m.hpa_page, m.count, m.perms, m.large),
              Status::kSuccess);
    for (std::uint64_t i = 0; i < m.count; ++i) {
      hpa_of[m.page + i] = m.hpa_page + i;
    }
  }
  ASSERT_EQ(RunsOf(vm->mem_space()).size(), 6u);

  DirtyLog log(&hv_, vm);
  log.Arm();
  sim::Rng rng(11);
  for (int round = 0; round < 4; ++round) {
    SCOPED_TRACE(::testing::Message() << "round " << round);
    std::map<std::uint64_t, bool> written;
    std::vector<std::uint8_t> data(3 * hw::kPageSize, 0x5a);
    for (int i = 0; i < 60; ++i) {
      const std::uint64_t frame = user - 8 + rng.Below(1200);
      const std::uint64_t offset = rng.Below(hw::kPageSize);
      const std::uint64_t len = rng.Range(1, 2 * hw::kPageSize);
      const hw::PhysAddr addr = (frame << hw::kPageShift) + offset;
      ASSERT_EQ(machine_.mem().Write(addr, data.data(), len), Status::kSuccess);
      for (std::uint64_t f = addr >> hw::kPageShift;
           f <= (addr + len - 1) >> hw::kPageShift; ++f) {
        written[f] = true;
      }
    }
    const hw::PhysAddr last_frame = (ram_frames - 1 - round % 2) << hw::kPageShift;
    ASSERT_EQ(machine_.mem().Write(last_frame + 8, data.data(), 8), Status::kSuccess);
    written[last_frame >> hw::kPageShift] = true;
    std::vector<std::uint64_t> want;
    for (const auto& [page, hpa] : hpa_of) {
      if (written.count(hpa) != 0) {
        want.push_back(page);
      }
    }
    std::vector<std::uint64_t> got;
    log.CollectAndReset(&got);
    EXPECT_EQ(got, want);
    EXPECT_FALSE(want.empty());
  }
}

// The port words are the bytes the per-bit loop over a 65 536-bit set
// wrote, word w holding ports 64w to 64w + 63.
TEST(IoSpace, PortWordsMatchThePerBitEncoding) {
  IoSpace space;
  std::bitset<65536> ref;
  const auto grant = [&](std::uint64_t port, std::uint64_t count) {
    space.Grant(port, count);
    for (std::uint64_t p = port; p < port + count && p < 65536; ++p) {
      ref.set(p);
    }
  };
  const auto revoke = [&](std::uint64_t port, std::uint64_t count) {
    space.Revoke(port, count);
    for (std::uint64_t p = port; p < port + count && p < 65536; ++p) {
      ref.reset(p);
    }
  };
  for (const std::uint64_t port : {0, 63, 64, 65535}) {
    grant(port, 1);
  }
  grant(1000, 300);
  revoke(1100, 50);
  grant(0x3f8, 8);
  revoke(0x3fa, 1);
  grant(4096, 128);
  revoke(4100, 64);

  sim::SnapWriter w;
  for (std::size_t word = 0; word < 1024; ++word) {
    std::uint64_t bits = 0;
    for (std::size_t b = 0; b < 64; ++b) {
      bits |= static_cast<std::uint64_t>(ref.test(word * 64 + b)) << b;
    }
    w.U64(bits);
  }
  ASSERT_EQ(SaveBytes(space), w.data());

  IoSpace twin;
  sim::SnapReader r(w.data().data(), w.size());
  ASSERT_EQ(twin.LoadState(r), Status::kSuccess);
  ASSERT_EQ(r.Finish(), Status::kSuccess);
  for (std::uint32_t port = 0; port < 65536; ++port) {
    ASSERT_EQ(twin.Test(static_cast<std::uint16_t>(port)), ref.test(port))
        << "port " << port;
  }
}

TEST(IoSpace, GrantAndRevokeStopAtPort65536) {
  IoSpace space;
  // Exactly ports [lo, hi) are granted: none past the end wraps to port 0.
  const auto expect_granted = [&space](std::uint32_t lo, std::uint32_t hi) {
    for (std::uint32_t port = 0; port < 65536; ++port) {
      ASSERT_EQ(space.Test(static_cast<std::uint16_t>(port)), port >= lo && port < hi)
          << "port " << port;
    }
  };
  space.Grant(65500, 1000);
  space.Grant(65536, 8);
  space.Grant(70000, 8);
  expect_granted(65500, 65536);
  space.Revoke(65530, 100);
  expect_granted(65500, 65530);
}

}  // namespace
}  // namespace nova::hv
