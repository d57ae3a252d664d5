// Property-style sweeps over the hardware substrate: randomized
// map/walk/unmap consistency for both page-table formats, TLB-vs-walk
// agreement, TLB replacement against a reference LRU, physical memory
// against a map of frames, and IOMMU translation integrity.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "bench/scenario.h"
#include "src/guest/workload_disk.h"
#include "src/hw/iommu.h"
#include "src/hw/paging.h"
#include "src/hw/tlb.h"
#include "src/sim/fault.h"
#include "src/sim/rng.h"

namespace nova::hw {
namespace {

struct PagingCase {
  PagingMode mode;
  std::uint64_t seed;
};

class PagingProperty : public ::testing::TestWithParam<PagingCase> {};

TEST_P(PagingProperty, RandomMapWalkUnmapAgreesWithModel) {
  PhysMem mem(512ull << 20);
  PhysAddr next = 0x100000;
  const auto alloc = [&next] {
    const PhysAddr f = next;
    next += kPageSize;
    return f;
  };
  PageTable pt(&mem, GetParam().mode, 0x1000);
  sim::Rng rng(GetParam().seed);

  // Reference model: va page -> (pa, writable).
  std::map<std::uint64_t, std::pair<std::uint64_t, bool>> model;
  const std::uint64_t va_space =
      GetParam().mode == PagingMode::kTwoLevel ? (1ull << 32) : (1ull << 40);

  for (int step = 0; step < 400; ++step) {
    const std::uint64_t va = rng.Below(va_space / kPageSize) * kPageSize;
    const int action = static_cast<int>(rng.Below(3));
    if (action < 2) {
      const std::uint64_t pa = (0x10000 + rng.Below(1 << 16)) * kPageSize;
      const bool writable = rng.Chance(0.5);
      std::uint64_t flags = pte::kUser | (writable ? pte::kWritable : 0);
      // Avoid mapping 4K under an existing superpage from a previous run
      // (this test never creates superpages, so Map cannot return kBusy).
      ASSERT_EQ(pt.Map(va, pa, kPageSize, flags, alloc), Status::kSuccess);
      model[va] = {pa, writable};
    } else {
      (void)pt.Unmap(va);
      model.erase(va);
    }

    // Validate a random sample of the model each step.
    const std::uint64_t probe = rng.Below(va_space / kPageSize) * kPageSize;
    for (const std::uint64_t check : {va, probe}) {
      const std::uint64_t offset = rng.Below(kPageSize);
      const WalkResult r = pt.Walk(check + offset, Access{}, false);
      auto it = model.find(check);
      if (it == model.end()) {
        EXPECT_EQ(r.status, Status::kMemoryFault) << "va=" << std::hex << check;
      } else {
        ASSERT_EQ(r.status, Status::kSuccess) << "va=" << std::hex << check;
        EXPECT_EQ(r.pa, it->second.first + offset);
        const WalkResult w = pt.Walk(check, Access{.write = true}, false);
        EXPECT_EQ(Ok(w.status), it->second.second);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PagingProperty,
    ::testing::Values(PagingCase{PagingMode::kTwoLevel, 1},
                      PagingCase{PagingMode::kTwoLevel, 2},
                      PagingCase{PagingMode::kFourLevel, 1},
                      PagingCase{PagingMode::kFourLevel, 2},
                      PagingCase{PagingMode::kFourLevel, 3}),
    [](const auto& test) {
      return std::string(test.param.mode == PagingMode::kTwoLevel ? "TwoLevel"
                                                                  : "FourLevel") +
             "Seed" + std::to_string(test.param.seed);
    });

class TlbProperty : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(TlbProperty, NeverReturnsStaleOrWrongTranslation) {
  // Whatever the capacity, a TLB hit must agree with what was inserted,
  // and flushed entries must never resurface.
  const std::uint32_t capacity = GetParam();
  Tlb tlb(capacity, 4);
  sim::Rng rng(99);
  std::map<std::uint64_t, std::uint64_t> inserted;  // vpage -> ppage.

  for (int step = 0; step < 2000; ++step) {
    const std::uint64_t va = rng.Below(512) * kPageSize;
    const int action = static_cast<int>(rng.Below(10));
    if (action < 6) {
      const std::uint64_t pa = (rng.Below(1 << 20) + 1) * kPageSize;
      (void)tlb.Insert(1, va, pa, kPageSize, true, true, true);
      inserted[va] = pa;
    } else if (action < 8) {
      tlb.FlushVa(1, va);
      inserted.erase(va);
    } else if (action == 8) {
      tlb.FlushTag(1);
      inserted.clear();
    }
    // Probe: hits must match the reference exactly (misses are always
    // allowed — capacity eviction).
    const std::uint64_t probe = rng.Below(512) * kPageSize;
    if (const auto hit = tlb.Lookup(1, probe + 0x10, Access{})) {
      auto it = inserted.find(probe);
      ASSERT_NE(it, inserted.end()) << "stale hit for " << std::hex << probe;
      EXPECT_EQ(*hit, it->second + 0x10);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Capacities, TlbProperty,
                         ::testing::Values(4u, 16u, 64u, 256u));

// The TLB's replacement policy written the plain way: entries in a map, a
// stamp per entry from one clock, and the victim is the entry with the
// strictly smallest stamp in the new entry's size class.
class ReferenceTlb {
 public:
  ReferenceTlb(std::uint32_t capacity_4k, std::uint32_t capacity_large)
      : capacity_{capacity_4k, capacity_large} {}

  std::optional<PhysAddr> Lookup(TlbTag tag, VirtAddr va, Access access) {
    for (const std::uint64_t size : kSizes) {
      auto it = map_.find(KeyOf(tag, va, size));
      if (it == map_.end() || it->second.entry.page_size != size) {
        continue;
      }
      const TlbEntry& e = it->second.entry;
      if ((access.write && (!e.writable || !e.dirty)) ||
          (access.user && !e.user)) {
        continue;
      }
      it->second.lru = ++clock_;
      ++hits_;
      return (e.phys_page & ~(size - 1)) | (va & (size - 1));
    }
    ++misses_;
    return std::nullopt;
  }

  void Insert(TlbTag tag, VirtAddr va, PhysAddr pa, std::uint64_t size,
              bool writable, bool user, bool dirty, bool global) {
    const Key key = KeyOf(tag, va, size);
    if (!map_.contains(key) && Count(key.large) >= capacity_[key.large]) {
      auto victim = map_.end();
      for (auto it = map_.begin(); it != map_.end(); ++it) {
        if (it->first.large == key.large &&
            (victim == map_.end() || it->second.lru < victim->second.lru)) {
          victim = it;
        }
      }
      map_.erase(victim);
      ++evictions_[key.large];
    }
    map_[key] = Stamped{TlbEntry{.phys_page = pa & ~(size - 1),
                                 .page_size = size,
                                 .writable = writable,
                                 .user = user,
                                 .dirty = dirty,
                                 .global = global},
                        ++clock_};
  }

  void FlushAll() {
    map_.clear();
    ++flushes_;
  }
  void FlushTag(TlbTag tag) {
    std::erase_if(map_, [tag](const auto& kv) { return kv.first.tag == tag; });
    ++flushes_;
  }
  void FlushNonGlobal(TlbTag tag) {
    std::erase_if(map_, [tag](const auto& kv) {
      return kv.first.tag == tag && !kv.second.entry.global;
    });
    ++flushes_;
  }
  void FlushVa(TlbTag tag, VirtAddr va) {
    for (const std::uint64_t size : kSizes) {
      auto it = map_.find(KeyOf(tag, va, size));
      if (it != map_.end() && it->second.entry.page_size == size) {
        map_.erase(it);
      }
    }
  }

  std::size_t EntryCount(TlbTag tag) const {
    return static_cast<std::size_t>(std::count_if(
        map_.begin(), map_.end(),
        [tag](const auto& kv) { return kv.first.tag == tag; }));
  }
  std::size_t size() const { return map_.size(); }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t flushes() const { return flushes_; }
  std::uint64_t evictions(bool large) const { return evictions_[large]; }

  // The snapshot Tlb::SaveState writes for this content: both class
  // counts, the clock and the counters, then the entries sorted by
  // (tag, vpage, large), each with its entry and stamp.
  std::vector<std::uint8_t> Bytes() const {
    sim::SnapWriter w;
    w.U32(Count(false));
    w.U32(Count(true));
    w.U64(clock_);
    w.U64(hits_);
    w.U64(misses_);
    w.U64(flushes_);
    w.U32(static_cast<std::uint32_t>(map_.size()));
    for (const auto& [key, stamped] : map_) {
      w.U16(key.tag);
      w.U64(key.vpage);
      w.Bool(key.large);
      w.U64(stamped.entry.phys_page);
      w.U64(stamped.entry.page_size);
      w.Bool(stamped.entry.writable);
      w.Bool(stamped.entry.user);
      w.Bool(stamped.entry.dirty);
      w.Bool(stamped.entry.global);
      w.U64(stamped.lru);
    }
    return w.data();
  }

 private:
  static constexpr std::uint64_t kSizes[] = {kPageSize, 2ull << 20, 4ull << 20};
  struct Key {
    TlbTag tag;
    std::uint64_t vpage;
    bool large;
    auto operator<=>(const Key&) const = default;
  };
  struct Stamped {
    TlbEntry entry;
    std::uint64_t lru;
  };

  static Key KeyOf(TlbTag tag, VirtAddr va, std::uint64_t size) {
    return Key{tag, (va & ~(size - 1)) >> kPageShift, size > kPageSize};
  }
  std::uint32_t Count(bool large) const {
    return static_cast<std::uint32_t>(std::count_if(
        map_.begin(), map_.end(),
        [large](const auto& kv) { return kv.first.large == large; }));
  }

  std::uint32_t capacity_[2];
  std::map<Key, Stamped> map_;
  std::uint64_t clock_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t flushes_ = 0;
  std::uint64_t evictions_[2] = {0, 0};
};

constexpr TlbTag kOpTags[] = {kHostTag, 1, 9};

// One random TLB operation, drawn once and applied to every model.
struct TlbOp {
  enum Kind { kInsert, kLookup, kFlushVa, kFlushTag, kFlushNonGlobal, kFlushAll };
  Kind kind = kLookup;
  TlbTag tag = kHostTag;
  VirtAddr va = 0;
  PhysAddr pa = 0;
  std::uint64_t size = kPageSize;
  bool writable = false;
  bool user = false;
  bool dirty = false;
  bool global = false;
  Access access;
};

// Pages come from a space about twice each class's capacity under each of
// three tags, so both classes run full and evict; 4 KiB pages overlap the
// first superpages, and 2 MiB and 4 MiB bases share keys. Whole-tag and
// full flushes are rare enough that the large TLBs fill between them.
TlbOp DrawTlbOp(sim::Rng& rng, std::uint32_t capacity_4k,
                std::uint32_t capacity_large) {
  TlbOp op;
  op.tag = kOpTags[rng.Below(3)];
  const std::uint64_t page_kind = rng.Below(20);
  op.size = page_kind < 15 ? kPageSize : page_kind < 18 ? 2ull << 20 : 4ull << 20;
  const std::uint64_t pages =
      op.size == kPageSize ? 2 * capacity_4k + 8
                           : (2 * capacity_large + 4) * (2ull << 20) / op.size;
  op.va = rng.Below(pages) * op.size + rng.Below(op.size);
  const double flush = 1.0 / (8.0 * (capacity_4k + capacity_large) + 64);
  const double roll = rng.NextDouble();
  if (roll < flush) {
    op.kind = TlbOp::kFlushAll;
  } else if (roll < 3 * flush) {
    op.kind = TlbOp::kFlushTag;
  } else if (roll < 6 * flush) {
    op.kind = TlbOp::kFlushNonGlobal;
  } else if (roll < 0.05) {
    op.kind = TlbOp::kFlushVa;
  } else if (roll < 0.5) {
    op.kind = TlbOp::kInsert;
    op.pa = (rng.Below(1 << 20) + 1) * kPageSize + rng.Below(kPageSize);
    op.writable = rng.Chance(0.7);
    op.user = rng.Chance(0.5);
    op.dirty = rng.Chance(0.6);
    op.global = rng.Chance(0.3);
  } else {
    op.access = Access{.write = rng.Chance(0.3), .user = rng.Chance(0.5)};
  }
  return op;
}

// Applies `op`; returns the translation a lookup produced (nullopt for
// every other operation).
template <class T>
std::optional<PhysAddr> ApplyTlbOp(T& tlb, const TlbOp& op) {
  switch (op.kind) {
    case TlbOp::kInsert:
      tlb.Insert(op.tag, op.va, op.pa, op.size, op.writable, op.user, op.dirty,
                 op.global);
      return std::nullopt;
    case TlbOp::kLookup:
      return tlb.Lookup(op.tag, op.va, op.access);
    case TlbOp::kFlushVa:
      tlb.FlushVa(op.tag, op.va);
      return std::nullopt;
    case TlbOp::kFlushTag:
      tlb.FlushTag(op.tag);
      return std::nullopt;
    case TlbOp::kFlushNonGlobal:
      tlb.FlushNonGlobal(op.tag);
      return std::nullopt;
    case TlbOp::kFlushAll:
      tlb.FlushAll();
      return std::nullopt;
  }
  return std::nullopt;
}

std::vector<std::uint8_t> TlbSnapshot(const Tlb& tlb) {
  sim::SnapWriter w;
  EXPECT_EQ(tlb.SaveState(w), Status::kSuccess);
  return w.data();
}

void CheckSameObservables(const Tlb& tlb, const ReferenceTlb& ref) {
  ASSERT_EQ(tlb.hits().value(), ref.hits());
  ASSERT_EQ(tlb.misses().value(), ref.misses());
  ASSERT_EQ(tlb.flushes().value(), ref.flushes());
  ASSERT_EQ(tlb.size(), ref.size());
  for (const TlbTag tag : kOpTags) {
    ASSERT_EQ(tlb.EntryCount(tag), ref.EntryCount(tag)) << "tag " << tag;
  }
}

// Runs one seeded sequence against the reference. At a random step the TLB
// is saved and loaded into a fresh twin, and from then on the twin takes
// every operation too and must stay indistinguishable.
void RunAgainstReferenceLru(std::uint32_t capacity_4k,
                            std::uint32_t capacity_large, std::uint64_t seed) {
  Tlb tlb(capacity_4k, capacity_large);
  ReferenceTlb ref(capacity_4k, capacity_large);
  std::optional<Tlb> twin;
  sim::Rng rng(seed);
  const std::uint64_t steps = 3000 + 12 * (capacity_4k + capacity_large);
  const std::uint64_t restore_step = rng.Below(steps);
  for (std::uint64_t step = 0; step < steps; ++step) {
    SCOPED_TRACE(::testing::Message() << "step " << step);
    if (step == restore_step) {
      const std::vector<std::uint8_t> bytes = TlbSnapshot(tlb);
      twin.emplace(capacity_4k, capacity_large);
      sim::SnapReader r(bytes.data(), bytes.size());
      ASSERT_EQ(twin->LoadState(r), Status::kSuccess);
      ASSERT_EQ(r.Finish(), Status::kSuccess);
      ASSERT_EQ(TlbSnapshot(*twin), bytes);
    }
    const TlbOp op = DrawTlbOp(rng, capacity_4k, capacity_large);
    const std::optional<PhysAddr> want = ApplyTlbOp(ref, op);
    ASSERT_EQ(ApplyTlbOp(tlb, op), want) << "op " << op.kind;
    ASSERT_NO_FATAL_FAILURE(CheckSameObservables(tlb, ref));
    if (twin) {
      ASSERT_EQ(ApplyTlbOp(*twin, op), want) << "op " << op.kind << " (twin)";
      ASSERT_NO_FATAL_FAILURE(CheckSameObservables(*twin, ref));
    }
    if (step % 97 == 0 || step + 1 == steps) {
      const std::vector<std::uint8_t> bytes = TlbSnapshot(tlb);
      ASSERT_EQ(bytes, ref.Bytes());
      if (twin) {
        ASSERT_EQ(TlbSnapshot(*twin), bytes);
      }
    }
  }
  EXPECT_GT(ref.evictions(false), 0u);
  EXPECT_GT(ref.evictions(true), 0u);
}

TEST(TlbProperty, MatchesReferenceLru) {
  // Exact LRU: every hit, victim and counter matches the reference, the
  // snapshot bytes are the reference's, and a save/load twin replaces the
  // same victims afterwards.
  const std::pair<std::uint32_t, std::uint32_t> kCapacities[] = {
      {1, 1}, {2, 2}, {16, 4}, {48, 16}, {512, 32}};
  for (const auto& [capacity_4k, capacity_large] : kCapacities) {
    for (const std::uint64_t seed : {3u, 11u, 42u}) {
      SCOPED_TRACE(::testing::Message() << "capacity " << capacity_4k << "/"
                                        << capacity_large << " seed " << seed);
      RunAgainstReferenceLru(capacity_4k, capacity_large, seed);
      if (HasFatalFailure()) {
        return;
      }
    }
  }
}

// --- PhysMem against a map of frames -------------------------------------
// Property: whether an access takes the inline one-frame path or the span
// path, PhysMem behaves as a map from frame number to 4 KiB of bytes. Both
// give the same status, bytes, observer calls, resident count and snapshot
// bytes, with nothing written or observed on a fault.

class ReferenceMem {
 public:
  using Frame = std::array<std::uint8_t, kPageSize>;

  explicit ReferenceMem(std::uint64_t size) : size_(size) {}

  Status Read(PhysAddr addr, std::uint8_t* out, std::uint64_t len) const {
    if (!Contains(addr, len)) {
      return Status::kMemoryFault;
    }
    for (std::uint64_t i = 0; i < len; ++i) {
      const auto it = frames_.find(FrameOf(addr + i));
      out[i] = it == frames_.end() ? 0 : it->second[(addr + i) & kPageMask];
    }
    return Status::kSuccess;
  }
  Status Write(PhysAddr addr, const std::uint8_t* data, std::uint64_t len) {
    if (!Contains(addr, len)) {
      return Status::kMemoryFault;
    }
    observed_.emplace_back(addr, len);
    for (std::uint64_t i = 0; i < len; ++i) {
      frames_.try_emplace(FrameOf(addr + i), Frame{})
          .first->second[(addr + i) & kPageMask] = data[i];
    }
    return Status::kSuccess;
  }
  Status Zero(PhysAddr addr, std::uint64_t len) {
    if (!Contains(addr, len)) {
      return Status::kMemoryFault;
    }
    observed_.emplace_back(addr, len);
    for (std::uint64_t i = 0; i < len; ++i) {
      const auto it = frames_.find(FrameOf(addr + i));
      if (it != frames_.end()) {
        it->second[(addr + i) & kPageMask] = 0;
      }
    }
    return Status::kSuccess;
  }

  // The snapshot section PhysMem must write: installed RAM, a count64,
  // then each resident frame's number and bytes in ascending order.
  std::vector<std::uint8_t> Encode() const {
    sim::SnapWriter w;
    w.U64(size_);
    w.U64(frames_.size());
    for (const auto& [frame_no, bytes] : frames_) {
      w.U64(frame_no);
      w.Bytes(bytes.data(), bytes.size());
    }
    return w.data();
  }

  std::size_t resident_frames() const { return frames_.size(); }
  const std::vector<std::pair<PhysAddr, std::uint64_t>>& observed() const {
    return observed_;
  }

 private:
  bool Contains(PhysAddr addr, std::uint64_t len) const {
    return addr < size_ && len <= size_ - addr;
  }

  std::uint64_t size_;
  std::map<std::uint64_t, Frame> frames_;
  std::vector<std::pair<PhysAddr, std::uint64_t>> observed_;
};

std::vector<std::uint8_t> SaveBytes(const PhysMem& mem) {
  sim::SnapWriter w;
  EXPECT_EQ(mem.SaveState(w), Status::kSuccess);
  return w.data();
}

void RunAgainstReferenceMem(std::uint64_t ram, std::uint64_t seed) {
  PhysMem mem(ram);
  ReferenceMem ref(ram);
  std::vector<std::pair<PhysAddr, std::uint64_t>> observed;
  mem.set_write_observer([&observed](PhysAddr addr, std::uint64_t len) {
    observed.emplace_back(addr, len);
  });
  sim::Rng rng(seed);
  constexpr std::uint64_t kChunkBytes = 2ull << 20;  // One directory chunk.
  const auto pick_addr = [&]() -> PhysAddr {
    // Near a frame boundary, a chunk boundary or the end of RAM, or
    // anywhere; a signed offset lets accesses straddle each of them.
    const std::uint64_t near = rng.Below(64) + 1;
    switch (rng.Below(4)) {
      case 0:
        return rng.Below(ram / kPageSize + 1) * kPageSize - near;
      case 1:
        return rng.Below(ram / kChunkBytes + 1) * kChunkBytes - near;
      case 2:
        return ram - rng.Below(9000) - 1 + rng.Below(4);
      default:
        return rng.Below(ram);
    }
  };
  const auto pick_len = [&]() -> std::uint64_t {
    static constexpr std::uint64_t kFixed[] = {1, 2, 4, 8};
    return rng.Chance(0.5) ? kFixed[rng.Below(4)] : rng.Range(1, 9000);
  };

  std::vector<std::uint8_t> got(9000), want(9000), data(9000);
  for (int step = 0; step < 4000; ++step) {
    const PhysAddr addr = pick_addr();
    const std::uint64_t len = pick_len();
    SCOPED_TRACE(::testing::Message()
                 << "step " << step << " addr " << addr << " len " << len);
    switch (rng.Below(3)) {
      case 0: {
        std::fill(got.begin(), got.end(), 0xcd);
        std::fill(want.begin(), want.end(), 0xcd);
        ASSERT_EQ(mem.Read(addr, got.data(), len),
                  ref.Read(addr, want.data(), len));
        ASSERT_EQ(got, want);
        break;
      }
      case 1: {
        for (std::uint64_t i = 0; i < len; ++i) {
          data[i] = static_cast<std::uint8_t>(rng.Next() | 1);
        }
        ASSERT_EQ(mem.Write(addr, data.data(), len),
                  ref.Write(addr, data.data(), len));
        break;
      }
      default:
        ASSERT_EQ(mem.Zero(addr, len), ref.Zero(addr, len));
        break;
    }
    ASSERT_EQ(observed, ref.observed());
    ASSERT_EQ(mem.resident_frames(), ref.resident_frames());
    if (step % 500 == 499) {
      ASSERT_EQ(SaveBytes(mem), ref.Encode());
    }
  }

  // Save -> Load -> Save is byte-identical.
  const std::vector<std::uint8_t> saved = SaveBytes(mem);
  ASSERT_EQ(saved, ref.Encode());
  PhysMem twin(ram);
  sim::SnapReader r(saved.data(), saved.size());
  ASSERT_EQ(twin.LoadState(r), Status::kSuccess);
  ASSERT_EQ(r.Finish(), Status::kSuccess);
  EXPECT_EQ(twin.resident_frames(), ref.resident_frames());
  EXPECT_EQ(SaveBytes(twin), saved);
}

TEST(PhysMemProperty, InlineAndSpanPathsMatchAMapOfFrames) {
  // A RAM size that ends inside a directory chunk, and one that also ends
  // inside a frame.
  for (const std::uint64_t ram :
       {(6ull << 20) + 5 * kPageSize, (6ull << 20) + 5 * kPageSize + 100}) {
    for (const std::uint64_t seed : {7u, 42u}) {
      SCOPED_TRACE(::testing::Message() << "ram " << ram << " seed " << seed);
      RunAgainstReferenceMem(ram, seed);
      if (HasFatalFailure()) {
        return;
      }
    }
  }
}

// --- Randomized fault schedules vs. the kernel frame pool ---------------
// Property: however many times a VMM is killed and restarted, and whenever
// the crashes land, the kernel frame pool balances — every restart cycle
// ends with the same number of frames in use, and the final count matches
// a fault-free run.

struct FaultCycleResult {
  bool done = false;
  std::uint64_t completed = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t frames_end = 0;
  std::vector<std::uint64_t> frames_after_restart;
  // Kernel-memory quota balance: the root's donatable limit before the
  // VMM exists, after every kill/restart cycle, and at the end.
  std::uint64_t root_limit_start = 0;
  std::uint64_t root_limit_end = 0;
  std::vector<std::uint64_t> root_limit_after_restart;
  std::uint64_t vmm_used_end = 0;
  std::uint64_t vmm_limit_end = 0;
};

constexpr std::uint64_t kCycleRequests = 120;
// Every VMM in the sweep runs under a bounded kernel-memory quota, so the
// kill/restart cycles also exercise donation return on teardown.
constexpr std::uint64_t kVmmQuotaFrames = 512;

FaultCycleResult RunFaultCycles(std::uint64_t seed, std::uint64_t crashes,
                                std::uint32_t vmm_cpu = 0) {
  root::SystemConfig sc;
  // With the VMM on a secondary core, the disk server (core 0) is reached
  // by cross-core IPC and teardown crosses cores too.
  std::vector<const hw::CpuModel*> cpus(vmm_cpu + 1, &hw::CoreI7_920());
  sc.machine = hw::MachineConfig{.cpus = cpus, .ram_size = 512ull << 20};
  root::NovaSystem system(sc);
  system.StartDiskServer();  // Its domain precedes the VMM's.

  // Crash times are drawn from the seed: spaced widely enough for the
  // supervisor to finish one recovery before the next crash activates.
  sim::Rng rng(seed);
  sim::FaultPlan plan(seed);
  for (std::uint64_t i = 0; i < crashes; ++i) {
    plan.Schedule({.at = sim::Milliseconds(1 + 2 * i) +
                         sim::Microseconds(rng.Below(900)),
                   .kind = sim::FaultKind::kVmmCrash,
                   .target = "a",
                   .count = 1,
                   .rate = 1.0});
  }
  plan.Arm(&system.machine.events());

  FaultCycleResult r;
  r.root_limit_start = system.hv.root_pd()->kmem().limit();
  bench::GuestVm vm(system,
                    vmm::VmmConfig{.name = "a",
                                   .guest_mem_bytes = 32ull << 20,
                                   .first_cpu = vmm_cpu,
                                   .kmem_quota_frames = kVmmQuotaFrames},
                    bench::GuestVm::Disk::kServerWithErrors);
  vm.vmm().SetFaultPlan(&plan);
  guest::DiskWorkload workload(
      &vm.kernel(), vm.driver(),
      guest::DiskWorkload::Config{.block_bytes = 4096,
                                  .total_requests = kCycleRequests});
  vm.Boot(workload.EmitMain());

  root::VmmSupervisor::Config supc;
  supc.check_period_ps = sim::Microseconds(200);
  root::VmmSupervisor supervisor(&system.hv, system.root.get(), supc);

  std::function<void(const root::VmmSupervisor::RecoveryInfo&)> restart;
  restart = [&](const root::VmmSupervisor::RecoveryInfo& info) {
    vm.Restart(info);
    vm.vmm().SetFaultPlan(&plan);  // The replacement can crash again.
    EXPECT_EQ(supervisor.Watch(&vm.vmm(), restart), Status::kSuccess);
    r.frames_after_restart.push_back(system.hv.FramesInUse());
    r.root_limit_after_restart.push_back(system.hv.root_pd()->kmem().limit());
  };
  EXPECT_EQ(supervisor.Watch(&vm.vmm(), restart), Status::kSuccess);

  system.hv.RunUntilCondition(
      [&] { return workload.done() && supervisor.recoveries() >= crashes; },
      sim::Seconds(30));
  r.done = workload.done();
  r.completed = workload.completed();
  r.recoveries = supervisor.recoveries();
  r.frames_end = system.hv.FramesInUse();
  r.root_limit_end = system.hv.root_pd()->kmem().limit();
  r.vmm_used_end = vm.vmm().vmm_pd()->kmem().used();
  r.vmm_limit_end = vm.vmm().vmm_pd()->kmem().limit();
  return r;
}

class FaultScheduleProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FaultScheduleProperty, FramePoolBalancesAfterEveryKillRestartCycle) {
  const std::uint64_t seed = GetParam();
  sim::Rng rng(seed ^ 0xfa);
  const std::uint64_t crashes = 1 + rng.Below(3);

  const FaultCycleResult clean = RunFaultCycles(seed, /*crashes=*/0);
  ASSERT_TRUE(clean.done);
  ASSERT_EQ(clean.recoveries, 0u);

  const FaultCycleResult faulted = RunFaultCycles(seed, crashes);
  ASSERT_TRUE(faulted.done);
  EXPECT_EQ(faulted.recoveries, crashes);
  EXPECT_EQ(faulted.completed, kCycleRequests);

  // Every kill/restart cycle balanced: no frame count ratchets upward.
  ASSERT_EQ(faulted.frames_after_restart.size(), crashes);
  for (const std::uint64_t frames : faulted.frames_after_restart) {
    EXPECT_EQ(frames, faulted.frames_after_restart.front());
  }
  EXPECT_EQ(faulted.frames_end, clean.frames_end);

  // The quota ledger balances the same way: each dead VMM returned its
  // full donation to the root before the replacement took it back, so
  // the root's donatable limit is identical after every cycle and equals
  // the clean run's. The live VMM never exceeds its bound.
  ASSERT_EQ(faulted.root_limit_after_restart.size(), crashes);
  for (const std::uint64_t limit : faulted.root_limit_after_restart) {
    EXPECT_EQ(limit, faulted.root_limit_start - kVmmQuotaFrames);
  }
  EXPECT_EQ(faulted.root_limit_end, clean.root_limit_end);
  EXPECT_EQ(faulted.root_limit_end, faulted.root_limit_start - kVmmQuotaFrames);
  EXPECT_EQ(faulted.vmm_limit_end, kVmmQuotaFrames);
  EXPECT_LE(faulted.vmm_used_end, faulted.vmm_limit_end);
}

TEST_P(FaultScheduleProperty, CrossCoreKillRestartKeepsLedgerBalanced) {
  // Same property, SMP shape: the VM runs on core 1 while the disk server
  // and the supervisor live on core 0, so every disk request is a
  // cross-core portal call and every kill/restart tears down and rebuilds
  // a domain whose execution contexts live on another core. The
  // kernel-memory quota ledger must balance exactly as in the single-core
  // sweep.
  const std::uint64_t seed = GetParam();
  sim::Rng rng(seed ^ 0xce);
  const std::uint64_t crashes = 1 + rng.Below(3);

  const FaultCycleResult clean = RunFaultCycles(seed, /*crashes=*/0, /*vmm_cpu=*/1);
  ASSERT_TRUE(clean.done);

  const FaultCycleResult faulted = RunFaultCycles(seed, crashes, /*vmm_cpu=*/1);
  ASSERT_TRUE(faulted.done);
  EXPECT_EQ(faulted.recoveries, crashes);
  EXPECT_EQ(faulted.completed, kCycleRequests);

  ASSERT_EQ(faulted.frames_after_restart.size(), crashes);
  for (const std::uint64_t frames : faulted.frames_after_restart) {
    EXPECT_EQ(frames, faulted.frames_after_restart.front());
  }
  EXPECT_EQ(faulted.frames_end, clean.frames_end);

  ASSERT_EQ(faulted.root_limit_after_restart.size(), crashes);
  for (const std::uint64_t limit : faulted.root_limit_after_restart) {
    EXPECT_EQ(limit, faulted.root_limit_start - kVmmQuotaFrames);
  }
  EXPECT_EQ(faulted.root_limit_end, clean.root_limit_end);
  EXPECT_EQ(faulted.root_limit_end, faulted.root_limit_start - kVmmQuotaFrames);
  EXPECT_EQ(faulted.vmm_limit_end, kVmmQuotaFrames);
  EXPECT_LE(faulted.vmm_used_end, faulted.vmm_limit_end);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultScheduleProperty,
                         ::testing::Values(3u, 11u, 42u));

TEST(IommuProperty, TranslationsNeverLeakAcrossDevices) {
  PhysMem mem(256ull << 20);
  Iommu iommu(&mem, true);
  PhysAddr next = 0x100000;
  const auto alloc = [&next] {
    const PhysAddr f = next;
    next += kPageSize;
    return f;
  };
  iommu.AttachDevice(1, 0x4000000);
  iommu.AttachDevice(2, 0x5000000);
  sim::Rng rng(11);
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t iova = rng.Below(1 << 12) * kPageSize;
    const std::uint64_t pa1 = (0x8000 + rng.Below(1 << 12)) * kPageSize;
    ASSERT_EQ(iommu.Map(1, iova, pa1, kPageSize, true, alloc), Status::kSuccess);
    // Device 2 has no mapping at this iova: its DMA must be rejected even
    // though device 1 can reach it.
    std::uint64_t probe = 0;
    EXPECT_EQ(iommu.DmaRead(2, iova, &probe, 8), Status::kDenied);
    const std::uint64_t value = rng.Next();
    ASSERT_EQ(iommu.DmaWrite(1, iova, &value, 8), Status::kSuccess);
    EXPECT_EQ(mem.Read64(pa1), value);
  }
}

}  // namespace
}  // namespace nova::hw
