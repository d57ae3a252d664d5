// Simulated translation lookaside buffer.
//
// Fully associative, LRU replacement, with separate capacity classes for
// 4 KiB and superpage translations (matching the split structure of the
// parts in Table 1). Entries carry a 16-bit tag: 0 is the host address
// space; guests get VPID/ASID tags when the CPU model supports them.
// Replacement is exact LRU at O(1) per operation: each class keeps its
// entries in fixed slots on a recency list, found through a small
// open-addressing index, and a flush costs only the live entries.
//
// The dirty bit is modelled faithfully: a write that hits an entry whose
// translation was installed without the dirty flag reports a miss, forcing
// a re-walk — this is what lets the vTLB algorithm intercept the first
// write to a clean page.
#ifndef SRC_HW_TLB_H_
#define SRC_HW_TLB_H_

#include <compare>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <optional>
#include <vector>

#include "src/hw/paging.h"
#include "src/hw/phys_mem.h"
#include "src/sim/stats.h"

namespace nova::hw {

using TlbTag = std::uint16_t;
constexpr TlbTag kHostTag = 0;

// Hands out unique TLB tags (VPID/ASID values). Tag 0 is reserved for the
// host address space. VMs receive one identity tag at creation; the vTLB's
// shadow-context cache additionally allocates one tag per cached guest
// address space so a guest CR3 switch can become a tag switch instead of a
// flush (PCID-style reuse). Released tags are recycled.
class TlbTagAllocator {
 public:
  explicit TlbTagAllocator(TlbTag first = 1) : next_(first) {}

  TlbTag Allocate() {
    if (!free_.empty()) {
      const TlbTag tag = free_.back();
      free_.pop_back();
      return tag;
    }
    return next_++;
  }

  void Release(TlbTag tag) {
    if (tag != kHostTag) {
      free_.push_back(tag);
    }
  }

  Status SaveState(sim::SnapWriter& w) const { return w.Save(*this); }
  Status LoadState(sim::SnapReader& r) { return r.Restore(*this); }
  template <class Ar>
  void Io(Ar& ar) {
    ar.Io(next_);
    ar.Seq(sim::kCount32, free_);
  }

 private:
  TlbTag next_;
  std::vector<TlbTag> free_;
};

struct TlbEntry {
  PhysAddr phys_page = 0;        // Physical base of the mapping.
  std::uint64_t page_size = 0;
  bool writable = false;
  bool user = false;
  bool dirty = false;            // Translation was installed for write.
  bool global = false;           // Survives non-tag full flushes.

  template <class Ar>
  void Io(Ar& ar) {
    ar.Io(phys_page, page_size, writable, user, dirty, global);
  }
};

class Tlb {
 public:
  // Both capacities must be nonzero.
  Tlb(std::uint32_t capacity_4k, std::uint32_t capacity_large);

  // Probe's answer to a miss. A hit returns the translation's delta, the
  // physical page base minus the virtual one (mod 2^64), and `va` plus it
  // is the physical address. Both bases are multiples of 4 KiB, so a delta
  // never equals kMiss, while a translated address can: paging off, va ~0
  // translates to ~0.
  static constexpr std::uint64_t kMiss = ~std::uint64_t{0};

  // Look up `va` under `tag`: its delta on a usable hit, kMiss on a miss
  // (including permission-insufficient and clean-entry write cases). The
  // result is one register wide: GCC returns an optional through a stack
  // slot written as a byte and reloaded as a word, which stalls the hit
  // test of every guest access. Every guest fetch, load, store and nested
  // walk step probes, so the hash, the probe loop and the LRU touch are
  // inline, and Probe itself is forced inline into its callers, which GCC
  // would otherwise leave calling an out-of-line clone: a hit makes no call.
  [[gnu::always_inline]] std::uint64_t Probe(TlbTag tag, VirtAddr va,
                                             Access access) {
    // Probe each page size: we do not know the mapping size in advance. The
    // superpage probes cannot hit while their class is empty. Unrolled, each
    // probe's size is a constant and `access` stays in registers.
#pragma GCC unroll 3
    for (std::size_t k = 0; k < std::size(kPageSizes); ++k) {
      if (k != 0 && classes_[1].count == 0) {
        break;
      }
      const std::uint64_t size = kPageSizes[k];
      const std::uint32_t s = Find(MakeKey(tag, va, size));
      if (s == kNil) {
        continue;
      }
      const TlbEntry& e = slots_[s].entry;
      if (e.page_size != size) {
        continue;  // The other superpage size at the same base.
      }
      if (access.write && !e.writable) {
        continue;  // Permission-insufficient entry: treat as miss.
      }
      if (access.user && !e.user) {
        continue;
      }
      if (access.write && !e.dirty) {
        continue;  // Clean entry: the walk must run again to set D.
      }
      Touch(s);
      hits_.Add();
      return (e.phys_page & ~(size - 1)) - (va & ~(size - 1));
    }
    misses_.Add();
    return kMiss;
  }
  // The translated address as an optional: nullopt on a miss.
  std::optional<PhysAddr> Lookup(TlbTag tag, VirtAddr va, Access access) {
    const std::uint64_t delta = Probe(tag, va, access);
    return delta != kMiss ? std::optional<PhysAddr>(va + delta) : std::nullopt;
  }

  // Install a translation as produced by a page-table walk.
  void Insert(TlbTag tag, VirtAddr va, PhysAddr pa, std::uint64_t page_size,
              bool writable, bool user, bool dirty, bool global = false);

  // Invalidations.
  void FlushAll();                      // Everything, all tags.
  void FlushTag(TlbTag tag);            // All entries of one tag.
  void FlushNonGlobal(TlbTag tag);      // Tag's entries except global ones
                                        // (x86 CR3-write semantics).
  void FlushVa(TlbTag tag, VirtAddr va);  // INVLPG.

  std::size_t EntryCount(TlbTag tag) const;
  std::size_t size() const { return classes_[0].count + classes_[1].count; }

  const sim::Counter& hits() const { return hits_; }
  const sim::Counter& misses() const { return misses_; }
  const sim::Counter& flushes() const { return flushes_; }

  // Serialize entries sorted by (tag, vpage, large), each with its LRU
  // stamp, plus the LRU clock, so post-restore replacement decisions are
  // bit-identical. Loading fails with kBadParameter on entries this TLB's
  // capacities cannot hold or whose size class is inconsistent.
  Status SaveState(sim::SnapWriter& w) const;
  Status LoadState(sim::SnapReader& r);
  template <class Ar>
  void Io(Ar& ar);

 private:
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};
  // The page sizes a translation can have, in the order Probe tries them.
  static constexpr std::uint64_t kPageSizes[] = {
      kPageSize, std::uint64_t{2} << 20, std::uint64_t{4} << 20};

  struct Key {
    TlbTag tag;
    std::uint64_t vpage;  // va >> 12; superpages insert their base page.
    bool large;
    // Member order is the snapshot's entry order: (tag, vpage, large).
    auto operator<=>(const Key&) const = default;
    template <class Ar>
    void Io(Ar& ar) {
      ar.Io(tag, vpage, large);
    }
  };
  // One translation. The snapshot stores its entry and stamp after the key;
  // the links and index position are rebuilt on load.
  struct Slot {
    Key key{};
    TlbEntry entry;
    std::uint64_t lru = 0;      // Clock value of the last insert or hit.
    std::uint32_t prev = kNil;  // LRU list neighbours; `next` also links
    std::uint32_t next = kNil;  // the class's free slots.
    std::uint32_t pos = kNil;   // Where index_ holds this slot.
    template <class Ar>
    void Io(Ar& ar) {
      ar.Io(entry, lru);
    }
  };
  // A size class owns a fixed range of slots_. Its live slots form a list
  // in stamp order, least recently used at the head, so the victim of an
  // insert at capacity is the head and a hit moves its slot to the tail.
  struct SizeClass {
    std::uint32_t capacity = 0;
    std::uint32_t count = 0;
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
    std::uint32_t free = kNil;
  };

  static Key MakeKey(TlbTag tag, VirtAddr va, std::uint64_t page_size) {
    const bool large = page_size > kPageSize;
    const std::uint64_t base = va & ~(page_size - 1);
    return Key{tag, base >> kPageShift, large};
  }

  // index_: open addressing with linear probing, at most half full.
  std::uint32_t Home(Key key) const {
    // Fibonacci hashing: the multiply spreads consecutive pages over the
    // whole index, and the top bits pick the bucket.
    const std::uint64_t mixed = key.vpage ^ (std::uint64_t{key.tag} << 48) ^
                                (std::uint64_t{key.large} << 47);
    return static_cast<std::uint32_t>((mixed * 0x9e3779b97f4a7c15ull) >>
                                      index_shift_);
  }
  std::uint32_t Find(Key key) const {  // Slot, or kNil.
    for (std::uint32_t i = Home(key);; i = (i + 1) & index_mask_) {
      const std::uint32_t s = index_[i];
      if (s == kNil || slots_[s].key == key) {
        return s;
      }
    }
  }
  void Index(std::uint32_t s);
  void Unindex(std::uint32_t pos);

  std::uint32_t Allocate(const Key& key);  // Class must have a free slot.
  void Erase(std::uint32_t s);
  void Touch(std::uint32_t s) {  // Stamp and move to the tail.
    SizeClass& c = classes_[slots_[s].key.large];
    if (c.tail != s) {
      Unlink(c, s);
      Append(c, s);
    }
    slots_[s].lru = ++clock_;
  }
  void Unlink(SizeClass& c, std::uint32_t s) {
    const Slot& slot = slots_[s];
    (slot.prev == kNil ? c.head : slots_[slot.prev].next) = slot.next;
    (slot.next == kNil ? c.tail : slots_[slot.next].prev) = slot.prev;
  }
  void Append(SizeClass& c, std::uint32_t s) {
    slots_[s].prev = c.tail;
    slots_[s].next = kNil;
    (c.tail == kNil ? c.head : slots_[c.tail].next) = s;
    c.tail = s;
  }
  template <class Pred>
  void EraseIf(Pred pred);
  void Clear();

  SizeClass classes_[2];  // [0] 4 KiB, [1] 2 MiB and 4 MiB: index by large.
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> index_;  // Slot numbers; kNil is empty.
  std::uint32_t index_mask_ = 0;
  int index_shift_ = 0;  // 64 - log2(index_.size()).
  std::uint64_t clock_ = 0;
  sim::Counter hits_;
  sim::Counter misses_;
  sim::Counter flushes_;
};

}  // namespace nova::hw

#endif  // SRC_HW_TLB_H_
