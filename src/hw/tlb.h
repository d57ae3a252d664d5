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
#include <cstdint>
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
  // test of every guest access.
  std::uint64_t Probe(TlbTag tag, VirtAddr va, Access access);
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

  Key MakeKey(TlbTag tag, VirtAddr va, std::uint64_t page_size) const {
    const bool large = page_size > kPageSize;
    const std::uint64_t base = va & ~(page_size - 1);
    return Key{tag, base >> kPageShift, large};
  }

  // index_: open addressing with linear probing, at most half full.
  std::uint32_t Home(const Key& key) const;
  std::uint32_t Find(const Key& key) const;  // Slot, or kNil.
  void Index(std::uint32_t s);
  void Unindex(std::uint32_t pos);

  std::uint32_t Allocate(const Key& key);  // Class must have a free slot.
  void Erase(std::uint32_t s);
  void Touch(std::uint32_t s);  // Stamp and move to the tail.
  void Unlink(SizeClass& c, std::uint32_t s);
  void Append(SizeClass& c, std::uint32_t s);
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
