// Simulated translation lookaside buffer.
//
// Fully associative, LRU replacement, with separate capacity classes for
// 4 KiB and superpage translations (matching the split structure of the
// parts in Table 1). Entries carry a 16-bit tag: 0 is the host address
// space; guests get VPID/ASID tags when the CPU model supports them.
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
#include <unordered_map>
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
  Tlb(std::uint32_t capacity_4k, std::uint32_t capacity_large)
      : capacity_4k_(capacity_4k), capacity_large_(capacity_large) {}

  // Look up `va` under `tag`. Returns the translated physical address on a
  // usable hit. Misses (including permission-insufficient and clean-entry
  // write cases) return nullopt.
  std::optional<PhysAddr> Lookup(TlbTag tag, VirtAddr va, Access access);

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
  std::size_t size() const { return map_.size(); }

  const sim::Counter& hits() const { return hits_; }
  const sim::Counter& misses() const { return misses_; }
  const sim::Counter& flushes() const { return flushes_; }

  // Serialize entries sorted by (tag, vpage, large) plus the LRU clock, so
  // post-restore replacement decisions are bit-identical.
  Status SaveState(sim::SnapWriter& w) const;
  Status LoadState(sim::SnapReader& r);
  template <class Ar>
  void Io(Ar& ar);

 private:
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
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      std::uint64_t h = k.vpage * 0x9e3779b97f4a7c15ull;
      h ^= (static_cast<std::uint64_t>(k.tag) << 1) ^ (k.large ? 0x5851ull : 0);
      return static_cast<std::size_t>(h ^ (h >> 29));
    }
  };
  struct Slot {
    TlbEntry entry;
    std::uint64_t lru;
    template <class Ar>
    void Io(Ar& ar) {
      ar.Io(entry, lru);
    }
  };

  Key MakeKey(TlbTag tag, VirtAddr va, std::uint64_t page_size) const {
    const bool large = page_size > kPageSize;
    const std::uint64_t base = va & ~(page_size - 1);
    return Key{tag, base >> kPageShift, large};
  }

  void EvictIfNeeded(bool large);

  std::uint32_t capacity_4k_;
  std::uint32_t capacity_large_;
  std::uint32_t count_4k_ = 0;
  std::uint32_t count_large_ = 0;
  std::uint64_t clock_ = 0;
  std::unordered_map<Key, Slot, KeyHash> map_;
  sim::Counter hits_;
  sim::Counter misses_;
  sim::Counter flushes_;
};

}  // namespace nova::hw

#endif  // SRC_HW_TLB_H_
