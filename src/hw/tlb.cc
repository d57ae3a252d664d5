#include "src/hw/tlb.h"

#include <algorithm>
#include <map>

namespace nova::hw {
namespace {

constexpr std::uint64_t kPageSizes[] = {kPageSize, std::uint64_t{2} << 20,
                                        std::uint64_t{4} << 20};

}  // namespace

Tlb::Tlb(std::uint32_t capacity_4k, std::uint32_t capacity_large)
    : slots_(std::size_t{capacity_4k} + capacity_large) {
  classes_[0].capacity = capacity_4k;
  classes_[1].capacity = capacity_large;
  // The 4 KiB class owns the first capacity_4k slots, superpages the rest;
  // each free list hands out its range in ascending order.
  std::uint32_t first = 0;
  for (SizeClass& c : classes_) {
    for (std::uint32_t i = c.capacity; i-- > 0;) {
      slots_[first + i].next = c.free;
      c.free = first + i;
    }
    first += c.capacity;
  }
  int bits = 1;
  while ((std::size_t{1} << bits) < 2 * slots_.size()) {
    ++bits;
  }
  index_.assign(std::size_t{1} << bits, kNil);
  index_mask_ = static_cast<std::uint32_t>(index_.size() - 1);
  index_shift_ = 64 - bits;
}

std::uint64_t Tlb::Probe(TlbTag tag, VirtAddr va, Access access) {
  // Probe each page size: we do not know the mapping size in advance. The
  // superpage probes cannot hit while their class is empty.
  for (const std::uint64_t size : kPageSizes) {
    if (size != kPageSize && classes_[1].count == 0) {
      break;
    }
    const std::uint32_t s = Find(MakeKey(tag, va, size));
    if (s == kNil || slots_[s].entry.page_size != size) {
      continue;
    }
    const TlbEntry& e = slots_[s].entry;
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
    // The key's page, not `va & ~(size - 1)`: that value would stay live
    // across the calls above and push `va` out of its register.
    return (e.phys_page & ~(size - 1)) - (slots_[s].key.vpage << kPageShift);
  }
  misses_.Add();
  return kMiss;
}

void Tlb::Insert(TlbTag tag, VirtAddr va, PhysAddr pa, std::uint64_t page_size,
                 bool writable, bool user, bool dirty, bool global) {
  const Key key = MakeKey(tag, va, page_size);
  std::uint32_t s = Find(key);
  if (s == kNil) {
    const SizeClass& c = classes_[key.large];
    if (c.count == c.capacity) {
      Erase(c.head);  // The class's least recently used entry.
    }
    s = Allocate(key);
  }
  slots_[s].entry = TlbEntry{
      .phys_page = pa & ~(page_size - 1),
      .page_size = page_size,
      .writable = writable,
      .user = user,
      .dirty = dirty,
      .global = global,
  };
  Touch(s);
}

void Tlb::FlushAll() {
  Clear();
  flushes_.Add();
}

void Tlb::FlushTag(TlbTag tag) {
  EraseIf([tag](const Slot& slot) { return slot.key.tag == tag; });
  flushes_.Add();
}

void Tlb::FlushNonGlobal(TlbTag tag) {
  EraseIf([tag](const Slot& slot) {
    return slot.key.tag == tag && !slot.entry.global;
  });
  flushes_.Add();
}

void Tlb::FlushVa(TlbTag tag, VirtAddr va) {
  for (const std::uint64_t size : kPageSizes) {
    if (size != kPageSize && classes_[1].count == 0) {
      break;
    }
    const std::uint32_t s = Find(MakeKey(tag, va, size));
    if (s != kNil && slots_[s].entry.page_size == size) {
      Erase(s);
    }
  }
}

std::size_t Tlb::EntryCount(TlbTag tag) const {
  std::size_t n = 0;
  for (const SizeClass& c : classes_) {
    for (std::uint32_t s = c.head; s != kNil; s = slots_[s].next) {
      n += slots_[s].key.tag == tag ? 1 : 0;
    }
  }
  return n;
}

std::uint32_t Tlb::Home(const Key& key) const {
  // Fibonacci hashing: the multiply spreads consecutive pages over the
  // whole index, and the top bits pick the bucket.
  const std::uint64_t mixed = key.vpage ^ (std::uint64_t{key.tag} << 48) ^
                              (std::uint64_t{key.large} << 47);
  return static_cast<std::uint32_t>((mixed * 0x9e3779b97f4a7c15ull) >>
                                    index_shift_);
}

std::uint32_t Tlb::Find(const Key& key) const {
  for (std::uint32_t i = Home(key);; i = (i + 1) & index_mask_) {
    const std::uint32_t s = index_[i];
    if (s == kNil || slots_[s].key == key) {
      return s;
    }
  }
}

void Tlb::Index(std::uint32_t s) {
  std::uint32_t i = Home(slots_[s].key);
  while (index_[i] != kNil) {
    i = (i + 1) & index_mask_;
  }
  index_[i] = s;
  slots_[s].pos = i;
}

void Tlb::Unindex(std::uint32_t hole) {
  // Backward-shift deletion: a later slot of the probe run moves into the
  // hole when the hole lies between its home bucket and where it sits, so
  // runs stay unbroken without tombstones.
  for (std::uint32_t i = (hole + 1) & index_mask_; index_[i] != kNil;
       i = (i + 1) & index_mask_) {
    const std::uint32_t s = index_[i];
    if (((i - Home(slots_[s].key)) & index_mask_) >=
        ((i - hole) & index_mask_)) {
      index_[hole] = s;
      slots_[s].pos = hole;
      hole = i;
    }
  }
  index_[hole] = kNil;
}

std::uint32_t Tlb::Allocate(const Key& key) {
  SizeClass& c = classes_[key.large];
  const std::uint32_t s = c.free;
  c.free = slots_[s].next;
  ++c.count;
  slots_[s].key = key;
  Index(s);
  Append(c, s);
  return s;
}

void Tlb::Erase(std::uint32_t s) {
  SizeClass& c = classes_[slots_[s].key.large];
  Unindex(slots_[s].pos);
  Unlink(c, s);
  slots_[s].next = c.free;
  c.free = s;
  --c.count;
}

void Tlb::Touch(std::uint32_t s) {
  SizeClass& c = classes_[slots_[s].key.large];
  if (c.tail != s) {
    Unlink(c, s);
    Append(c, s);
  }
  slots_[s].lru = ++clock_;
}

void Tlb::Unlink(SizeClass& c, std::uint32_t s) {
  const Slot& slot = slots_[s];
  (slot.prev == kNil ? c.head : slots_[slot.prev].next) = slot.next;
  (slot.next == kNil ? c.tail : slots_[slot.next].prev) = slot.prev;
}

void Tlb::Append(SizeClass& c, std::uint32_t s) {
  slots_[s].prev = c.tail;
  slots_[s].next = kNil;
  (c.tail == kNil ? c.head : slots_[c.tail].next) = s;
  c.tail = s;
}

template <class Pred>
void Tlb::EraseIf(Pred pred) {
  for (SizeClass& c : classes_) {
    for (std::uint32_t s = c.head; s != kNil;) {
      const std::uint32_t next = slots_[s].next;
      if (pred(slots_[s])) {
        Erase(s);
      }
      s = next;
    }
  }
}

void Tlb::Clear() {
  for (SizeClass& c : classes_) {
    for (std::uint32_t s = c.head; s != kNil; s = slots_[s].next) {
      index_[slots_[s].pos] = kNil;
    }
    if (c.head != kNil) {  // The whole list joins the free slots.
      slots_[c.tail].next = c.free;
      c.free = c.head;
    }
    c.head = kNil;
    c.tail = kNil;
    c.count = 0;
  }
}

template <class Ar>
void Tlb::Io(Ar& ar) {
  std::uint32_t count_4k = classes_[0].count;
  std::uint32_t count_large = classes_[1].count;
  ar.Io(count_4k, count_large, clock_, hits_, misses_, flushes_);
  std::map<Key, Slot> entries;
  if constexpr (!Ar::kLoading) {
    for (const SizeClass& c : classes_) {
      for (std::uint32_t s = c.head; s != kNil; s = slots_[s].next) {
        entries.emplace(slots_[s].key, slots_[s]);
      }
    }
  }
  ar.Keyed(sim::kCount32, entries);
  if constexpr (Ar::kLoading) {
    Clear();
    // Every entry must fit this TLB's slots and agree with its class and
    // with the saved counts.
    std::uint32_t counts[2] = {0, 0};
    std::vector<Slot> by_stamp;
    by_stamp.reserve(entries.size());
    for (auto& [key, slot] : entries) {
      const std::uint64_t size = slot.entry.page_size;
      if (key.large ? size != kPageSizes[1] && size != kPageSizes[2]
                    : size != kPageSize) {
        ar.Fail(Status::kBadParameter);
      }
      ++counts[key.large];
      slot.key = key;
      by_stamp.push_back(slot);
    }
    if (counts[0] != count_4k || counts[1] != count_large ||
        count_4k > classes_[0].capacity ||
        count_large > classes_[1].capacity) {
      ar.Fail(Status::kBadParameter);
    }
    if (!ar.ok()) {
      return;
    }
    // Appending in stamp order rebuilds each class's recency list, so the
    // victims after a restore are the ones the saved TLB would pick.
    std::stable_sort(by_stamp.begin(), by_stamp.end(),
                     [](const Slot& a, const Slot& b) { return a.lru < b.lru; });
    for (const Slot& saved : by_stamp) {
      const std::uint32_t s = Allocate(saved.key);
      slots_[s].entry = saved.entry;
      slots_[s].lru = saved.lru;
    }
  }
}

Status Tlb::SaveState(sim::SnapWriter& w) const { return w.Save(*this); }
Status Tlb::LoadState(sim::SnapReader& r) { return r.Restore(*this); }

}  // namespace nova::hw
