// The memory space and I/O port space of a protection domain.
//
// A protection domain's memory space is backed by a real host page table:
// for user domains it maps (identity) host-virtual to host-physical
// frames; for virtual machines it is the nested page table translating
// guest-physical to host-physical (§5.3).
#ifndef SRC_HV_SPACES_H_
#define SRC_HV_SPACES_H_

#include <bitset>
#include <cstdint>
#include <functional>

#include "src/hw/paging.h"
#include "src/hw/phys_mem.h"
#include "src/hv/types.h"
#include "src/sim/hash_index.h"
#include "src/sim/snapshot.h"
#include "src/sim/status.h"

namespace nova::hv {

class MemSpace {
 public:
  MemSpace(hw::PhysMem* mem, hw::PagingMode mode, hw::PhysAddr root,
           hw::PageTable::FrameAllocator alloc)
      : table_(mem, mode, root), alloc_(std::move(alloc)) {}

  hw::PageTable& table() { return table_; }
  hw::PhysAddr root() const { return table_.root(); }

  // Map `count` pages starting at page index `page` (address = page<<12)
  // to host frames starting at `hpa_page`, with CRD memory rights. When
  // `large` is set, the range must be superpage-aligned and sized; the
  // host table then uses superpage leaves.
  Status Map(std::uint64_t page, std::uint64_t hpa_page, std::uint64_t count,
             std::uint8_t perms, bool large);
  Status Unmap(std::uint64_t page, std::uint64_t count);

  // Rights bookkeeping for delegation checks: the perms under which
  // `page` is held, or 0.
  std::uint8_t PermsFor(std::uint64_t page) const;
  // Host frame backing `page`, or ~0 when unmapped.
  std::uint64_t HpaPageFor(std::uint64_t page) const;

  std::size_t mapped_pages() const { return pages_.size(); }

  // Visit every mapped page in ascending page order (deterministic: used
  // by the migration driver to enumerate guest frames and by dirty-log
  // collection).
  using MappingVisitor = std::function<void(
      std::uint64_t page, std::uint64_t hpa_page, std::uint8_t perms, bool large)>;
  void ForEachMapping(const MappingVisitor& visit) const;

  // Bookkeeping-only serialization: the radix tree itself lives in PhysMem
  // frames and rides the memory section of the snapshot.
  Status SaveState(sim::SnapWriter& w) const;
  Status LoadState(sim::SnapReader& r);
  template <class Ar>
  void Io(Ar& ar);

 private:
  struct Holding {
    std::uint64_t hpa_page;
    std::uint8_t perms;
    bool large;  // Part of a superpage mapping.
    template <class Ar>
    void Io(Ar& ar) {
      ar.Io(hpa_page, perms, large);
    }
  };

  hw::PageTable table_;
  hw::PageTable::FrameAllocator alloc_;
  sim::HashIndex<std::uint64_t, Holding> pages_;
};

class IoSpace {
 public:
  void Grant(std::uint64_t port, std::uint64_t count);
  void Revoke(std::uint64_t port, std::uint64_t count);
  bool Test(std::uint16_t port) const { return bitmap_.test(port); }
  const std::bitset<65536>& bitmap() const { return bitmap_; }
  std::size_t granted() const { return bitmap_.count(); }

  Status SaveState(sim::SnapWriter& w) const;
  Status LoadState(sim::SnapReader& r);
  template <class Ar>
  void Io(Ar& ar);

 private:
  std::bitset<65536> bitmap_;
};

}  // namespace nova::hv

#endif  // SRC_HV_SPACES_H_
