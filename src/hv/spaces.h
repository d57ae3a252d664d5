// The memory space and I/O port space of a protection domain.
//
// A protection domain's memory space is backed by a real host page table:
// for user domains it maps (identity) host-virtual to host-physical
// frames; for virtual machines it is the nested page table translating
// guest-physical to host-physical (§5.3).
#ifndef SRC_HV_SPACES_H_
#define SRC_HV_SPACES_H_

#include <cstdint>
#include <map>

#include "src/hw/guest_state.h"
#include "src/hw/paging.h"
#include "src/hw/phys_mem.h"
#include "src/hv/types.h"
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

  // A maximal run of pages held alike: `count` pages from the run's first
  // page onward, backed by consecutive host frames from `hpa_page`, all
  // with the same perms and the same `large` (part of a superpage
  // mapping). Neighbouring runs differ in one of these or leave a gap.
  struct Run {
    std::uint64_t count;
    std::uint64_t hpa_page;
    std::uint8_t perms;
    bool large;
  };

  using Runs = std::map<std::uint64_t, Run>;  // Keyed by first page.

  // The runs in ascending page order (deterministic: dirty-log collection
  // walks guest frames this way).
  const Runs& runs() const { return runs_; }

  // Bookkeeping-only serialization: the radix tree itself lives in PhysMem
  // frames and rides the memory section of the snapshot.
  Status SaveState(sim::SnapWriter& w) const;
  Status LoadState(sim::SnapReader& r);
  template <class Ar>
  void Io(Ar& ar);

 private:
  // The run holding `page`, or runs_.end().
  Runs::const_iterator RunHolding(std::uint64_t page) const;
  // Undo a Map that failed after installing `count` pages from `page`:
  // each page the runs hold gets its frame and perms back (a superpage
  // once), into the entry the map overwrote, so no table frame is needed;
  // the table drops the other pages. One case cannot go back: a superpage
  // leaf laid over a block of 4 KiB pages replaced their table, a new one
  // needs the frame the map failed to get, and so those pages leave the
  // runs as they left the table.
  void Restore(std::uint64_t page, std::uint64_t count, bool large);
  // Remove pages [lo, hi) from the runs, splitting the runs that straddle
  // either end.
  void Cut(std::uint64_t lo, std::uint64_t hi);
  // Put `run` at `first` into a gap, merged with each neighbour it
  // continues, so every run stays maximal.
  void Place(std::uint64_t first, const Run& run);

  hw::PageTable table_;
  hw::PageTable::FrameAllocator alloc_;
  Runs runs_;
};

class IoSpace {
 public:
  void Grant(std::uint64_t port, std::uint64_t count);
  void Revoke(std::uint64_t port, std::uint64_t count);
  bool Test(std::uint16_t port) const { return ports_.Test(port); }
  const hw::PortBitmap& bitmap() const { return ports_; }

  Status SaveState(sim::SnapWriter& w) const;
  Status LoadState(sim::SnapReader& r);
  template <class Ar>
  void Io(Ar& ar);

 private:
  hw::PortBitmap ports_;
};

}  // namespace nova::hv

#endif  // SRC_HV_SPACES_H_
