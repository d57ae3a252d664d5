// Page-table formats and walkers.
//
// Two real radix-tree formats are implemented, mirroring the hardware the
// paper evaluates on:
//   kTwoLevel  — legacy 32-bit x86: 1024 x 4-byte entries per table,
//                4 KiB pages and 4 MiB superpages (AMD host tables and all
//                guest page tables in this reproduction).
//   kFourLevel — x86-64 style: 512 x 8-byte entries, 4 KiB pages and 2 MiB
//                superpages (Intel EPT host tables).
//
// Tables live in simulated physical memory; walks dereference real entries,
// set real accessed/dirty bits, and report how many memory accesses they
// performed so callers can charge cycles.
#ifndef SRC_HW_PAGING_H_
#define SRC_HW_PAGING_H_

#include <cstdint>
#include <functional>

#include "src/hw/cpu_model.h"
#include "src/hw/phys_mem.h"
#include "src/sim/status.h"

namespace nova::hw {

using VirtAddr = std::uint64_t;

// Common PTE layout (both formats use the same bit assignment; the
// two-level format simply truncates to 32 bits on store).
namespace pte {
constexpr std::uint64_t kPresent = 1ull << 0;
constexpr std::uint64_t kWritable = 1ull << 1;
constexpr std::uint64_t kUser = 1ull << 2;
constexpr std::uint64_t kAccessed = 1ull << 5;
constexpr std::uint64_t kDirty = 1ull << 6;
constexpr std::uint64_t kLarge = 1ull << 7;   // Superpage leaf.
constexpr std::uint64_t kGlobal = 1ull << 8;
constexpr std::uint64_t kAddrMask = ~0xfffull;
}  // namespace pte

// Access permissions requested by a translation. All four bytes are
// members with initialisers, so a constant Access is one 32-bit immediate
// (`Access{.write = true}` is 0x1 in the argument register). GCC builds a
// three-byte Access in a stack slot with a 2-byte and a 1-byte store and
// reloads it as 4 bytes, a store-to-load forward that fails and stalls
// every guest fetch, load and store (DESIGN.md §5).
struct Access {
  bool write = false;
  bool user = false;      // Access from guest user mode (CPL 3).
  bool execute = false;
  std::uint8_t reserved = 0;  // Always zero: fills the fourth byte.
};
static_assert(sizeof(Access) == 4, "Access must fit one 32-bit register");

// Page-fault style error codes, modelled after the x86 #PF error word.
struct PageFaultInfo {
  bool present = false;   // Fault caused by a protection violation (true)
                          // or a non-present entry (false).
  bool write = false;
  bool user = false;
};

// What a table-address resolver returns for an address nothing backs
// (Vmm::GpaToHpa and the VMM's emulator use the same value for "not guest
// RAM").
constexpr PhysAddr kNoHpa = ~0ull;

struct WalkResult {
  Status status = Status::kSuccess;  // kMemoryFault on a miss/violation.
  PhysAddr pa = 0;                   // Final physical address.
  std::uint64_t page_size = 0;       // 4K / 2M / 4M mapping granularity.
  std::uint64_t pte = 0;             // Leaf entry as stored.
  PhysAddr pte_addr = 0;             // Where the last entry read lives, in
                                     // the table's address space; on a
                                     // table fault, the unresolved address.
  int accesses = 0;                  // Memory accesses the walk performed.
  bool table_fault = false;          // A table entry did not resolve.
  PageFaultInfo fault;               // Valid on a failed, non-table-fault walk.

  // Leaf permission and status bits (valid on a successful walk).
  bool writable() const { return (pte & pte::kWritable) != 0; }
  bool user() const { return (pte & pte::kUser) != 0; }
  bool dirty() const { return (pte & pte::kDirty) != 0; }
  bool global() const { return (pte & pte::kGlobal) != 0; }
};

// Page size helpers per mode.
constexpr std::uint64_t LargePageSize(PagingMode mode) {
  return mode == PagingMode::kTwoLevel ? (4ull << 20) : (2ull << 20);
}
constexpr int Levels(PagingMode mode) {
  return mode == PagingMode::kTwoLevel ? 2 : 4;
}

// A page table rooted at `root`, and the simulator's only reader of
// page-table entry bits: the engine's walks, the vTLB, the VMM's emulator
// and the guest loader all walk and build tables through it.
//
// The root and the table addresses entries hold live in the table's own
// address space. A resolver maps each entry's address to the host-physical
// address that stores it, or to kNoHpa when nothing backs it (the walk
// then ends with table_fault set). Host, shadow and IOMMU tables use the
// identity; guest tables resolve guest-physical addresses, and a resolver
// may charge cycles for doing so.
class PageTable {
 public:
  // Allocate a zeroed physical frame for an intermediate table; returns the
  // frame's physical address, or 0 on exhaustion.
  using FrameAllocator = std::function<PhysAddr()>;
  using FrameReleaser = std::function<void(PhysAddr)>;

  // Resolver for tables addressed host-physically.
  struct Identity {
    PhysAddr operator()(PhysAddr addr) const { return addr; }
  };

  PageTable(PhysMem* mem, PagingMode mode, PhysAddr root)
      : mem_(mem), mode_(mode), root_(root) {}

  PhysAddr root() const { return root_; }
  PagingMode mode() const { return mode_; }

  // Translate `va` for `access`. When `set_ad` is true, accessed/dirty bits
  // are written back to the in-memory entries like a hardware walker would.
  // Without `resolve`, table addresses are host-physical (Identity).
  WalkResult Walk(VirtAddr va, Access access, bool set_ad) const;
  template <class Resolve>
  WalkResult Walk(VirtAddr va, Access access, bool set_ad, Resolve&& resolve) const;

  // Install a mapping. `page_size` must be kPageSize or LargePageSize(mode),
  // and va/pa must be aligned to it. Intermediate tables are allocated via
  // `alloc` (0 = exhausted: kOverflow). Replaces any existing mapping at
  // that slot. kMemoryFault when a table address does not resolve.
  Status Map(VirtAddr va, PhysAddr pa, std::uint64_t page_size,
             std::uint64_t flags, const FrameAllocator& alloc);
  template <class Alloc, class Resolve>
  Status Map(VirtAddr va, PhysAddr pa, std::uint64_t page_size,
             std::uint64_t flags, Alloc&& alloc, Resolve&& resolve);

  // Remove the mapping covering `va` (any size). Returns kSuccess even when
  // nothing was mapped.
  Status Unmap(VirtAddr va);

  // Tear down the radix tree: release every intermediate table frame (and
  // the root itself, last) through `free_frame`, children before their
  // parent. Leaf pages are the owner's problem — only paging-structure
  // frames are returned. The table must not be used afterwards.
  void FreeTables(const FrameReleaser& free_frame);

 private:
  void FreeLevel(PhysAddr table, int level, const FrameReleaser& free_frame);

  int IndexBits() const { return mode_ == PagingMode::kTwoLevel ? 10 : 9; }
  std::uint64_t EntrySize() const { return mode_ == PagingMode::kTwoLevel ? 4 : 8; }
  // Address of the entry for `va` in `table`; level counts down to 0 (leaf).
  PhysAddr EntryAddr(PhysAddr table, VirtAddr va, int level) const {
    const int shift = 12 + IndexBits() * level;
    return table + ((va >> shift) & ((1ull << IndexBits()) - 1)) * EntrySize();
  }
  static bool IsLeaf(int level, std::uint64_t entry) {
    return level == 0 || (level == 1 && (entry & pte::kLarge) != 0);
  }
  std::uint64_t ReadEntry(PhysAddr hpa) const {
    return EntrySize() == 4 ? mem_->Read32(hpa) : mem_->Read64(hpa);
  }
  void WriteEntry(PhysAddr hpa, std::uint64_t entry) const {
    if (EntrySize() == 4) {
      (void)mem_->Write32(hpa, static_cast<std::uint32_t>(entry));
    } else {
      (void)mem_->Write64(hpa, entry);
    }
  }

  PhysMem* mem_;
  PagingMode mode_;
  PhysAddr root_;
};

template <class Resolve>
WalkResult PageTable::Walk(VirtAddr va, Access access, bool set_ad,
                           Resolve&& resolve) const {
  WalkResult r;
  PhysAddr table = root_;
  for (int level = Levels(mode_) - 1; level >= 0; --level) {
    r.pte_addr = EntryAddr(table, va, level);
    const PhysAddr entry_hpa = resolve(r.pte_addr);
    if (entry_hpa == kNoHpa) {
      r.status = Status::kMemoryFault;
      r.table_fault = true;
      return r;
    }
    std::uint64_t entry = ReadEntry(entry_hpa);
    ++r.accesses;

    if (!(entry & pte::kPresent) || (access.user && !(entry & pte::kUser)) ||
        (access.write && !(entry & pte::kWritable))) {
      r.status = Status::kMemoryFault;
      r.fault = {.present = (entry & pte::kPresent) != 0,
                 .write = access.write,
                 .user = access.user};
      return r;
    }

    const bool leaf = IsLeaf(level, entry);
    if (set_ad) {
      std::uint64_t updated = entry | pte::kAccessed;
      if (leaf && access.write) {
        updated |= pte::kDirty;
      }
      if (updated != entry) {
        WriteEntry(entry_hpa, updated);
        entry = updated;
        ++r.accesses;
      }
    }

    if (leaf) {
      const std::uint64_t page_size = level == 0 ? kPageSize : LargePageSize(mode_);
      r.pa = (entry & pte::kAddrMask & ~(page_size - 1)) | (va & (page_size - 1));
      r.page_size = page_size;
      r.pte = entry;
      return r;
    }
    table = entry & pte::kAddrMask;
  }
  r.status = Status::kMemoryFault;  // Unreachable: loop always hits a leaf.
  return r;
}

template <class Alloc, class Resolve>
Status PageTable::Map(VirtAddr va, PhysAddr pa, std::uint64_t page_size,
                      std::uint64_t flags, Alloc&& alloc, Resolve&& resolve) {
  const bool large = page_size == LargePageSize(mode_);
  if (!large && page_size != kPageSize) {
    return Status::kBadParameter;
  }
  if ((va & (page_size - 1)) != 0 || (pa & (page_size - 1)) != 0) {
    return Status::kBadParameter;
  }

  const int leaf_level = large ? 1 : 0;
  PhysAddr table = root_;
  for (int level = Levels(mode_) - 1;; --level) {
    const PhysAddr entry_hpa = resolve(EntryAddr(table, va, level));
    if (entry_hpa == kNoHpa) {
      return Status::kMemoryFault;
    }
    if (level == leaf_level) {
      WriteEntry(entry_hpa, (pa & pte::kAddrMask) | (flags & ~pte::kAddrMask) |
                                pte::kPresent | (large ? pte::kLarge : 0));
      return Status::kSuccess;
    }
    std::uint64_t entry = ReadEntry(entry_hpa);
    if (!(entry & pte::kPresent)) {
      const PhysAddr fresh = alloc();
      if (fresh == 0) {
        return Status::kOverflow;
      }
      const PhysAddr fresh_hpa = resolve(fresh);
      if (fresh_hpa == kNoHpa) {
        return Status::kMemoryFault;
      }
      (void)mem_->Zero(fresh_hpa, kPageSize);
      entry = (fresh & pte::kAddrMask) | pte::kPresent | pte::kWritable | pte::kUser;
      WriteEntry(entry_hpa, entry);
    } else if (level == 1 && (entry & pte::kLarge)) {
      return Status::kBusy;  // A superpage already covers this range.
    }
    table = entry & pte::kAddrMask;
  }
}

}  // namespace nova::hw

#endif  // SRC_HW_PAGING_H_
