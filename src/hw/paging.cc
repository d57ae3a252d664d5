#include "src/hw/paging.h"

namespace nova::hw {

WalkResult PageTable::Walk(VirtAddr va, Access access, bool set_ad) const {
  return Walk(va, access, set_ad, Identity{});
}

Status PageTable::Map(VirtAddr va, PhysAddr pa, std::uint64_t page_size,
                      std::uint64_t flags, const FrameAllocator& alloc) {
  return Map(va, pa, page_size, flags, [&alloc] { return alloc ? alloc() : 0; },
             Identity{});
}

Status PageTable::Unmap(VirtAddr va) {
  PhysAddr table = root_;
  for (int level = Levels(mode_) - 1; level >= 0; --level) {
    const PhysAddr entry_addr = EntryAddr(table, va, level);
    const std::uint64_t entry = ReadEntry(entry_addr);
    if (!(entry & pte::kPresent)) {
      return Status::kSuccess;
    }
    if (IsLeaf(level, entry)) {
      WriteEntry(entry_addr, 0);
      return Status::kSuccess;
    }
    table = entry & pte::kAddrMask;
  }
  return Status::kSuccess;
}

void PageTable::FreeLevel(PhysAddr table, int level,
                          const FrameReleaser& free_frame) {
  if (level > 0) {
    const std::uint64_t entries = 1ull << IndexBits();
    for (std::uint64_t index = 0; index < entries; ++index) {
      const std::uint64_t entry = ReadEntry(table + index * EntrySize());
      if (!(entry & pte::kPresent) || IsLeaf(level, entry)) {
        continue;  // Nothing below, or a superpage leaf: no table below.
      }
      FreeLevel(entry & pte::kAddrMask, level - 1, free_frame);
    }
  }
  free_frame(table);
}

void PageTable::FreeTables(const FrameReleaser& free_frame) {
  FreeLevel(root_, Levels(mode_) - 1, free_frame);
}

}  // namespace nova::hw
