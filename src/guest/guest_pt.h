// Guest page-table construction.
//
// Guest operating systems build real two-level 32-bit page tables inside
// their own guest-physical memory: every entry holds a guest-physical
// address. Because the builder runs host-side (it plays the role of the
// guest kernel's early boot code), it writes through a GPA->HPA mapping
// function instead of going through the MMU.
#ifndef SRC_GUEST_GUEST_PT_H_
#define SRC_GUEST_GUEST_PT_H_

#include <cstdint>
#include <functional>

#include "src/hw/paging.h"
#include "src/hw/phys_mem.h"
#include "src/sim/status.h"

namespace nova::guest {

class GuestPageTableBuilder {
 public:
  // `gpa_to_hpa` converts guest-physical to host-physical addresses (for a
  // contiguously delegated guest this is a fixed offset).
  // Frames for intermediate tables are taken from a bump pool starting at
  // `frame_pool_gpa`.
  GuestPageTableBuilder(hw::PhysMem* mem,
                        std::function<std::uint64_t(std::uint64_t)> gpa_to_hpa,
                        std::uint64_t frame_pool_gpa)
      : mem_(mem), gpa_to_hpa_(std::move(gpa_to_hpa)), pool_next_(frame_pool_gpa) {}

  // Map gva -> gpa in the table rooted at guest-physical `root_gpa`
  // (hw::PageTable::Map over `gpa_to_hpa`). `page_size` is 4 KiB or 4 MiB.
  // Flags are PTE bits (kWritable etc.).
  Status Map(std::uint64_t root_gpa, std::uint64_t gva, std::uint64_t gpa,
             std::uint64_t page_size, std::uint64_t flags);

  // Guest-physical address of the leaf entry covering `gva` (for guests
  // that edit their own tables), or 0 when unmapped.
  std::uint64_t LeafEntryGpa(std::uint64_t root_gpa, std::uint64_t gva) const;

  std::uint64_t pool_next() const { return pool_next_; }
  // The pool cursor is the builder's only mutable state — table frame
  // *contents* live in guest RAM and ride the memory image.
  template <class Ar>
  void Io(Ar& ar) {
    ar.Io(pool_next_);
  }

 private:
  hw::PhysMem* mem_;
  std::function<std::uint64_t(std::uint64_t)> gpa_to_hpa_;
  std::uint64_t pool_next_;
};

}  // namespace nova::guest

#endif  // SRC_GUEST_GUEST_PT_H_
