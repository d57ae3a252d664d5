#include "src/guest/guest_pt.h"

namespace nova::guest {

Status GuestPageTableBuilder::Map(std::uint64_t root_gpa, std::uint64_t gva,
                                  std::uint64_t gpa, std::uint64_t page_size,
                                  std::uint64_t flags) {
  // Table frames come from the builder's bump pool, in guest RAM.
  const auto alloc = [this] {
    const std::uint64_t table_gpa = pool_next_;
    pool_next_ += hw::kPageSize;
    return table_gpa;
  };
  return hw::PageTable(mem_, hw::PagingMode::kTwoLevel, root_gpa)
      .Map(gva, gpa, page_size, flags, alloc, gpa_to_hpa_);
}

std::uint64_t GuestPageTableBuilder::LeafEntryGpa(std::uint64_t root_gpa,
                                                  std::uint64_t gva) const {
  const hw::WalkResult w = hw::PageTable(mem_, hw::PagingMode::kTwoLevel, root_gpa)
                               .Walk(gva, hw::Access{}, /*set_ad=*/false, gpa_to_hpa_);
  return Ok(w.status) ? w.pte_addr : 0;
}

}  // namespace nova::guest
