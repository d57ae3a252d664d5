#include "src/root/root_pm.h"

#include <algorithm>

namespace nova::root {

RootPartitionManager::RootPartitionManager(hv::Hypervisor* hv)
    : hv_(hv), pd_(hv->root_pd()) {
  alloc_next_page_ = hv_->kernel_reserve() >> hw::kPageShift;
  alloc_end_page_ = hv_->machine().mem().size() >> hw::kPageShift;
}

std::uint64_t RootPartitionManager::AllocPages(std::uint64_t pages,
                                               std::uint64_t align_pages) {
  std::uint64_t start = alloc_next_page_;
  if (align_pages > 1) {
    start = (start + align_pages - 1) / align_pages * align_pages;
  }
  if (start + pages > alloc_end_page_) {
    return 0;
  }
  alloc_next_page_ = start + pages;
  return start;
}

hv::CapSel RootPartitionManager::CreatePd(const std::string& name, bool is_vm,
                                          hv::Pd** out,
                                          std::uint64_t quota_frames) {
  const hv::CapSel sel = FreeSel();
  if (sel == hv::kInvalidSel) {
    return hv::kInvalidSel;
  }
  if (!Ok(hv_->CreatePd(pd_, sel, name, is_vm, out, quota_frames))) {
    return hv::kInvalidSel;
  }
  return sel;
}

bool RootPartitionManager::DelegateRange(hv::CapSel pd_sel, std::uint64_t src,
                                         std::uint64_t dst, std::uint64_t pages,
                                         std::uint8_t perms, bool large) {
  const std::uint64_t large_pages =
      hw::LargePageSize(hv_->machine().cpu(0).model().host_paging) / hw::kPageSize;
  std::uint64_t remaining = pages;
  while (remaining > 0) {
    std::uint8_t order = 0;
    while ((2ull << order) <= remaining && (src & ((2ull << order) - 1)) == 0 &&
           (dst & ((2ull << order) - 1)) == 0) {
      ++order;
    }
    const std::uint64_t chunk = 1ull << order;
    const bool chunk_large = large && chunk % large_pages == 0;
    if (!Ok(hv_->Delegate(pd_, pd_sel, hv::Crd::Mem(src, order, perms), dst, 0xff,
                          chunk_large))) {
      return false;
    }
    src += chunk;
    dst += chunk;
    remaining -= chunk;
  }
  return true;
}

std::uint64_t RootPartitionManager::GrantMemory(hv::CapSel pd_sel,
                                                std::uint64_t pages,
                                                std::uint64_t hotspot_page,
                                                std::uint8_t perms, bool large,
                                                bool align_pow2) {
  const std::uint64_t large_pages =
      hw::LargePageSize(hv_->machine().cpu(0).model().host_paging) / hw::kPageSize;
  std::uint64_t align = large ? large_pages : 1;
  if (align_pow2) {
    std::uint64_t pow2 = 1;
    while (pow2 < pages) {
      pow2 <<= 1;
    }
    align = std::max(align, pow2);
  }
  const std::uint64_t first = AllocPages(pages, align);
  if (first == 0) {
    return 0;
  }
  const std::uint64_t dst = hotspot_page == ~0ull ? first : hotspot_page;
  return DelegateRange(pd_sel, first, dst, pages, perms, large) ? first : 0;
}

std::uint64_t RootPartitionManager::GrantMemoryAt(hv::CapSel pd_sel,
                                                  std::uint64_t first_page,
                                                  std::uint64_t pages,
                                                  std::uint8_t perms, bool large) {
  return DelegateRange(pd_sel, first_page, first_page, pages, perms, large)
             ? first_page
             : 0;
}

Status RootPartitionManager::RegisterDevice(const std::string& name,
                                            const DeviceInfo& info) {
  if (info.mmio_size > 0) {
    const Status s = hv_->GrantDeviceWindow(info.mmio_base, info.mmio_size);
    if (!Ok(s)) {
      return s;
    }
  }
  devices_[name] = info;
  return Status::kSuccess;
}

const DeviceInfo* RootPartitionManager::FindDevice(const std::string& name) const {
  auto it = devices_.find(name);
  return it == devices_.end() ? nullptr : &it->second;
}

Status RootPartitionManager::AssignDevice(hv::CapSel pd_sel, const std::string& name,
                                          std::uint64_t mmio_hotspot_page) {
  const DeviceInfo* dev = FindDevice(name);
  if (dev == nullptr) {
    return Status::kBadDevice;
  }
  if (dev->mmio_size > 0) {
    const std::uint64_t pages = hw::PageAlignUp(dev->mmio_size) >> hw::kPageShift;
    const std::uint64_t base_page = dev->mmio_base >> hw::kPageShift;
    const std::uint64_t hotspot =
        mmio_hotspot_page == ~0ull ? base_page : mmio_hotspot_page;
    std::uint8_t order = 0;
    while ((1ull << order) < pages) {
      ++order;
    }
    const Status s = hv_->Delegate(pd_, pd_sel, hv::Crd::Mem(base_page, order, hv::perm::kRw),
                                   hotspot);
    if (!Ok(s)) {
      return s;
    }
  }
  if (dev->pio_count > 0) {
    std::uint8_t order = 0;
    while ((1ull << order) < dev->pio_count) {
      ++order;
    }
    const Status s =
        hv_->Delegate(pd_, pd_sel, hv::Crd::Io(dev->pio_base, order), dev->pio_base);
    if (!Ok(s)) {
      return s;
    }
  }
  return hv_->AssignDev(pd_, pd_sel, dev->id, dev->gsi);
}

Status RootPartitionManager::BindInterrupt(hv::CapSel pd_sel,
                                           const std::string& dev_name,
                                           hv::CapSel sm_sel_in_target,
                                           std::uint32_t cpu) {
  const DeviceInfo* dev = FindDevice(dev_name);
  if (dev == nullptr || dev->gsi == ~0u) {
    return Status::kBadDevice;
  }
  const hv::CapSel sm_sel = FreeSel();
  Status s = hv_->CreateSm(pd_, sm_sel, 0);
  if (!Ok(s)) {
    return s;
  }
  s = hv_->AssignGsi(pd_, sm_sel, dev->gsi, cpu);
  if (!Ok(s)) {
    return s;
  }
  return hv_->Delegate(pd_, pd_sel,
                       hv::Crd::Obj(sm_sel, 0,
                                    hv::perm::kSmDown | hv::perm::kSmUp |
                                        hv::perm::kDelegate),
                       sm_sel_in_target);
}

}  // namespace nova::root
