// Root partition manager (§6).
//
// The first protection domain. It receives capabilities for all memory,
// I/O ports and interrupts at boot and performs the initial resource
// allocation decisions: carving out RAM regions for virtual machines and
// services, assigning devices to driver domains, and wiring interrupt
// semaphores. Like any protection domain it works purely through the
// hypercall interface — the hypervisor itself contains no allocation
// policy.
#ifndef SRC_ROOT_ROOT_PM_H_
#define SRC_ROOT_ROOT_PM_H_

#include <cstdint>
#include <map>
#include <string>

#include "src/hv/kernel.h"

namespace nova::root {

// A platform device as the root PM sees it.
struct DeviceInfo {
  hw::DeviceId id = 0;
  hw::PhysAddr mmio_base = 0;
  std::uint64_t mmio_size = 0;
  std::uint16_t pio_base = 0;
  std::uint16_t pio_count = 0;
  std::uint32_t gsi = ~0u;
};

class RootPartitionManager {
 public:
  explicit RootPartitionManager(hv::Hypervisor* hv);

  hv::Pd* pd() { return pd_; }
  hv::Hypervisor& hv() { return *hv_; }

  // --- Memory policy ----------------------------------------------------
  // Allocate `pages` contiguous page frames from the root's RAM grant
  // (first-fit bump with alignment). Returns the first page frame number,
  // or 0 on exhaustion.
  std::uint64_t AllocPages(std::uint64_t pages, std::uint64_t align_pages = 1);

  // Create a child protection domain; the returned selector (in the root's
  // capability space) carries the control capability. `quota_frames`
  // bounds the child's kernel-memory account (donated from root's own
  // account, returned on destroy); the default leaves it pass-through.
  hv::CapSel CreatePd(const std::string& name, bool is_vm, hv::Pd** out = nullptr,
                      std::uint64_t quota_frames = hv::KmemQuota::kUnlimited);

  // Grant `pages` frames at `hotspot_page` in `pd_sel`'s space (~0 keeps
  // the identity address); allocates the backing frames. `align_pow2`
  // forces power-of-two alignment so the grant lands in a single mapping-
  // database node (important for domains that sub-delegate, like VMMs).
  // Returns the first frame number.
  std::uint64_t GrantMemory(hv::CapSel pd_sel, std::uint64_t pages,
                            std::uint64_t hotspot_page, std::uint8_t perms,
                            bool large = false, bool align_pow2 = false);

  // Re-grant an already-allocated range at its identity address, without
  // allocating. Used when restarting a crashed VMM over the surviving guest
  // RAM: the root still owns the frames after the old domain's teardown.
  std::uint64_t GrantMemoryAt(hv::CapSel pd_sel, std::uint64_t first_page,
                              std::uint64_t pages, std::uint8_t perms,
                              bool large = false);

  // --- Device policy ----------------------------------------------------
  // Grants the device's MMIO window to the root and records the device;
  // a refused window records nothing.
  Status RegisterDevice(const std::string& name, const DeviceInfo& info);
  const DeviceInfo* FindDevice(const std::string& name) const;

  // Assign a device to a domain: delegates its MMIO window and ports and
  // attaches its DMA context to the domain's page table.
  // `mmio_hotspot_page` picks where the window appears in the domain's
  // space (guest-physical address for VMs); ~0 keeps the identity address.
  Status AssignDevice(hv::CapSel pd_sel, const std::string& name,
                      std::uint64_t mmio_hotspot_page = ~0ull);

  // Bind a device's interrupt to a semaphore held by a driver domain: the
  // root creates the semaphore, delegates it, and assigns the GSI.
  Status BindInterrupt(hv::CapSel pd_sel, const std::string& dev_name,
                       hv::CapSel sm_sel_in_target, std::uint32_t cpu);

  // Free selector in the root's capability space.
  hv::CapSel FreeSel() { return pd_->caps().FindFree(hv::kSelFirstFree); }

  // The allocation cursor is the only mutable policy state; the RAM grant
  // bounds and device registry are construction-time and only verified.
  Status SaveState(sim::SnapWriter& w) const { return w.Save(*this); }
  Status LoadState(sim::SnapReader& r) { return r.Restore(*this); }
  template <class Ar>
  void Io(Ar& ar) {
    ar.Io(alloc_next_page_);
    ar.Verify(alloc_end_page_);
    ar.Verify(static_cast<std::uint32_t>(devices_.size()));
  }

 private:
  // Delegates `pages` frames from `src` to `dst` in `pd_sel`'s space in
  // power-of-two chunks (CRDs describe 2^order units); false on a refusal.
  bool DelegateRange(hv::CapSel pd_sel, std::uint64_t src, std::uint64_t dst,
                     std::uint64_t pages, std::uint8_t perms, bool large);

  hv::Hypervisor* hv_;
  hv::Pd* pd_;
  std::uint64_t alloc_next_page_;
  std::uint64_t alloc_end_page_;
  std::map<std::string, DeviceInfo> devices_;
};

}  // namespace nova::root

#endif  // SRC_ROOT_ROOT_PM_H_
