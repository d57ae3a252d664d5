#include "src/hv/dirty_log.h"

#include <algorithm>

#include "src/hv/kernel.h"

namespace nova::hv {

void DirtyLog::Arm() {
  hw::PhysMem& mem = hv_->machine().mem();
  dirty_frames_.assign((hw::FrameOf(hw::PageAlignUp(mem.size())) + 63) / 64, 0);
  // Record the host frames every successful write touches; the write path
  // has already checked the range against installed RAM. A single observer
  // slot exists per machine; arming claims it.
  mem.set_write_observer([this](hw::PhysAddr addr, std::uint64_t len) {
    const std::uint64_t first = hw::FrameOf(addr);
    const std::uint64_t last = hw::FrameOf(addr + len - 1);
    for (std::uint64_t f = first; f <= last; ++f) {
      dirty_frames_[f / 64] |= 1ull << (f % 64);
    }
  });
  armed_ = true;
}

void DirtyLog::Disarm() {
  if (!armed_) {
    return;
  }
  hv_->machine().mem().set_write_observer(nullptr);
  armed_ = false;
}

void DirtyLog::CollectAndReset(std::vector<std::uint64_t>* out) {
  // Intersect dirty host frames with the VM's guest mappings: catches
  // lazily-mapped pages and filters frames owned by other domains.
  vm_->mem_space().ForEachMapping(
      [this, out](std::uint64_t page, std::uint64_t hpa_page, std::uint8_t perms,
                  bool large) {
        (void)perms;
        (void)large;
        // Device windows map frames beyond installed RAM: never dirty here.
        if (hpa_page / 64 < dirty_frames_.size() &&
            (dirty_frames_[hpa_page / 64] >> (hpa_page % 64) & 1) != 0) {
          out->push_back(page);
        }
      });
  std::fill(dirty_frames_.begin(), dirty_frames_.end(), 0);
}

}  // namespace nova::hv
