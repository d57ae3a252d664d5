#include "src/hv/dirty_log.h"

#include "src/hv/kernel.h"

namespace nova::hv {

void DirtyLog::Arm() {
  dirty_frames_.clear();
  // Record the host frames every successful write touches. A single
  // observer slot exists per machine; arming claims it.
  hv_->machine().mem().set_write_observer(
      [this](hw::PhysAddr addr, std::uint64_t len) {
        const std::uint64_t first = hw::FrameOf(addr);
        const std::uint64_t last = hw::FrameOf(addr + len - 1);
        for (std::uint64_t f = first; f <= last; ++f) {
          dirty_frames_.insert(f);
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
        if (dirty_frames_.count(hpa_page) != 0) {
          out->push_back(page);
        }
      });
  dirty_frames_.clear();
}

}  // namespace nova::hv
