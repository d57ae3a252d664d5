#include "src/hv/dirty_log.h"

#include <algorithm>
#include <bit>

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
  // lazily-mapped pages and filters frames owned by other domains. Each run
  // backs its pages with consecutive frames, so its pages are the set bits
  // of one bitmap range.
  const std::uint64_t tracked = dirty_frames_.size() * 64;
  for (const auto& [first, run] : vm_->mem_space().runs()) {
    // Device windows map frames beyond installed RAM: never dirty here.
    const std::uint64_t lo = run.hpa_page;
    const std::uint64_t hi = std::min(run.hpa_page + run.count, tracked);
    for (std::uint64_t f = lo; f < hi;) {
      const std::uint64_t bits = dirty_frames_[f / 64] >> (f % 64);
      if (bits == 0) {
        f = (f / 64 + 1) * 64;  // The rest of this word is clean.
        continue;
      }
      f += static_cast<std::uint64_t>(std::countr_zero(bits));
      if (f >= hi) {
        break;
      }
      out->push_back(first + (f - lo));
      ++f;
    }
  }
  std::fill(dirty_frames_.begin(), dirty_frames_.end(), 0);
}

}  // namespace nova::hv
