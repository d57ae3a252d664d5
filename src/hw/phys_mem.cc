#include "src/hw/phys_mem.h"

#include <algorithm>

namespace nova::hw {

PhysMem::Frame* PhysMem::FrameFor(std::uint64_t frame_no) const {
  const std::unique_ptr<Frame>* slot = frames_.Find(frame_no);
  return slot == nullptr ? nullptr : slot->get();
}

PhysMem::Frame& PhysMem::FrameForAlloc(std::uint64_t frame_no) {
  auto& slot = frames_[frame_no];
  if (!slot) {
    slot = std::make_unique<Frame>();
    slot->fill(0);
  }
  return *slot;
}

Status PhysMem::Read(PhysAddr addr, void* out, std::uint64_t len) const {
  if (!Contains(addr, len)) {
    return Status::kMemoryFault;
  }
  auto* dst = static_cast<std::uint8_t*>(out);
  while (len > 0) {
    const std::uint64_t frame_no = FrameOf(addr);
    const std::uint64_t off = addr & kPageMask;
    const std::uint64_t chunk = std::min(len, kPageSize - off);
    if (const Frame* f = FrameFor(frame_no)) {
      std::memcpy(dst, f->data() + off, chunk);
    } else {
      std::memset(dst, 0, chunk);  // Untouched RAM reads as zero.
    }
    addr += chunk;
    dst += chunk;
    len -= chunk;
  }
  return Status::kSuccess;
}

Status PhysMem::Write(PhysAddr addr, const void* data, std::uint64_t len) {
  if (!Contains(addr, len)) {
    return Status::kMemoryFault;
  }
  if (observer_) {
    observer_(addr, len);
  }
  const auto* src = static_cast<const std::uint8_t*>(data);
  while (len > 0) {
    const std::uint64_t frame_no = FrameOf(addr);
    const std::uint64_t off = addr & kPageMask;
    const std::uint64_t chunk = std::min(len, kPageSize - off);
    std::memcpy(FrameForAlloc(frame_no).data() + off, src, chunk);
    addr += chunk;
    src += chunk;
    len -= chunk;
  }
  return Status::kSuccess;
}

Status PhysMem::Zero(PhysAddr addr, std::uint64_t len) {
  if (!Contains(addr, len)) {
    return Status::kMemoryFault;
  }
  if (observer_) {
    observer_(addr, len);
  }
  while (len > 0) {
    const std::uint64_t frame_no = FrameOf(addr);
    const std::uint64_t off = addr & kPageMask;
    const std::uint64_t chunk = std::min(len, kPageSize - off);
    // Only materialized frames need clearing; absent frames read as zero.
    if (Frame* f = FrameFor(frame_no)) {
      std::memset(f->data() + off, 0, chunk);
    }
    addr += chunk;
    len -= chunk;
  }
  return Status::kSuccess;
}

template <class Ar>
void PhysMem::Io(Ar& ar) {
  ar.Verify(size_);  // The twin must be constructed with identical RAM.
  if constexpr (Ar::kLoading) {
    frames_.clear();
  }
  const std::uint64_t frames = FrameOf(PageAlignUp(size_));
  ar.Keyed(sim::kCount64, frames_,
           [&](std::uint64_t frame_no, std::unique_ptr<Frame>& frame) {
             if constexpr (Ar::kLoading) {
               if (frame_no >= frames) {
                 ar.Fail(Status::kBadParameter);
               }
               frame = std::make_unique<Frame>();
             }
             ar.Io(*frame);
           });
}

Status PhysMem::SaveState(sim::SnapWriter& w) const { return w.Save(*this); }
Status PhysMem::LoadState(sim::SnapReader& r) { return r.Restore(*this); }

}  // namespace nova::hw
