#include "src/hw/phys_mem.h"

#include <algorithm>

namespace nova::hw {

PhysMem::PhysMem(std::uint64_t size)
    : size_(size),
      dir_((FrameOf(PageAlignUp(size)) + kChunkFrames - 1) >> kChunkShift) {}

PhysMem::Frame& PhysMem::FrameForAlloc(std::uint64_t frame_no) {
  std::unique_ptr<Chunk>& chunk = dir_[frame_no >> kChunkShift];
  if (!chunk) {
    chunk = std::make_unique<Chunk>();
  }
  std::unique_ptr<Frame>& frame = (*chunk)[frame_no & (kChunkFrames - 1)];
  if (!frame) {
    frame = std::make_unique<Frame>();  // Value-initialized: zero-filled.
    ++resident_;
  }
  return *frame;
}

Status PhysMem::ReadSpan(PhysAddr addr, void* out, std::uint64_t len) const {
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

Status PhysMem::WriteSpan(PhysAddr addr, const void* data, std::uint64_t len) {
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

// Wire format: count64, then each resident frame's number and its bytes,
// frame numbers strictly ascending, so a memory image has one encoding.
template <class Ar>
void PhysMem::Io(Ar& ar) {
  ar.Verify(size_);  // The twin must be constructed with identical RAM.
  std::uint64_t count = resident_;
  ar.Io(count);
  if constexpr (Ar::kLoading) {
    for (std::unique_ptr<Chunk>& chunk : dir_) {
      chunk.reset();
    }
    resident_ = 0;
    // Every frame takes 4 104 bytes, so a forged count runs the reader dry
    // and fails within the section's length.
    const std::uint64_t frames = FrameOf(PageAlignUp(size_));
    std::uint64_t prev = 0;
    for (std::uint64_t i = 0; i < count && ar.ok(); ++i) {
      std::uint64_t frame_no = 0;
      ar.Io(frame_no);
      if (!ar.ok()) {
        return;
      }
      if (frame_no >= frames || (i != 0 && frame_no <= prev)) {
        ar.Fail(Status::kBadParameter);
        return;
      }
      ar.Io(FrameForAlloc(frame_no));
      prev = frame_no;
    }
  } else {
    for (std::uint64_t c = 0; c < dir_.size(); ++c) {
      if (dir_[c] == nullptr) {
        continue;
      }
      for (std::uint64_t i = 0; i < kChunkFrames; ++i) {
        if (Frame* f = (*dir_[c])[i].get()) {
          std::uint64_t frame_no = (c << kChunkShift) | i;
          ar.Io(frame_no, *f);
        }
      }
    }
  }
}

Status PhysMem::SaveState(sim::SnapWriter& w) const { return w.Save(*this); }
Status PhysMem::LoadState(sim::SnapReader& r) { return r.Restore(*this); }

}  // namespace nova::hw
