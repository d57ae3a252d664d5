// Simulated physical memory.
//
// A sparse store of 4 KiB frames. Page tables, DMA buffers, guest images
// and the UTCBs all live in here as real bytes — page-table walkers
// dereference real entries, and the vTLB algorithm parses real guest PTEs.
//
// Frames hang off a two-level directory indexed by frame number: the top
// level holds one pointer per 2 MiB of installed RAM, and each chunk below
// it, allocated on the first write into its range, holds the pointers of
// its 512 frames. An access that stays inside one frame inlines to those
// two loads and a copy; the rest take the out-of-line span path.
#ifndef SRC_HW_PHYS_MEM_H_
#define SRC_HW_PHYS_MEM_H_

#include <array>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include "src/sim/snapshot.h"
#include "src/sim/status.h"

namespace nova::hw {

using PhysAddr = std::uint64_t;

constexpr std::uint64_t kPageSize = 4096;
constexpr std::uint64_t kPageMask = kPageSize - 1;
constexpr std::uint64_t kPageShift = 12;

constexpr PhysAddr PageAlignUp(PhysAddr a) { return (a + kPageMask) & ~kPageMask; }
constexpr std::uint64_t FrameOf(PhysAddr a) { return a >> kPageShift; }

class PhysMem {
 public:
  // `size` is the amount of installed RAM; accesses beyond it fault.
  explicit PhysMem(std::uint64_t size);

  PhysMem(const PhysMem&) = delete;
  PhysMem& operator=(const PhysMem&) = delete;

  std::uint64_t size() const { return size_; }
  bool Contains(PhysAddr addr, std::uint64_t len) const {
    return addr < size_ && len <= size_ - addr;
  }

  // Typed accessors. Unaligned access within a page is allowed; access
  // crossing the end of installed RAM returns kMemoryFault. Frames are
  // allocated zero-filled on first touch.
  Status Read(PhysAddr addr, void* out, std::uint64_t len) const {
    if (InOneFrame(addr, len)) {
      if (const Frame* f = FrameFor(FrameOf(addr))) {
        std::memcpy(out, f->data() + (addr & kPageMask), len);
      } else {
        std::memset(out, 0, len);  // Untouched RAM reads as zero.
      }
      return Status::kSuccess;
    }
    return ReadSpan(addr, out, len);
  }
  Status Write(PhysAddr addr, const void* data, std::uint64_t len) {
    if (InOneFrame(addr, len)) {
      if (Frame* f = FrameFor(FrameOf(addr))) {
        if (observer_) {
          observer_(addr, len);
        }
        std::memcpy(f->data() + (addr & kPageMask), data, len);
        return Status::kSuccess;
      }
    }
    return WriteSpan(addr, data, len);
  }

  template <typename T>
  T ReadAs(PhysAddr addr) const {
    T v{};
    // Out-of-range reads yield T{} by design: callers that need the
    // fault distinction use Read() directly.
    (void)Read(addr, &v, sizeof(T));
    return v;
  }
  template <typename T>
  Status WriteAs(PhysAddr addr, T v) {
    return Write(addr, &v, sizeof(T));
  }

  std::uint32_t Read32(PhysAddr a) const { return ReadAs<std::uint32_t>(a); }
  std::uint64_t Read64(PhysAddr a) const { return ReadAs<std::uint64_t>(a); }
  Status Write32(PhysAddr a, std::uint32_t v) { return WriteAs(a, v); }
  Status Write64(PhysAddr a, std::uint64_t v) { return WriteAs(a, v); }

  // Zero-fill a range.
  Status Zero(PhysAddr addr, std::uint64_t len);

  // Number of frames that have actually been materialized.
  std::size_t resident_frames() const { return resident_; }

  // Write observer: called with (addr, len) on every successful Write/Zero.
  // This is the dirty-log "hardware assist" hook (PML-style): all mutation
  // paths — guest stores, host-side image writes, device DMA — funnel
  // through PhysMem::Write, so observing here catches every dirtying agent
  // with zero simulated cost. Null (default) disables the hook.
  using WriteObserver = std::function<void(PhysAddr addr, std::uint64_t len)>;
  void set_write_observer(WriteObserver obs) { observer_ = std::move(obs); }

  // Serialize installed-RAM size and every resident frame in ascending
  // frame order. Load fails if the twin's size differs, or if a frame lies
  // at or beyond installed RAM or does not follow the previous one.
  Status SaveState(sim::SnapWriter& w) const;
  Status LoadState(sim::SnapReader& r);
  template <class Ar>
  void Io(Ar& ar);

 private:
  using Frame = std::array<std::uint8_t, kPageSize>;
  static constexpr std::uint64_t kChunkShift = 9;  // 512 frames, 2 MiB.
  static constexpr std::uint64_t kChunkFrames = 1ull << kChunkShift;
  using Chunk = std::array<std::unique_ptr<Frame>, kChunkFrames>;

  // True when [addr, addr + len) is non-empty and lies in installed RAM and
  // in one frame. An empty access wraps `len - 1` and takes the span path.
  bool InOneFrame(PhysAddr addr, std::uint64_t len) const {
    return len - 1 < kPageSize - (addr & kPageMask) && Contains(addr, len);
  }
  // nullptr if absent; `frame_no` must lie below installed RAM.
  Frame* FrameFor(std::uint64_t frame_no) const {
    const Chunk* chunk = dir_[frame_no >> kChunkShift].get();
    return chunk == nullptr ? nullptr
                            : (*chunk)[frame_no & (kChunkFrames - 1)].get();
  }
  Frame& FrameForAlloc(std::uint64_t frame_no);  // Allocates.

  Status ReadSpan(PhysAddr addr, void* out, std::uint64_t len) const;
  Status WriteSpan(PhysAddr addr, const void* data, std::uint64_t len);

  std::uint64_t size_;
  std::vector<std::unique_ptr<Chunk>> dir_;
  std::size_t resident_ = 0;
  WriteObserver observer_;
};

}  // namespace nova::hw

#endif  // SRC_HW_PHYS_MEM_H_
