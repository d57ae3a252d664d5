// Dirty-page tracking for one VM: the primitive behind iterative pre-copy
// migration (services/migration) and incremental checkpointing.
//
// A PhysMem write observer records the host frames every successful
// Write/Zero touches (PML-style hardware assist). It catches every
// dirtying agent — guest stores, accessed/dirty-bit write-backs by page
// walks, host-side writes such as WriteGuestRaw and the guest loader's
// page-table writes, and device DMA — at zero simulated cost, and is
// invisible to trace digests: arming it perturbs nothing the simulation
// can observe.
//
// Collection intersects the dirty set with the VM's guest-physical
// mappings in ascending page order, so rounds are deterministic.
//
// One DirtyLog may be armed per Machine (the write observer is a single
// slot).
#ifndef SRC_HV_DIRTY_LOG_H_
#define SRC_HV_DIRTY_LOG_H_

#include <cstdint>
#include <unordered_set>
#include <vector>

namespace nova::hv {

class Hypervisor;
class Pd;

class DirtyLog {
 public:
  DirtyLog(Hypervisor* hv, Pd* vm) : hv_(hv), vm_(vm) {}
  ~DirtyLog() { Disarm(); }

  DirtyLog(const DirtyLog&) = delete;
  DirtyLog& operator=(const DirtyLog&) = delete;

  // Start tracking: clears the dirty set and installs the PhysMem write
  // observer.
  void Arm();

  // Stop tracking and remove the observer. The dirty set survives until
  // Arm().
  void Disarm();

  // Append the dirty guest page numbers (ascending) to `out` and reset
  // for the next round.
  void CollectAndReset(std::vector<std::uint64_t>* out);

  Pd* vm() const { return vm_; }
  bool armed() const { return armed_; }

 private:
  Hypervisor* hv_;
  Pd* vm_;
  bool armed_ = false;
  std::unordered_set<std::uint64_t> dirty_frames_;  // Host frame numbers.
};

}  // namespace nova::hv

#endif  // SRC_HV_DIRTY_LOG_H_
