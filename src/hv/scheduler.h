// Per-CPU preemptive priority-driven round-robin scheduler (§5.1).
//
// One runqueue per CPU: 256 priority levels, FIFO within a level. The
// scheduler is oblivious to whether an execution context is a thread or a
// virtual CPU.
#ifndef SRC_HV_SCHEDULER_H_
#define SRC_HV_SCHEDULER_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "src/hv/objects.h"

namespace nova::hv {

class RunQueue {
 public:
  // Add `sc` at the tail (or head, after an undepleted preemption) of its
  // priority level.
  void Enqueue(Sc* sc, bool at_head = false);
  void Remove(Sc* sc);

  // Highest-priority SC, removed from the queue; nullptr when empty.
  Sc* Dequeue();
  // Peek without removing.
  Sc* Peek() const;

  bool empty() const { return bitmap_[0] == 0 && bitmap_[1] == 0 &&
                              bitmap_[2] == 0 && bitmap_[3] == 0; }

  // Highest runnable priority, or -1.
  int TopPriority() const;

  // Snapshot support: enumerate queued SCs from the highest priority level
  // down, FIFO within a level (the exact dequeue order), and drop every
  // entry without touching the SCs' queued flags (the object overlay owns
  // those).
  void CollectOrdered(std::vector<Sc*>* out) const;
  void Clear();

 private:
  std::array<std::deque<Sc*>, 256> levels_;
  std::array<std::uint64_t, 4> bitmap_{};
};

// Everything the kernel keeps per core: the ready queue, the SC whose EC
// is on the CPU right now, and the vCPUs halted on this core waiting for
// an interrupt.
class CpuState {
 public:
  // Ready set.
  void Enqueue(Sc* sc, bool at_head = false) { runqueue_.Enqueue(sc, at_head); }
  // Absent is fine (the SC may have been dequeued already): Remove here
  // is best-effort by design.
  void Remove(Sc* sc) { (void)runqueue_.Remove(sc); }
  Sc* PickNext() { return runqueue_.Dequeue(); }
  Sc* PeekReady() const { return runqueue_.Peek(); }
  bool HasReady() const { return !runqueue_.empty(); }
  int TopPriority() const { return runqueue_.TopPriority(); }

  // The SC currently executing on this core (nullptr between dispatches).
  Sc* current() const { return current_; }
  void SetCurrent(Sc* sc) { current_ = sc; }

  // Halted-vCPU parking lot. A halted vCPU stays bound to its home core
  // and is woken there, never migrated.
  void ParkHalted(std::shared_ptr<Ec> vcpu) {
    halted_vcpus_.push_back(std::move(vcpu));
  }
  std::vector<std::shared_ptr<Ec>>& halted() { return halted_vcpus_; }
  const std::vector<std::shared_ptr<Ec>>& halted() const { return halted_vcpus_; }

  // Snapshot support: enumerate / reset the ready queue (see RunQueue).
  void CollectReady(std::vector<Sc*>* out) const { runqueue_.CollectOrdered(out); }
  void ClearReady() { runqueue_.Clear(); }

  // A core is runnable when it has (or is about to get) work whose local
  // clock must bound device time.
  bool Runnable() const { return current_ != nullptr || !runqueue_.empty(); }

 private:
  RunQueue runqueue_;
  Sc* current_ = nullptr;
  std::vector<std::shared_ptr<Ec>> halted_vcpus_;
};

// One CpuState per core, reached only through a named core (CpuId): there
// is no integer index and no iteration.
class CpuStates {
 public:
  explicit CpuStates(std::size_t cores) : states_(cores) {}
  CpuState& operator[](CpuId cpu) { return states_[cpu]; }

 private:
  std::vector<CpuState> states_;
};

}  // namespace nova::hv

#endif  // SRC_HV_SCHEDULER_H_
