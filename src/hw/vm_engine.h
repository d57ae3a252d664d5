// The processor's instruction-execution engine, covering both native and
// guest (VT-x/SVM) modes.
//
// The engine fetches 16-byte instructions through the TLB and real page
// tables, executes them against simulated physical memory and the device
// bus, delivers interrupts and exceptions through the guest IDT, and
// produces VM exits for every sensitive operation the controls intercept.
// All work is charged to the owning CPU's cycle counter; software layers
// above (hypervisor, VMM) add their own charges.
//
// Memory translation supports three modes:
//   native — one-dimensional walk of the OS's own page tables,
//   nested — two-dimensional GVA->GPA->HPA walk with a paging-structure
//            cache standing in for the hardware's nested-walk caches,
//   shadow — one-dimensional walk of the hypervisor-maintained shadow
//            table; misses exit to the vTLB algorithm.
#ifndef SRC_HW_VM_ENGINE_H_
#define SRC_HW_VM_ENGINE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/hw/cpu.h"
#include "src/hw/device.h"
#include "src/hw/guest_state.h"
#include "src/hw/irq.h"
#include "src/hw/isa.h"
#include "src/hw/phys_mem.h"
#include "src/sim/stats.h"

namespace nova::hw {

// Fixed exception vectors (x86-flavoured).
constexpr std::uint8_t kVectorPageFault = 14;

// Costs of engine-internal events that are not plain instructions.
struct EngineCosts {
  sim::Cycles event_delivery = 280;  // Interrupt/exception through the IDT.
  sim::Cycles iret = 120;
  sim::Cycles pio_access = 220;      // Physical port access latency.
  sim::Cycles mmio_access = 150;     // Uncached device register access.
  sim::Cycles cpuid = 60;
};

class VmEngine {
 public:
  // A host-side helper a guest kernel runs for a workload decision; a
  // kGuestLogic op invokes it synchronously.
  using GuestLogicFn = std::function<void(GuestState& gs)>;

  VmEngine(Cpu* cpu, PhysMem* mem, Bus* bus, IrqChip* irq);

  // Adds `fn` to the guest-logic table every guest on this engine shares;
  // returns the id a kGuestLogic op names it by. An op naming an id never
  // handed out exits with kError.
  std::uint32_t AddGuestLogic(GuestLogicFn fn) {
    guest_logic_.push_back(std::move(fn));
    return static_cast<std::uint32_t>(guest_logic_.size() - 1);
  }
  const EngineCosts& costs() const { return costs_; }

  // Execute until a VM exit condition or until `cycle_budget` cycles have
  // been charged. In native mode the only "exits" produced are kHlt,
  // kPreempt and kError; interrupts are delivered internally.
  VmExit Run(GuestState& gs, const VmControls& ctl, sim::Cycles cycle_budget);

  // Result of an address translation attempt.
  struct XlatResult {
    enum class Kind : std::uint8_t {
      kOk,          // hpa valid.
      kGuestFault,  // #PF to be delivered to the guest.
      kHostFault,   // Nested/EPT violation: gpa valid.
      kShadowMiss,  // Shadow-mode miss: vTLB must resolve gva.
    };
    Kind kind = Kind::kOk;
    PhysAddr hpa = 0;
    std::uint64_t gpa = 0;
    PageFaultInfo pf{};
  };

  // Translate a guest-virtual address, charging walk costs. Public for
  // tests. A TLB hit returns here, from an inlined Tlb::Probe; a miss walks
  // in TranslateMiss. The guest-table walk itself is hw::PageTable's, which
  // the hypervisor's vTLB and the VMM's instruction emulator also call,
  // each with its own entry resolver and cycle charges.
  XlatResult Translate(GuestState& gs, const VmControls& ctl, VirtAddr gva,
                       Access access);

  // Translate a guest-physical address through the nested tables only.
  XlatResult TranslateGpa(const VmControls& ctl, std::uint64_t gpa, Access access);

  // One 8-byte guest word at `pa`, in RAM or a device window (an MMIO
  // access of width 8). Charges access cost. The size is fixed so a RAM
  // word inlines to one load or store instead of a libc memcpy call.
  std::uint64_t PhysRead(PhysAddr pa);
  void PhysWrite(PhysAddr pa, std::uint64_t value);

  // Deliver an exception or interrupt through the guest IDT (used by the
  // hypervisor to inject guest page faults under shadow paging). Returns
  // false when delivery is impossible (triple-fault analogue).
  bool InjectEvent(GuestState& gs, std::uint8_t vector) {
    return DeliverEvent(gs, vector);
  }

  // Invalidate cached nested (GPA->HPA) translations for a tag, e.g. after
  // the hypervisor revokes memory from a VM.
  void FlushNestedTlb(TlbTag tag) { nested_tlb_.FlushTag(tag); }

  // Statistics.
  std::uint64_t instructions() const { return insns_.value(); }
  std::uint64_t injected_events() const { return injections_.value(); }

  Cpu& cpu() { return *cpu_; }

  Status SaveState(sim::SnapWriter& w) const { return w.Save(*this); }
  Status LoadState(sim::SnapReader& r) { return r.Restore(*this); }
  template <class Ar>
  void Io(Ar& ar) {
    ar.Io(nested_tlb_, insns_, injections_);
  }

 private:
  // One guest instruction. Both return whether it exited, and write `exit`
  // only then, whole: Run's record holds only the exiting step's fields.
  bool Step(GuestState& gs, const VmControls& ctl, VmExit* exit);
  bool Execute(GuestState& gs, const VmControls& ctl, const isa::Insn& insn,
               std::uint64_t next_rip, VmExit* exit);

  // Deliver an exception/interrupt through the guest IDT. Returns false on
  // a nested-delivery failure (triple fault analogue).
  bool DeliverEvent(GuestState& gs, std::uint8_t vector);

  // Translate's walks after a TLB miss. Out of line, so that a hit, which
  // every guest fetch, load and store hopes for, runs without the walks'
  // stack frame and saved registers.
  [[gnu::noinline]] XlatResult TranslateMiss(GuestState& gs,
                                             const VmControls& ctl,
                                             VirtAddr gva, Access access);

  // A failed translation of `gva`: a guest #PF is delivered through the
  // IDT and the instruction restarts in the handler (false); an EPT
  // violation, a shadow miss or a failed delivery writes `exit` (true).
  bool HandleXlatFault(GuestState& gs, const XlatResult& x, VirtAddr gva,
                       Access access, VmExit* exit);

  Cpu* cpu_;
  PhysMem* mem_;
  Bus* bus_;
  IrqChip* irq_;
  std::vector<GuestLogicFn> guest_logic_;
  EngineCosts costs_;

  // Paging-structure cache for nested walks (GPA -> HPA at host page
  // granularity). Small, like the hardware's nested-TLB arrays.
  Tlb nested_tlb_{48, 16};

  sim::Counter insns_;
  sim::Counter injections_;
};

}  // namespace nova::hw

#endif  // SRC_HW_VM_ENGINE_H_
