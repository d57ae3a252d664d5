// Architectural guest state — the contents of the VMCS guest-state area
// plus the execution controls the hypervisor programs before VM entry.
#ifndef SRC_HW_GUEST_STATE_H_
#define SRC_HW_GUEST_STATE_H_

#include <array>
#include <bitset>
#include <cstdint>

#include "src/hw/isa.h"
#include "src/hw/paging.h"
#include "src/hw/tlb.h"

namespace nova::hw {

constexpr int kNumVectors = 64;
constexpr int kMaxIntrNesting = 8;

// Register and system state of one virtual CPU (or, in native mode, of the
// physical CPU running an operating system directly).
struct GuestState {
  std::array<std::uint64_t, isa::kNumRegs> regs{};
  std::uint64_t rip = 0;
  std::uint64_t cr3 = 0;
  std::uint64_t cr2 = 0;
  bool paging = false;            // Guest paging enabled (CR0.PG).
  bool interrupts_enabled = false;  // RFLAGS.IF.
  bool halted = false;

  // Interrupt descriptor table: vector -> handler address.
  std::array<std::uint64_t, kNumVectors> idt{};

  // Hardware interrupt/exception nesting: saved rip + IF + GPRs per level.
  // The register bank stands in for the save/restore sequence a real ISR
  // performs on entry/exit (this ISA has no stack to push them onto); its
  // cost is part of the event-delivery and iret charges. Handlers therefore
  // cannot leak results through registers across IRET — they must write
  // guest memory (or host-side state) instead, exactly like a real ISR.
  struct Frame {
    std::uint64_t rip;
    bool interrupts_enabled;
    std::array<std::uint64_t, isa::kNumRegs> regs;
    template <class Ar>
    void Io(Ar& ar) {
      ar.Io(rip, interrupts_enabled, regs);
    }
  };
  std::array<Frame, kMaxIntrNesting> frames{};
  int frame_depth = 0;

  // Event injection (written by the VMM through the reply MTD).
  bool inject_pending = false;
  std::uint8_t inject_vector = 0;
  bool request_intr_window = false;  // Exit when IF becomes 1.

  // Recall: forces the next instruction boundary to exit (hypercall-driven,
  // §7.5 of the paper).
  bool recall_pending = false;

  template <class Ar>
  void Io(Ar& ar) {
    ar.Io(regs, rip, cr3, cr2, paging, interrupts_enabled, halted, idt,
          frame_depth, frames, inject_pending, inject_vector,
          request_intr_window, recall_pending);
  }
};

// How guest memory accesses translate to host-physical addresses.
enum class TranslationMode : std::uint8_t {
  kNative,  // Bare metal: guest-physical == host-physical.
  kNested,  // Hardware nested paging (EPT/NPT).
  kShadow,  // Software shadow paging: the vTLB algorithm (§5.3).
};

// Execution controls (the VMCS control area).
struct VmControls {
  TranslationMode mode = TranslationMode::kNative;
  PagingMode nested_format = PagingMode::kFourLevel;
  PhysAddr nested_root = 0;      // EPT root (kNested) or shadow root (kShadow).
                                 // Under kShadow the vTLB retargets this to
                                 // the active cached context's shadow tree.
  TlbTag tag = kHostTag;         // Active VPID/ASID: what the hardware walker
                                 // and TLB use right now. The vTLB's tagged
                                 // context cache switches this per guest
                                 // address space.
  TlbTag base_tag = kHostTag;    // The VM's stable identity tag (equal to
                                 // Pd::vm_tag). `tag` returns to it whenever
                                 // per-context tagging is not in effect.

  // Idealized direct interrupt delivery: pending host interrupts are
  // delivered straight into the guest IDT without a VM exit (used by the
  // zero-exit "Direct" configuration of §8.1).
  bool direct_interrupts = false;

  bool intercept_cpuid = false;
  bool intercept_hlt = false;
  bool intercept_cr3 = false;    // Required by the vTLB algorithm.
  bool intercept_invlpg = false;
  bool intercept_vmcall = false;

  // Ports the guest may access directly (direct device assignment). All
  // other ports exit. Null means "intercept everything" for VMs; native
  // mode ignores it.
  const std::bitset<65536>* io_passthrough = nullptr;

  // Everything but io_passthrough: the bitmap pointer targets the owning
  // PD's IoSpace, which the twin wires at construction.
  template <class Ar>
  void Io(Ar& ar) {
    ar.Io(mode, nested_format, nested_root, tag, base_tag, direct_interrupts,
          intercept_cpuid, intercept_hlt, intercept_cr3, intercept_invlpg,
          intercept_vmcall);
  }
};

enum class ExitReason : std::uint8_t {
  kNone = 0,
  kPageFault,    // Shadow-mode translation miss: the vTLB handles it.
  kEptViolation, // Nested mode: guest-physical address unmapped (MMIO).
  kPio,          // Intercepted port access.
  kCpuid,
  kHlt,
  kMovCr,        // CR3 write (vTLB flush) or read when intercepted.
  kInvlpg,
  kExtInt,       // Host hardware interrupt arrived in guest mode.
  kIntrWindow,   // IF became 1 while the VMM waits to inject.
  kRecall,
  kVmcall,
  kPreempt,      // Cycle budget (time slice) exhausted.
  kError,        // Invalid opcode / nested fault: would triple-fault.
};

// Keep in sync when appending reasons; the enum-coverage test walks
// [0, kNumExitReasons) and fails if ExitReasonName lags behind.
constexpr int kNumExitReasons = static_cast<int>(ExitReason::kError) + 1;

const char* ExitReasonName(ExitReason r);

struct VmExit {
  ExitReason reason = ExitReason::kNone;
  std::uint64_t gva = 0;        // Faulting virtual address.
  std::uint64_t gpa = 0;        // Faulting guest-physical address.
  PageFaultInfo pf{};           // Page-fault qualification.
  bool is_write = false;        // For PIO / MMIO.
  std::uint16_t port = 0;       // For PIO.
  std::uint8_t width = 8;       // Access width in bytes.
  std::uint64_t value = 0;      // Outgoing value for OUT.
  std::uint8_t reg = 0;         // Register operand (IN destination).
  std::uint32_t hypercall = 0;  // For kVmcall.
  std::uint64_t qual = 0;       // Generic qualification (CR value, ...).
};

}  // namespace nova::hw

#endif  // SRC_HW_GUEST_STATE_H_
