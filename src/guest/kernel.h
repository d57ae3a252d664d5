// The synthetic guest operating system.
//
// A small kernel whose image is a real program in the guest ISA: boot code
// that installs interrupt handlers and programs the timer, a page-fault
// handler that demand-maps process pages by editing real guest page
// tables, a timer ISR with the classic interrupt-controller handshake, and
// an idle loop. Device drivers and workloads append their own routines to
// the same image. The kernel builder runs host-side (it plays the
// bootloader), but everything it produces executes instruction-by-
// instruction on the simulated CPU, through the guest's own page tables.
#ifndef SRC_GUEST_KERNEL_H_
#define SRC_GUEST_KERNEL_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/guest/guest_pt.h"
#include "src/guest/logic_mux.h"
#include "src/hw/isa.h"
#include "src/hw/phys_mem.h"
#include "src/sim/snapshot.h"

namespace nova::guest {

struct GuestKernelConfig {
  std::uint64_t mem_bytes = 64ull << 20;
  bool paging = true;
  bool large_kernel_pages = true;  // Identity-map the kernel with 4 MiB pages.
  std::uint32_t timer_hz = 0;      // 0: timer stays off.
};

// Guest-physical memory layout.
struct GuestLayout {
  static constexpr std::uint64_t kCodeBase = 0x10000;
  static constexpr std::uint64_t kPtRoot = 0x100000;   // Kernel CR3.
  static constexpr std::uint64_t kPtPool = 0x104000;   // Page-table frames.
  static constexpr std::uint64_t kDmaBase = 0x800000;  // Driver DMA buffers.
  static constexpr std::uint64_t kDataBase = 0xf00000; // Kernel counters.
  static constexpr std::uint64_t kHeapBase = 0x1000000;  // Process frames.
  static constexpr std::uint64_t kProcVirtBase = 0x40000000;  // User regions.
};

class GuestKernel {
 public:
  // `gpa_to_hpa` is how the "bootloader" writes the image and page tables
  // into guest memory (VMM::GpaToHpa for VMs, identity for bare metal).
  GuestKernel(hw::PhysMem* mem, std::function<std::uint64_t(std::uint64_t)> gpa_to_hpa,
              GuestLogicMux* mux, GuestKernelConfig config);

  const GuestKernelConfig& config() const { return config_; }
  hw::isa::Assembler& text() { return text_; }
  GuestPageTableBuilder& pt() { return pt_; }
  GuestLogicMux& mux() { return *mux_; }

  // --- Guest memory management -------------------------------------------
  std::uint64_t AllocFrames(std::uint64_t n);  // Heap frames (gpa).
  // Raw guest-physical access for host-side kernel logic (driver data
  // structures, ring setup). Cost is charged by adjacent emitted code.
  // Both run on loader-owned guest RAM mapped at boot, so the access is
  // in range by construction and the Status carries no information.
  void WriteGuestRaw(std::uint64_t gpa, const void* data, std::uint64_t len) {
    (void)mem_->Write(gpa_to_hpa_(gpa), data, len);
  }
  void ReadGuestRaw(std::uint64_t gpa, void* out, std::uint64_t len) const {
    (void)mem_->Read(gpa_to_hpa_(gpa), out, len);
  }
  std::uint64_t GpaToHpa(std::uint64_t gpa) const { return gpa_to_hpa_(gpa); }
  // Map a device MMIO window (identity gva==gpa) into an address space.
  void MapDevice(std::uint64_t root_gpa, std::uint64_t base, std::uint64_t size);
  // New address space: kernel identity + shared device mappings; process
  // pages at kProcVirtBase are demand-faulted. Returns the root (CR3).
  std::uint64_t CreateAddressSpace();
  std::uint64_t kernel_cr3() const { return GuestLayout::kPtRoot; }

  // --- Image building ------------------------------------------------------
  // Standard handlers; call once before EmitBoot. Registers #PF (vector 14)
  // and, when timer_hz != 0, the timer ISR (vector 32).
  void BuildStandardHandlers();
  // Route `vector` to the handler at `gva` (emitted by a driver/workload).
  void SetVector(std::uint8_t vector, std::uint64_t handler_gva);
  // The 4-step interrupt-controller handshake (read vector, mask, EOI,
  // unmask) — emitted into ISRs; clobbers r0.
  void EmitPicHandshake();
  // sti; hlt; jmp — the kernel idle loop. Returns its address.
  std::uint64_t EmitIdleLoop();
  // Boot code: installs the IDT, programs the timer, enables interrupts
  // and jumps to `main_gva`. Returns the boot entry point.
  std::uint64_t EmitBoot(std::uint64_t main_gva);

  // Write the image and kernel page tables into guest memory and return
  // the entry point. Call after all code is emitted.
  std::uint64_t Install();
  // Prime a virtual-CPU (or bare-metal) register state for boot.
  void PrimeState(hw::GuestState& gs) const;

  std::uint64_t ticks() const;  // Timer ticks observed (from guest memory).

  // Hook invoked host-side on every timer tick (workload pacing).
  void set_timer_hook(std::function<void()> hook) { timer_hook_ = std::move(hook); }

  // Host-side allocation cursors: the heap bump pointer and the page-table
  // pool cursor. Everything else the kernel owns (image, tables, counters)
  // lives in guest RAM and rides the memory snapshot; the emitted image is
  // construction-time and only verified (entry point must match).
  Status SaveState(sim::SnapWriter& w) const { return w.Save(*this); }
  Status LoadState(sim::SnapReader& r) { return r.Restore(*this); }
  template <class Ar>
  void Io(Ar& ar) {
    ar.Verify(entry_);
    ar.Io(heap_next_, pt_);
  }

 private:
  void PfLogic(hw::GuestState& gs);
  void BuildKernelMappings(std::uint64_t root_gpa);

  hw::PhysMem* mem_;
  std::function<std::uint64_t(std::uint64_t)> gpa_to_hpa_;
  GuestLogicMux* mux_;
  GuestKernelConfig config_;
  hw::isa::Assembler text_{GuestLayout::kCodeBase};
  GuestPageTableBuilder pt_;
  std::uint64_t heap_next_;
  std::uint64_t entry_ = 0;
  std::vector<std::pair<std::uint8_t, std::uint64_t>> vectors_;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> device_windows_;
  std::function<void()> timer_hook_;
  std::uint64_t tick_counter_gva_ = GuestLayout::kDataBase;
};

}  // namespace nova::guest

#endif  // SRC_GUEST_KERNEL_H_
