// VMM instruction emulator (§7.1).
//
// When the guest touches unmapped guest-physical memory (a device region),
// the hardware reports only the fault address and instruction pointer. The
// VMM therefore fetches the opcode bytes from the guest's instruction
// pointer — walking the guest's own page tables in software — decodes the
// instruction to find its length and operands, fetches memory operands,
// executes against the virtual-device router, writes results back to the
// register file and advances the instruction pointer. Exceptions during
// emulation (e.g. an unmapped fetch) are fixed up by injecting the fault
// into the guest.
#ifndef SRC_VMM_EMULATOR_H_
#define SRC_VMM_EMULATOR_H_

#include <cstdint>
#include <functional>

#include "src/hw/cpu.h"
#include "src/hw/isa.h"
#include "src/hw/phys_mem.h"
#include "src/hv/utcb.h"

namespace nova::vmm {

class InsnEmulator {
 public:
  // Emulation cycle costs (the dominant share of MMIO-exit handling, §8.5).
  struct Costs {
    sim::Cycles fetch = 120;       // Locate and read the opcode bytes.
    sim::Cycles walk_level = 24;   // One guest page-table level.
    sim::Cycles decode = 160;      // Length + operand decoding.
    sim::Cycles execute = 90;      // Register writeback, rip advance.
  };

  // `gpa_to_hpa` returns the host-physical address backing a guest-physical
  // address, or hw::kNoHpa when the address is not guest RAM.
  InsnEmulator(hw::PhysMem* mem, hw::Cpu* cpu,
               std::function<std::uint64_t(std::uint64_t)> gpa_to_hpa)
      : mem_(mem), cpu_(cpu), gpa_to_hpa_(std::move(gpa_to_hpa)) {}

  enum class Result : std::uint8_t {
    kOk,           // Emulated; arch state updated.
    kInjectPf,     // Deliver #PF to the guest (arch.cr2 set).
    kUnsupported,  // Not an instruction this emulator handles.
  };

  using MmioRead = std::function<std::uint64_t(std::uint64_t gpa, unsigned size)>;
  using MmioWrite = std::function<void(std::uint64_t gpa, unsigned size,
                                       std::uint64_t value)>;

  // Emulate the instruction at arch.rip, which faulted accessing device
  // memory. Routes the access through `read`/`write`.
  Result EmulateMmio(hv::ArchState& arch, const MmioRead& read,
                     const MmioWrite& write);

  // Software walk of the guest's two-level page table (hw::PageTable),
  // charging walk_level per entry: gva -> gpa. Sets accessed/dirty bits.
  // Returns false on a guest page fault or a table outside guest RAM.
  bool WalkGuest(const hv::ArchState& arch, std::uint64_t gva, bool is_write,
                 std::uint64_t* gpa);

  // Read guest-virtual memory (walk + physical read). False on fault.
  bool ReadGuestVirt(const hv::ArchState& arch, std::uint64_t gva, void* out,
                     std::uint64_t len);

  std::uint64_t emulated() const { return emulated_; }

 private:
  hw::PhysMem* mem_;
  hw::Cpu* cpu_;
  std::function<std::uint64_t(std::uint64_t)> gpa_to_hpa_;
  Costs costs_;
  std::uint64_t emulated_ = 0;
};

}  // namespace nova::vmm

#endif  // SRC_VMM_EMULATOR_H_
