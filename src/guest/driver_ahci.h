// Guest AHCI miniport driver.
//
// The same driver code runs against the fully virtualized controller
// (window at the virtual MMIO base — every register access exits to the
// VMM), the directly assigned host controller (window mapped into the
// guest — register accesses go straight to hardware, DMA remapped by the
// IOMMU), and bare metal. Per request the driver performs exactly the six
// MMIO register accesses the paper reports (§8.2): slot check + issue on
// submission, and IS/PxIS read + two write-one-clear stores on completion.
#ifndef SRC_GUEST_DRIVER_AHCI_H_
#define SRC_GUEST_DRIVER_AHCI_H_

#include <cstdint>
#include <functional>

#include "src/guest/kernel.h"
#include "src/hw/ahci.h"

namespace nova::guest {

class GuestAhciDriver {
 public:
  struct Config {
    std::uint64_t mmio_base = 0xfe00'0000;  // Virtualized controller default.
    std::uint8_t irq_vector = 43;
    // Reads the controller's PxCI register for completion bookkeeping
    // (stands for the driver's in-memory tag tracking; the cost of that
    // bookkeeping is charged inside the ISR).
    std::function<std::uint32_t()> read_ci;
    // Error handling is opt-in: when enabled the ISR also reads the error
    // slot register (kPxVs), acknowledges it and re-issues failed slots —
    // three extra MMIO accesses per interrupt. Off by default so the
    // fault-free six-MMIO budget of §8.2 is untouched.
    bool handle_errors = false;
    std::function<std::uint32_t()> read_err = nullptr;
  };

  GuestAhciDriver(GuestKernel* gk, Config config);

  // Emit the one-time bring-up MMIO sequence (GHC, CLB, IE, CMD).
  void EmitInit();

  // Emit the request-submission sequence. At runtime expects:
  //   r1 = LBA, r2 = sector count, r3 = DMA buffer GPA.
  // Two MMIO accesses: read PxCI (free-slot check), write PxCI (issue).
  void EmitIssueSequence();

  // Emit the completion ISR (4 MMIO accesses + PIC handshake) and register
  // its vector. `on_complete` runs host-side per completed request.
  void EmitIsr(std::function<void(int completed)> on_complete);

  std::uint64_t issued() const { return issued_count_; }
  std::uint64_t completed() const { return completed_count_; }
  std::uint64_t retried() const { return retried_count_; }
  std::uint32_t issued_mask() const { return issued_mask_; }

  // Host-side mirror of the driver's in-flight bookkeeping; the emitted
  // code and logic slots are construction-time (verified).
  Status SaveState(sim::SnapWriter& w) const { return w.Save(*this); }
  Status LoadState(sim::SnapReader& r) { return r.Restore(*this); }
  template <class Ar>
  void Io(Ar& ar) {
    ar.Verify(prepare_logic_);
    ar.Verify(completion_logic_);
    ar.Io(issued_mask_, issued_count_, completed_count_, retried_count_);
  }

 private:
  void PrepareLogic(hw::GuestState& gs);
  void CompletionLogic(hw::GuestState& gs);

  GuestKernel* gk_;
  Config config_;
  std::uint32_t prepare_logic_ = 0;
  std::uint32_t completion_logic_ = 0;
  std::function<void(int)> on_complete_;
  std::uint32_t issued_mask_ = 0;
  std::uint64_t issued_count_ = 0;
  std::uint64_t completed_count_ = 0;
  std::uint64_t retried_count_ = 0;
};

}  // namespace nova::guest

#endif  // SRC_GUEST_DRIVER_AHCI_H_
