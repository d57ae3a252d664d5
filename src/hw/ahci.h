// AHCI host bus adapter model (single port, command-list based).
//
// Implements the subset of the AHCI register file and in-memory command
// structures that a real miniport driver touches: a 32-slot command list,
// command tables with an H2D register FIS and a PRDT, per-port and global
// write-1-clear interrupt status, and DMA through the IOMMU. The driver
// flow — program PRDT in RAM, two MMIO writes to issue, four MMIO
// accesses to handle the completion interrupt — reproduces the six
// MMIO operations per request that Table 2 reports for the disk benchmark.
#ifndef SRC_HW_AHCI_H_
#define SRC_HW_AHCI_H_

#include <cstdint>
#include <vector>

#include "src/hw/device.h"
#include "src/hw/disk.h"
#include "src/hw/iommu.h"
#include "src/hw/irq.h"
#include "src/sim/event_queue.h"
#include "src/sim/snapshot.h"

namespace nova::hw {

// Register offsets (subset of AHCI 1.3).
namespace ahci {
constexpr std::uint64_t kCap = 0x00;
constexpr std::uint64_t kGhc = 0x04;
constexpr std::uint64_t kIs = 0x08;
constexpr std::uint64_t kPi = 0x0c;
constexpr std::uint64_t kPort = 0x100;  // Port 0 register block.
constexpr std::uint64_t kPxClb = kPort + 0x00;
constexpr std::uint64_t kPxClbu = kPort + 0x04;
constexpr std::uint64_t kPxFb = kPort + 0x08;
constexpr std::uint64_t kPxFbu = kPort + 0x0c;
constexpr std::uint64_t kPxIs = kPort + 0x10;
constexpr std::uint64_t kPxIe = kPort + 0x14;
constexpr std::uint64_t kPxCmd = kPort + 0x18;
constexpr std::uint64_t kPxTfd = kPort + 0x20;
constexpr std::uint64_t kPxSsts = kPort + 0x28;
constexpr std::uint64_t kPxCi = kPort + 0x38;
// Vendor-specific: bitmask of slots that completed with a task-file error
// since last cleared (write-1-clear). Lets the driver tell *which* command
// failed without a D2H FIS decode.
constexpr std::uint64_t kPxVs = kPort + 0x70;
constexpr std::uint64_t kWindowSize = 0x200;

constexpr std::uint32_t kGhcIntrEnable = 1u << 1;
constexpr std::uint32_t kPxCmdStart = 1u << 0;
constexpr std::uint32_t kPxIsDhrs = 1u << 0;   // Completion FIS received.
constexpr std::uint32_t kPxIsTfes = 1u << 30;  // Task-file error (DMA fault).

constexpr std::uint8_t kFisH2d = 0x27;
constexpr std::uint8_t kCmdReadDmaExt = 0x25;
constexpr std::uint8_t kCmdWriteDmaExt = 0x35;
constexpr int kNumSlots = 32;
}  // namespace ahci

class AhciController : public Device {
 public:
  AhciController(DeviceId id, Iommu* iommu, IrqChip* irq, std::uint32_t gsi,
                 DiskModel* disk);

  std::uint64_t MmioRead(std::uint64_t offset, unsigned size) override;
  void MmioWrite(std::uint64_t offset, unsigned size, std::uint64_t value) override;

  std::uint32_t gsi() const { return gsi_; }
  std::uint64_t dma_faults() const { return dma_faults_; }
  std::uint32_t error_slots() const { return error_slots_; }

  // Optional fault injection (kDmaUnmapped on the completion scatter path).
  void set_fault_plan(sim::FaultPlan* plan) { fault_plan_ = plan; }

  // Wires the machine's tracer in; interns the controller's event names.
  void set_tracer(sim::Tracer* t);

  // Serialize the register file and per-slot in-flight buffers. The disk
  // model's pending table is saved separately by the machine orchestrator.
  Status SaveState(sim::SnapWriter& w) const;
  Status LoadState(sim::SnapReader& r);
  template <class Ar>
  void Io(Ar& ar);

 private:
  void IssueSlot(int slot);
  void CompleteSlot(int slot, Status status, const std::uint8_t* data,
                    std::uint64_t len);
  void FailSlot(int slot);
  void UpdateIrq();

  Iommu* iommu_;
  IrqChip* irq_;
  std::uint32_t gsi_;
  DiskModel* disk_;

  // Register file.
  std::uint32_t ghc_ = 0;
  std::uint32_t is_ = 0;
  std::uint32_t px_clb_ = 0;
  std::uint32_t px_fb_ = 0;
  std::uint32_t px_is_ = 0;
  std::uint32_t px_ie_ = 0;
  std::uint32_t px_cmd_ = 0;
  std::uint32_t px_ci_ = 0;
  std::uint32_t error_slots_ = 0;

  // In-flight request buffers (one per slot).
  struct Inflight {
    bool active = false;
    bool write = false;
    std::vector<std::uint8_t> data;
    std::vector<std::pair<std::uint64_t, std::uint32_t>> prdt;  // (addr, len).
    template <class Ar>
    void Io(Ar& ar) {
      ar.Io(active, write);
      ar.Seq(sim::kCount64, data);
      ar.Seq(sim::kCount32, prdt);
    }
  };
  Inflight inflight_[ahci::kNumSlots];
  std::uint64_t dma_faults_ = 0;
  sim::FaultPlan* fault_plan_ = nullptr;
  sim::Tracer* tracer_ = &sim::Tracer::Disabled();
  std::uint16_t trace_issue_ = 0;
  std::uint16_t trace_dma_ = 0;
};

}  // namespace nova::hw

#endif  // SRC_HW_AHCI_H_
