#include "src/hw/ahci.h"

#include <gtest/gtest.h>

#include <cstring>

#include "src/hw/irq.h"

namespace nova::hw {
namespace {

// A miniature AHCI driver, equivalent to what the host disk server and the
// guest AHCI driver do: build the command list, command table and PRDT in
// memory, then program the port registers.
class AhciTest : public ::testing::Test {
 protected:
  static constexpr PhysAddr kClb = 0x10000;    // Command list base.
  static constexpr PhysAddr kCtba = 0x11000;   // Command table base.
  static constexpr PhysAddr kBuf = 0x20000;    // Data buffer.
  static constexpr std::uint32_t kGsi = 11;

  AhciTest()
      : mem_(64 << 20),
        iommu_(&mem_, true),
        disk_(&events_, DiskGeometry{}),
        hba_(7, &iommu_, &irq_, kGsi, &disk_, tracer_) {
    irq_.Configure(kGsi, 0, 43);
    irq_.Unmask(kGsi);
    iommu_.AllowGsi(7, kGsi);
    // Bring the HBA up the way a driver would.
    (void)hba_.MmioWrite(ahci::kGhc, 4, ahci::kGhcIntrEnable);
    (void)hba_.MmioWrite(ahci::kPxClb, 4, kClb);
    (void)hba_.MmioWrite(ahci::kPxIe, 4, ahci::kPxIsDhrs);
    (void)hba_.MmioWrite(ahci::kPxCmd, 4, ahci::kPxCmdStart);
  }

  void BuildRead(int slot, std::uint64_t lba, std::uint16_t sectors,
                 PhysAddr buffer) {
    // Command header.
    std::uint32_t dw0 = 1u << 16;  // One PRDT entry.
    (void)mem_.Write32(kClb + slot * 32, dw0);
    (void)mem_.Write32(kClb + slot * 32 + 8, static_cast<std::uint32_t>(kCtba));
    // Command FIS.
    std::uint8_t cfis[64] = {};
    cfis[0] = ahci::kFisH2d;
    cfis[2] = ahci::kCmdReadDmaExt;
    for (int i = 0; i < 6; ++i) {
      cfis[4 + i] = static_cast<std::uint8_t>(lba >> (8 * i));
    }
    std::memcpy(cfis + 12, &sectors, 2);
    (void)mem_.Write(kCtba, cfis, sizeof(cfis));
    // PRDT entry 0.
    (void)mem_.Write64(kCtba + 0x80, buffer);
    (void)mem_.Write32(kCtba + 0x80 + 12, sectors * kSectorSize - 1);
  }

  sim::EventQueue events_;
  sim::Tracer tracer_;
  PhysMem mem_;
  Iommu iommu_;
  IrqChip irq_{tracer_};
  DiskModel disk_;
  AhciController hba_;
};

TEST_F(AhciTest, ReadDmaCompletesWithInterrupt) {
  const char msg[] = "ahci sector data";
  disk_.WriteContent(5 * kSectorSize, msg, sizeof(msg));

  BuildRead(0, 5, 1, kBuf);
  (void)hba_.MmioWrite(ahci::kPxCi, 4, 1);
  EXPECT_EQ(hba_.MmioRead(ahci::kPxCi, 4), 1u);  // In flight.

  events_.AdvanceTo(sim::Milliseconds(10));
  EXPECT_EQ(hba_.MmioRead(ahci::kPxCi, 4), 0u);  // Slot cleared.
  EXPECT_EQ(hba_.MmioRead(ahci::kPxIs, 4) & ahci::kPxIsDhrs, ahci::kPxIsDhrs);
  EXPECT_EQ(hba_.MmioRead(ahci::kIs, 4), 1u);
  EXPECT_TRUE(irq_.HasPending(0));

  char out[sizeof(msg)] = {};
  (void)mem_.Read(kBuf, out, sizeof(out));
  EXPECT_STREQ(out, msg);
}

TEST_F(AhciTest, WriteThenReadBack) {
  const char msg[] = "written via hba";
  (void)mem_.Write(kBuf, msg, sizeof(msg));

  // Build a write command.
  std::uint32_t dw0 = (1u << 16) | (1u << 6);  // One PRDT entry, write.
  (void)mem_.Write32(kClb, dw0);
  (void)mem_.Write32(kClb + 8, static_cast<std::uint32_t>(kCtba));
  std::uint8_t cfis[64] = {};
  cfis[0] = ahci::kFisH2d;
  cfis[2] = ahci::kCmdWriteDmaExt;
  cfis[4] = 9;  // LBA 9.
  std::uint16_t sectors = 1;
  std::memcpy(cfis + 12, &sectors, 2);
  (void)mem_.Write(kCtba, cfis, sizeof(cfis));
  (void)mem_.Write64(kCtba + 0x80, kBuf);
  (void)mem_.Write32(kCtba + 0x80 + 12, kSectorSize - 1);

  (void)hba_.MmioWrite(ahci::kPxCi, 4, 1);
  events_.AdvanceTo(sim::Milliseconds(10));

  char out[sizeof(msg)] = {};
  disk_.ReadContent(9 * kSectorSize, out, sizeof(out));
  EXPECT_STREQ(out, msg);
}

TEST_F(AhciTest, InterruptStatusWriteOneClears) {
  BuildRead(0, 5, 1, kBuf);
  (void)hba_.MmioWrite(ahci::kPxCi, 4, 1);
  events_.AdvanceTo(sim::Milliseconds(10));
  (void)hba_.MmioWrite(ahci::kPxIs, 4, ahci::kPxIsDhrs);
  (void)hba_.MmioWrite(ahci::kIs, 4, 1);
  EXPECT_EQ(hba_.MmioRead(ahci::kPxIs, 4), 0u);
  EXPECT_EQ(hba_.MmioRead(ahci::kIs, 4), 0u);
}

TEST_F(AhciTest, NoIssueWhileStopped) {
  (void)hba_.MmioWrite(ahci::kPxCmd, 4, 0);  // Stop the command engine.
  BuildRead(0, 5, 1, kBuf);
  (void)hba_.MmioWrite(ahci::kPxCi, 4, 1);
  EXPECT_EQ(hba_.MmioRead(ahci::kPxCi, 4), 0u);  // Not accepted.
  events_.AdvanceTo(sim::Milliseconds(10));
  EXPECT_EQ(disk_.completed_requests(), 0u);
}

TEST_F(AhciTest, DmaFaultSetsTaskFileError) {
  // Attach the device to a remapping context with nothing mapped: the
  // command-list fetch itself faults.
  iommu_.AttachDevice(7, 0x80000);
  BuildRead(0, 5, 1, kBuf);
  (void)hba_.MmioWrite(ahci::kPxCi, 4, 1);
  EXPECT_EQ(hba_.MmioRead(ahci::kPxIs, 4) & ahci::kPxIsTfes, ahci::kPxIsTfes);
  EXPECT_GE(hba_.dma_faults(), 1u);
  EXPECT_EQ(hba_.MmioRead(ahci::kPxCi, 4), 0u);
}

TEST_F(AhciTest, PresenceRegisters) {
  EXPECT_EQ(hba_.MmioRead(ahci::kPi, 4), 1u);
  EXPECT_EQ(hba_.MmioRead(ahci::kPxSsts, 4), 0x123u);
  EXPECT_EQ(hba_.MmioRead(ahci::kCap, 4), 1u);
}

TEST_F(AhciTest, MultipleSlotsComplete) {
  static constexpr PhysAddr kCtba2 = 0x12000;
  BuildRead(0, 5, 1, kBuf);
  // Slot 1 with its own command table.
  (void)mem_.Write32(kClb + 32, 1u << 16);
  (void)mem_.Write32(kClb + 32 + 8, static_cast<std::uint32_t>(kCtba2));
  std::uint8_t cfis[64] = {};
  cfis[0] = ahci::kFisH2d;
  cfis[2] = ahci::kCmdReadDmaExt;
  cfis[4] = 20;
  std::uint16_t sectors = 1;
  std::memcpy(cfis + 12, &sectors, 2);
  (void)mem_.Write(kCtba2, cfis, sizeof(cfis));
  (void)mem_.Write64(kCtba2 + 0x80, kBuf + 0x1000);
  (void)mem_.Write32(kCtba2 + 0x80 + 12, kSectorSize - 1);

  (void)hba_.MmioWrite(ahci::kPxCi, 4, 0b11);
  events_.AdvanceTo(sim::Milliseconds(10));
  EXPECT_EQ(hba_.MmioRead(ahci::kPxCi, 4), 0u);
  EXPECT_EQ(disk_.completed_requests(), 2u);
}

}  // namespace
}  // namespace nova::hw
