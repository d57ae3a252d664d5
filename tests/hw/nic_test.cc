#include "src/hw/nic.h"

#include <gtest/gtest.h>

#include <cstring>

#include "src/hw/irq.h"

namespace nova::hw {
namespace {

class NicTest : public ::testing::Test {
 protected:
  static constexpr PhysAddr kRing = 0x10000;
  static constexpr PhysAddr kBufs = 0x20000;
  static constexpr std::uint32_t kGsi = 9;
  static constexpr std::uint32_t kRingEntries = 8;

  NicTest()
      : mem_(64 << 20),
        iommu_(&mem_, true),
        nic_(5, &iommu_, &irq_, kGsi, &events_, tracer_) {
    irq_.Configure(kGsi, 0, 41);
    irq_.Unmask(kGsi);
    iommu_.AllowGsi(5, kGsi);
    // Driver bring-up: descriptor ring with per-descriptor buffers.
    for (std::uint32_t i = 0; i < kRingEntries; ++i) {
      nic::RxDescriptor d{};
      d.buffer = kBufs + i * 0x4000;
      (void)mem_.Write(kRing + i * 16, &d, sizeof(d));
    }
    (void)nic_.MmioWrite(nic::kRdbal, 4, kRing);
    (void)nic_.MmioWrite(nic::kRdlen, 4, kRingEntries * 16);
    (void)nic_.MmioWrite(nic::kRdh, 4, 0);
    (void)nic_.MmioWrite(nic::kRdt, 4, kRingEntries - 1);  // Hardware owns 0..6.
    (void)nic_.MmioWrite(nic::kIms, 4, nic::kIcrRxt0);
    (void)nic_.MmioWrite(nic::kRctl, 4, nic::kRctlEnable);
  }

  std::vector<std::uint8_t> Frame(std::uint32_t size, std::uint8_t fill) {
    return std::vector<std::uint8_t>(size, fill);
  }

  sim::EventQueue events_;
  sim::Tracer tracer_;
  PhysMem mem_;
  Iommu iommu_;
  IrqChip irq_{tracer_};
  Nic nic_;
};

TEST_F(NicTest, ReceiveWritesDescriptorAndBuffer) {
  auto frame = Frame(128, 0x5a);
  ASSERT_TRUE(nic_.Receive(frame.data(), frame.size()));

  nic::RxDescriptor d{};
  (void)mem_.Read(kRing, &d, sizeof(d));
  EXPECT_EQ(d.length, 128);
  EXPECT_TRUE(d.status & nic::kRxStatusDd);
  EXPECT_TRUE(d.status & nic::kRxStatusEop);
  EXPECT_EQ(mem_.ReadAs<std::uint8_t>(kBufs), 0x5a);
  EXPECT_EQ(nic_.MmioRead(nic::kRdh, 4), 1u);
  EXPECT_TRUE(irq_.HasPending(0));
}

TEST_F(NicTest, IcrReadClears) {
  auto frame = Frame(64, 1);
  nic_.Receive(frame.data(), frame.size());
  EXPECT_EQ(nic_.MmioRead(nic::kIcr, 4) & nic::kIcrRxt0, nic::kIcrRxt0);
  EXPECT_EQ(nic_.MmioRead(nic::kIcr, 4), 0u);  // Cleared by the read.
}

TEST_F(NicTest, RingFullDrops) {
  auto frame = Frame(64, 2);
  for (std::uint32_t i = 0; i < kRingEntries - 1; ++i) {
    EXPECT_TRUE(nic_.Receive(frame.data(), frame.size()));
  }
  // RDH caught up with RDT: the next frame is dropped.
  EXPECT_FALSE(nic_.Receive(frame.data(), frame.size()));
  EXPECT_EQ(nic_.packets_dropped(), 1u);
  // Software returns descriptors by advancing RDT.
  (void)nic_.MmioWrite(nic::kRdt, 4, 0);
  EXPECT_TRUE(nic_.Receive(frame.data(), frame.size()));
}

TEST_F(NicTest, DisabledReceiverDrops) {
  (void)nic_.MmioWrite(nic::kRctl, 4, 0);
  auto frame = Frame(64, 3);
  EXPECT_FALSE(nic_.Receive(frame.data(), frame.size()));
}

TEST_F(NicTest, MaskedInterruptDoesNotFire) {
  (void)nic_.MmioWrite(nic::kImc, 4, nic::kIcrRxt0);
  auto frame = Frame(64, 4);
  nic_.Receive(frame.data(), frame.size());
  EXPECT_FALSE(irq_.HasPending(0));
  EXPECT_EQ(nic_.interrupts_raised(), 0u);
}

TEST_F(NicTest, CoalescingLimitsInterruptRate) {
  // ITR in 256 ns units: 50 us minimum gap => max 20000 irq/s (§8.3).
  (void)nic_.MmioWrite(nic::kItr, 4, 50'000 / 256);
  auto frame = Frame(64, 5);

  // Burst of packets at 1 us spacing for 200 us: without coalescing this
  // would be 200 interrupts; with a 50 us ITR it is at most ~5.
  for (int i = 0; i < 200; ++i) {
    events_.AdvanceTo(sim::Microseconds(i));
    nic_.Receive(frame.data(), frame.size());
    (void)nic_.MmioWrite(nic::kRdt, 4, (nic_.MmioRead(nic::kRdh, 4) + kRingEntries - 1) %
                                     kRingEntries);
  }
  events_.AdvanceTo(sim::Microseconds(300));
  EXPECT_LE(nic_.interrupts_raised(), 7u);
  EXPECT_GE(nic_.interrupts_raised(), 3u);
  EXPECT_EQ(nic_.packets_received(), 200u);
}

TEST_F(NicTest, NetLinkGeneratesConfiguredRate) {
  NetLink link(&events_, &nic_);
  // 100 MBit/s with 1250-byte packets = 10000 packets/s.
  link.StartStream(100.0, 1250);
  // Keep the ring drained.
  for (int ms = 1; ms <= 10; ++ms) {
    events_.AdvanceTo(sim::Milliseconds(ms));
    (void)nic_.MmioWrite(nic::kRdt, 4, (nic_.MmioRead(nic::kRdh, 4) + kRingEntries - 1) %
                                     kRingEntries);
  }
  link.Stop();
  // 10 ms at 10000 packets/s = ~100 packets.
  EXPECT_NEAR(static_cast<double>(link.packets_sent()), 100.0, 3.0);
}

TEST_F(NicTest, WrapAroundRing) {
  auto frame = Frame(64, 6);
  for (int round = 0; round < 3; ++round) {
    for (std::uint32_t i = 0; i < kRingEntries - 1; ++i) {
      ASSERT_TRUE(nic_.Receive(frame.data(), frame.size()));
      (void)nic_.MmioWrite(nic::kRdt, 4,
                     (nic_.MmioRead(nic::kRdh, 4) + kRingEntries - 1) % kRingEntries);
    }
  }
  EXPECT_EQ(nic_.packets_received(), 3u * (kRingEntries - 1));
}

}  // namespace
}  // namespace nova::hw
