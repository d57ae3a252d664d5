// The smaller platform pieces: UART, platform timer, bus routing, machine
// time synchronization, CPU utilization accounting.
#include <gtest/gtest.h>

#include "src/hw/machine.h"
#include "src/hw/timer_dev.h"
#include "src/hw/uart.h"

namespace nova::hw {
namespace {

TEST(Uart, CollectsOutputBytes) {
  Uart uart(1);
  for (const char c : std::string("hello")) {
    (void)uart.PioWrite(uart::kPortBase, 1, static_cast<std::uint8_t>(c));
  }
  EXPECT_EQ(uart.output(), "hello");
  EXPECT_EQ(uart.PioRead(uart::kPortBase + uart::kLsr, 1), uart::kLsrTxEmpty);
  uart.ClearOutput();
  EXPECT_TRUE(uart.output().empty());
}

TEST(PlatformTimer, PeriodicTicksAssertGsi) {
  sim::EventQueue events;
  IrqChip chip;
  chip.Configure(0, 0, 32);
  chip.Unmask(0);
  PlatformTimer timer(2, &chip, 0, &events);
  (void)timer.Start(sim::Milliseconds(1));
  events.AdvanceTo(sim::Milliseconds(10));
  EXPECT_EQ(timer.ticks(), 10u);
  EXPECT_TRUE(chip.HasPending(0));
}

TEST(PlatformTimer, PioProgrammingInterface) {
  sim::EventQueue events;
  IrqChip chip;
  chip.Configure(0, 0, 32);
  chip.Unmask(0);
  PlatformTimer timer(2, &chip, 0, &events);
  // Program 4000 us via the two-port handshake.
  (void)timer.PioWrite(timer::kPortPeriodLo, 1, 4000 & 0xffff);
  (void)timer.PioWrite(timer::kPortPeriodHi, 1, 4000 >> 16);
  events.AdvanceTo(sim::Milliseconds(20));
  EXPECT_EQ(timer.ticks(), 5u);
  EXPECT_EQ(timer.PioRead(timer::kPortControl, 1), 1u);
  // Stop.
  (void)timer.PioWrite(timer::kPortControl, 1, 0);
  events.AdvanceTo(sim::Milliseconds(40));
  EXPECT_EQ(timer.ticks(), 5u);
  EXPECT_EQ(timer.PioRead(timer::kPortControl, 1), 0u);
}

TEST(PlatformTimer, RestartInvalidatesOldSchedule) {
  sim::EventQueue events;
  IrqChip chip;
  PlatformTimer timer(2, &chip, 0, &events);
  (void)timer.Start(sim::Milliseconds(1));
  (void)timer.Start(sim::Milliseconds(10));  // Reprogram before first tick.
  events.AdvanceTo(sim::Milliseconds(9));
  EXPECT_EQ(timer.ticks(), 0u);  // Old 1 ms schedule was cancelled.
  events.AdvanceTo(sim::Milliseconds(21));
  EXPECT_EQ(timer.ticks(), 2u);
}

class ProbeDevice : public Device {
 public:
  ProbeDevice() : Device(9, "probe") {}
  std::uint64_t MmioRead(std::uint64_t off, unsigned) override { return off * 2; }
  void MmioWrite(std::uint64_t off, unsigned, std::uint64_t v) override {
    last = {off, v};
  }
  std::uint32_t PioRead(std::uint16_t port, unsigned) override { return port + 1; }
  void PioWrite(std::uint16_t port, unsigned, std::uint32_t v) override {
    last = {port, v};
  }
  std::pair<std::uint64_t, std::uint64_t> last{0, 0};
};

TEST(Bus, RoutesAndRejectsOverlaps) {
  Bus bus;
  ProbeDevice a, b;
  ASSERT_EQ(bus.RegisterMmio(0x1000, 0x100, &a), Status::kSuccess);
  EXPECT_EQ(bus.RegisterMmio(0x1080, 0x100, &b), Status::kBusy);  // Overlap.
  ASSERT_EQ(bus.RegisterMmio(0x2000, 0x100, &b), Status::kSuccess);
  ASSERT_EQ(bus.RegisterPio(0x100, 8, &a), Status::kSuccess);
  EXPECT_EQ(bus.RegisterPio(0x104, 8, &b), Status::kBusy);

  std::uint64_t v = 0;
  EXPECT_EQ(bus.MmioRead(0x1010, 4, &v), Status::kSuccess);
  EXPECT_EQ(v, 0x20u);  // Offset within the window.
  EXPECT_EQ(bus.MmioRead(0x3000, 4, &v), Status::kMemoryFault);
  EXPECT_EQ(bus.MmioWrite(0x2004, 4, 7), Status::kSuccess);
  EXPECT_EQ(b.last.first, 4u);

  std::uint32_t pv = 0;
  EXPECT_EQ(bus.PioRead(0x101, 4, &pv), Status::kSuccess);
  EXPECT_EQ(pv, 0x102u);
  EXPECT_EQ(bus.PioRead(0x500, 4, &pv), Status::kBadDevice);
  EXPECT_EQ(pv, 0xffffffffu);  // Floating bus.
}

TEST(Machine, SkipToNextEventAdvancesAllCpus) {
  Machine machine(MachineConfig{.cpus = {&CoreI7_920(), &PhenomX3_8450()},
                                .ram_size = 64ull << 20});
  bool fired = false;
  constexpr auto kTestOwner = sim::EventQueue::OwnerToken("test.events");
  const sim::EventOwner owner =
      machine.events().RegisterOwner(kTestOwner, [&](const sim::EventTag&) {
        return [&] { fired = true; };
      });
  machine.events().ScheduleAt(sim::Milliseconds(5),
                              sim::EventTag{kTestOwner, 1});
  EXPECT_TRUE(machine.SkipToNextEvent());
  EXPECT_TRUE(fired);
  EXPECT_GE(machine.cpu(0).NowPs(), sim::Milliseconds(5));
  EXPECT_GE(machine.cpu(1).NowPs(), sim::Milliseconds(5));
  EXPECT_FALSE(machine.SkipToNextEvent());
}

TEST(Cpu, UtilizationTracksIdlePeriods) {
  Machine machine(MachineConfig{.cpus = {&CoreI7_920()}, .ram_size = 64ull << 20});
  Cpu& cpu = machine.cpu(0);
  cpu.ResetUtilization();
  // 1 ms busy.
  cpu.Charge(cpu.model().frequency.PicosToCycles(sim::Milliseconds(1)));
  // 1 ms idle.
  cpu.SetIdle(true);
  cpu.AdvanceToPs(sim::Milliseconds(2));
  cpu.SetIdle(false);
  EXPECT_NEAR(cpu.Utilization(), 0.5, 0.01);
}

TEST(CpuModels, TableOneInventory) {
  // The six processors of Table 1, with the properties the evaluation
  // depends on.
  EXPECT_EQ(AllModels().size(), 6u);
  EXPECT_EQ(Opteron2212().host_paging, PagingMode::kTwoLevel);
  EXPECT_EQ(CoreI7_920().host_paging, PagingMode::kFourLevel);
  EXPECT_TRUE(CoreI7_920().has_guest_tlb_tags);       // VPID.
  EXPECT_FALSE(CoreI7_920_NoVpid().has_guest_tlb_tags);
  EXPECT_TRUE(Phenom9550().has_guest_tlb_tags);       // ASID.
  EXPECT_FALSE(Core2DuoE8400().has_guest_tlb_tags);   // Pre-Nehalem Intel.
  EXPECT_EQ(Opteron2212().vmread, 0u);                // VMCB is memory.
  EXPECT_GT(CoreDuoT2500().vmread, 0u);
  // Transition costs fall with each Intel generation (§8.4).
  EXPECT_GT(CoreDuoT2500().vm_exit + CoreDuoT2500().vm_resume,
            Core2DuoE8400().vm_exit + Core2DuoE8400().vm_resume);
  EXPECT_GT(Core2DuoE8400().vm_exit + Core2DuoE8400().vm_resume,
            CoreI7_920().vm_exit + CoreI7_920().vm_resume);
  EXPECT_EQ(CoreI7_920().frequency.khz(), 2'670'000u);
}

}  // namespace
}  // namespace nova::hw
