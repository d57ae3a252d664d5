// The synthetic guest kernel, executed bare-metal: boot, IDT setup, timer
// ISR with the controller handshake, demand paging via the #PF handler,
// address-space creation with a shared global kernel map.
#include "src/guest/kernel.h"

#include <gtest/gtest.h>

#include "src/guest/bare_metal.h"
#include "src/hw/machine.h"
#include "src/root/platform.h"

namespace nova::guest {
namespace {

class GuestKernelTest : public ::testing::Test {
 protected:
  GuestKernelTest()
      : machine_(hw::MachineConfig{.cpus = {&hw::CoreI7_920()},
                                   .ram_size = 256ull << 20,
                                   .iommu_present = false}),
        runner_(&machine_),
        // Host devices (the guest's timer lives on ports 0x40-0x43).
        platform_(root::SetupStandardPlatform(&machine_, nullptr)) {}

  std::unique_ptr<GuestKernel> MakeKernel(GuestKernelConfig config) {
    return std::make_unique<GuestKernel>(
        &machine_.mem(), [](std::uint64_t gpa) { return gpa; }, &runner_.mux(),
        config);
  }

  void Boot(GuestKernel& gk, std::uint64_t main_gva) {
    gk.EmitBoot(main_gva);
    gk.Install();
    gk.PrimeState(runner_.gs());
  }

  hw::Machine machine_;
  BareMetalRunner runner_;
  root::Platform platform_;
};

TEST_F(GuestKernelTest, BootRunsWithPagingEnabled) {
  auto gk = MakeKernel({.mem_bytes = 64ull << 20});
  gk->BuildStandardHandlers();
  hw::isa::Assembler& as = gk->text();
  const std::uint64_t main = as.Here();
  as.MovImm(1, 0xfeed);
  as.StoreAbs(1, 0x600000);  // Through the kernel identity map.
  gk->EmitIdleLoop();
  Boot(*gk, main);

  ASSERT_TRUE(runner_.RunUntil(
      [&] { return machine_.mem().Read64(0x600000) == 0xfeed; },
      sim::Milliseconds(10)));
  EXPECT_TRUE(runner_.gs().paging);
  EXPECT_EQ(runner_.gs().cr3, GuestLayout::kPtRoot);
}

TEST_F(GuestKernelTest, DemandPagingMapsProcessPages) {
  auto gk = MakeKernel({.mem_bytes = 64ull << 20});
  gk->BuildStandardHandlers();
  const std::uint64_t proc_cr3 = gk->CreateAddressSpace();
  ASSERT_NE(proc_cr3, 0u);

  hw::isa::Assembler& as = gk->text();
  const std::uint64_t main = as.Here();
  as.MovCr3Imm(proc_cr3);
  as.MovImm(1, 0x1111);
  as.StoreAbs(1, GuestLayout::kProcVirtBase + 0x5000);  // Faults, gets mapped.
  as.LoadAbs(2, GuestLayout::kProcVirtBase + 0x5000);   // Now hits.
  as.StoreAbs(2, 0x600000);
  gk->EmitIdleLoop();
  Boot(*gk, main);

  ASSERT_TRUE(runner_.RunUntil(
      [&] { return machine_.mem().Read64(0x600000) == 0x1111; },
      sim::Milliseconds(10)));
}

TEST_F(GuestKernelTest, TimerIsrCountsTicksWithHandshake) {
  auto gk = MakeKernel({.mem_bytes = 64ull << 20, .timer_hz = 1000});
  machine_.irq().Configure(0, 0, 32);  // Host timer GSI -> vector 32.
  machine_.irq().Unmask(0);
  int hook_calls = 0;
  gk->set_timer_hook([&] { ++hook_calls; });
  gk->BuildStandardHandlers();
  const std::uint64_t main = gk->EmitIdleLoop();
  Boot(*gk, main);

  runner_.RunUntil([&] { return gk->ticks() >= 10; }, sim::Milliseconds(50));
  EXPECT_GE(gk->ticks(), 10u);
  EXPECT_GE(hook_calls, 10);
}

TEST_F(GuestKernelTest, AddressSpacesShareGlobalKernelMap) {
  auto gk = MakeKernel({.mem_bytes = 64ull << 20});
  gk->BuildStandardHandlers();
  const std::uint64_t as1 = gk->CreateAddressSpace();
  const std::uint64_t as2 = gk->CreateAddressSpace();
  ASSERT_NE(as1, as2);

  hw::isa::Assembler& as = gk->text();
  const std::uint64_t main = as.Here();
  // Write through AS1's kernel map, read back through AS2's: same memory.
  as.MovCr3Imm(as1);
  as.MovImm(1, 0x77);
  as.StoreAbs(1, 0x700000);
  as.MovCr3Imm(as2);
  as.LoadAbs(2, 0x700000);
  as.StoreAbs(2, 0x701000);
  gk->EmitIdleLoop();
  Boot(*gk, main);

  ASSERT_TRUE(runner_.RunUntil(
      [&] { return machine_.mem().Read64(0x701000) == 0x77; },
      sim::Milliseconds(10)));
}

TEST_F(GuestKernelTest, ProcessPagesIsolatedPerAddressSpace) {
  auto gk = MakeKernel({.mem_bytes = 64ull << 20});
  gk->BuildStandardHandlers();
  const std::uint64_t as1 = gk->CreateAddressSpace();
  const std::uint64_t as2 = gk->CreateAddressSpace();

  hw::isa::Assembler& as = gk->text();
  const std::uint64_t main = as.Here();
  const std::uint64_t va = GuestLayout::kProcVirtBase;
  as.MovCr3Imm(as1);
  as.MovImm(1, 0xaaaa);
  as.StoreAbs(1, va);  // Demand-maps a frame in AS1.
  as.MovCr3Imm(as2);
  as.MovImm(1, 0xbbbb);
  as.StoreAbs(1, va);  // Demand-maps a *different* frame in AS2.
  as.MovCr3Imm(as1);
  as.LoadAbs(2, va);   // Must still see AS1's value.
  as.StoreAbs(2, 0x702000);
  gk->EmitIdleLoop();
  Boot(*gk, main);

  ASSERT_TRUE(runner_.RunUntil(
      [&] { return machine_.mem().Read64(0x702000) != 0; },
      sim::Milliseconds(10)));
  EXPECT_EQ(machine_.mem().Read64(0x702000), 0xaaaau);
}

TEST_F(GuestKernelTest, LargeKernelPagesReduceTableSize) {
  auto small = MakeKernel({.mem_bytes = 64ull << 20, .large_kernel_pages = false});
  auto large = MakeKernel({.mem_bytes = 64ull << 20, .large_kernel_pages = true});
  small->Install();
  const std::uint64_t small_pool = small->pt().pool_next();
  large->Install();
  const std::uint64_t large_pool = large->pt().pool_next();
  // 4 KiB identity map needs page-table frames; the 4 MiB map needs none.
  EXPECT_GT(small_pool, GuestLayout::kPtPool);
  EXPECT_EQ(large_pool, GuestLayout::kPtPool);
}

TEST_F(GuestKernelTest, FrameAllocatorExhaustsGracefully) {
  auto gk = MakeKernel({.mem_bytes = 17ull << 20});  // Tiny guest.
  // Heap starts at 16 MiB; only 1 MiB of frames available.
  EXPECT_NE(gk->AllocFrames(200), 0u);
  EXPECT_EQ(gk->AllocFrames(100000), 0u);
}

}  // namespace
}  // namespace nova::guest
