// Full stack under shadow paging: the same VMM and guest that run under
// nested paging run unmodified when the kernel falls back to the vTLB —
// only the exit mix changes (Table 2's two compile columns).
#include <gtest/gtest.h>

#include "bench/scenario.h"

namespace nova {
namespace {

class ShadowStackTest : public ::testing::Test {
 protected:
  // Yonah: no EPT — the configuration that forces shadow paging.
  ShadowStackTest()
      : system_(root::SystemConfig{
            .machine = {.cpus = {&hw::CoreDuoT2500()}, .ram_size = 512ull << 20}}) {}

  root::NovaSystem system_;
};

TEST_F(ShadowStackTest, GuestWithPagingRunsUnderVtlb) {
  bench::GuestVm guest_vm(system_,
                          vmm::VmmConfig{.guest_mem_bytes = 64ull << 20,
                                         .mode = hw::TranslationMode::kShadow},
                          bench::GuestVm::Disk::kNone);
  vmm::Vmm& vm = guest_vm.vmm();
  guest::GuestKernel& gk = guest_vm.kernel();
  const std::uint64_t proc = gk.CreateAddressSpace();

  hw::isa::Assembler& as = gk.text();
  const std::uint64_t main = as.Here();
  // Kernel-map write, demand-faulted process write, address-space switch,
  // INVLPG via the #PF handler: the full vTLB exercise.
  as.MovImm(1, 0x42);
  as.StoreAbs(1, 0x600000);
  as.MovCr3Imm(proc);
  as.MovImm(2, 0x43);
  as.StoreAbs(2, guest::GuestLayout::kProcVirtBase);
  as.MovCr3Imm(gk.kernel_cr3());
  as.LoadAbs(3, 0x600000);
  as.StoreAbs(3, 0x601000);
  gk.EmitIdleLoop();
  guest_vm.Boot(main);

  system_.hv.RunUntilCondition(
      [&] {
        std::uint64_t v = 0;
        vm.ReadGuest(0x601000, &v, 8);
        return v == 0x42;
      },
      sim::Seconds(5));

  std::uint64_t v = 0;
  vm.ReadGuest(0x601000, &v, 8);
  EXPECT_EQ(v, 0x42u);
  // The vTLB did the work: fills, kernel-internal CR handling, at least
  // one injected guest page fault for the demand-mapped page.
  EXPECT_GT(system_.hv.EventCount("vTLB Fill"), 5u);
  EXPECT_GE(system_.hv.EventCount("CR Read/Write"), 2u);
  EXPECT_GE(system_.hv.EventCount("vTLB Flush"), 2u);
  EXPECT_GE(system_.hv.EventCount("Guest Page Fault"), 1u);
  EXPECT_GE(system_.hv.EventCount("INVLPG"), 1u);
  // No nested-paging exits: memory virtualization never reached the VMM.
  EXPECT_EQ(system_.hv.EventCount("Memory-Mapped I/O"), 0u);
}

TEST_F(ShadowStackTest, MmioStillReachesVmmUnderShadow) {
  bench::GuestVm guest_vm(system_,
                          vmm::VmmConfig{.guest_mem_bytes = 64ull << 20,
                                         .mode = hw::TranslationMode::kShadow},
                          bench::GuestVm::Disk::kNone);
  vmm::Vmm& vm = guest_vm.vmm();
  guest::GuestKernel& gk = guest_vm.kernel();
  // Map the virtual AHCI window in the guest page table; the backing GPA
  // is unmapped in host space -> vTLB classifies it as MMIO.
  gk.MapDevice(gk.kernel_cr3(), vmm::vahci::kMmioBase, hw::kPageSize);

  hw::isa::Assembler& as = gk.text();
  const std::uint64_t main = as.Here();
  as.Load(1, hw::isa::kNoReg, vmm::vahci::kMmioBase + hw::ahci::kPxSsts);
  as.StoreAbs(1, 0x600000);
  gk.EmitIdleLoop();
  guest_vm.Boot(main);

  system_.hv.RunUntilCondition(
      [&] {
        std::uint64_t v = 0;
        vm.ReadGuest(0x600000, &v, 8);
        return v != 0;
      },
      sim::Seconds(5));
  std::uint64_t v = 0;
  vm.ReadGuest(0x600000, &v, 8);
  EXPECT_EQ(v, 0x123u);  // PxSSTS through the emulated device.
  EXPECT_GE(system_.hv.EventCount("Memory-Mapped I/O"), 1u);
}

}  // namespace
}  // namespace nova
